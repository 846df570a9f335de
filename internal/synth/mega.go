package synth

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/collective"
	"repro/internal/pb"
	"repro/internal/sat"
	"repro/internal/smt"
	"repro/internal/topology"
)

// The mega-base is the repository's one incremental solving path. A
// MegaSession keeps ONE Stage-1 formula per topology — the staged
// encoder's window mode: time domains spanning the whole step horizon,
// bandwidth constraints for every step, round variables in [1, k+1], and
// neither budget constraint asserted — over the union of every
// (collective, C) family's chunks, with a per-chunk activation literal
// guarding the chunk's send variables. A probe is selected by assumption
// alone: act[c] for the family's mapped chunks, ¬act[c] for the rest,
// C2 (post arrival within S) as the order-encoding literal time <= S per
// post placement, and C6 (round total R) as a two-sided bound on a
// prefix-sum register over the round variables. Sends arriving after the
// probed S are allowed by the base and ignored (witnesses are re-derived
// one-shot). A whole multi-family sweep is therefore a single long-lived
// incremental solve: one encode, and learnt clauses survive across
// budgets, chunk counts and families by construction.
//
// Soundness of the projection (why assuming activations is equivalent to
// encoding the family directly):
//
//   - deactivation forces every send of the chunk off (the guard clause
//     act[c] ∨ ¬snd(c, e)), which lets the chunk sit at "never arrives"
//     everywhere non-pre — C3/C4 become vacuous, m1–m3 are satisfied by
//     the all-never assignment, and the chunk's C5 arrival literals are
//     reified conjunctions over a false send, so they are forced false
//     and drop out of every bandwidth count;
//   - activation releases the guards, leaving exactly the window-mode
//     constraints of that chunk (same pre/post rows, same BFS domains; the
//     minimality refinements at the horizon are weaker than the one-shot
//     encoder's S-specific forms but satisfiability-preserving for every
//     probed S: a minimal S-budget algorithm maps into the base by sending
//     nothing after S and placing never-arriving chunks at horizon+1);
//   - chunk-symmetry chains are respected because a family's chunks map
//     onto a PREFIX of each mega signature group in ascending id order:
//     the family's own chain is the prefix of the mega chain, and the
//     inactive suffix sits at horizon+1, above every active time.
//
// Satisfiability under the assumptions therefore matches the one-shot
// answer for every (S <= horizon, R <= S+K) budget of every mapped
// family, and the canonical-witness rule (Sat probes re-solved one-shot)
// keeps frontiers byte-identical to the session-free path.
const (
	// megaMaxChunks caps the universe size: past it the Stage-1 formula
	// stops paying for itself and the session declines to build.
	megaMaxChunks = 512
	// megaPoolCap bounds how many per-topology mega sessions a pool keeps
	// live; each holds a full union base formula.
	megaPoolCap = 4
)

// chunkSig is the canonical pre/post row signature of one chunk — two
// bytes per node. It is shared with symmetricChunkGroups, so the mega
// universe's signature groups partition chunks exactly like the
// symmetry-breaking groups of every encoding of the same collective.
func chunkSig(coll *collective.Spec, c int) string {
	b := make([]byte, 0, 2*coll.P)
	for n := 0; n < coll.P; n++ {
		x, y := byte('0'), byte('0')
		if coll.Pre[c][n] {
			x = '1'
		}
		if coll.Post[c][n] {
			y = '1'
		}
		b = append(b, x, y)
	}
	return string(b)
}

// megaUniverse is the deterministic chunk layout of one topology's mega
// spec: for every chunk signature any (kind, C <= maxChunks) family uses,
// as many contiguous chunks as the hungriest family needs.
type megaUniverse struct {
	spec      *collective.Spec
	sigOffset map[string]int // signature -> first universe chunk id
	sigCount  map[string]int // signature -> contiguous chunk count
}

// buildMegaUniverse lays out the union spec over the scoped kinds (nil
// means every non-combining kind) at chunk counts 1..maxChunks. Returns
// nil when the union exceeds megaMaxChunks — the caller stays one-shot.
func buildMegaUniverse(p int, root topology.Node, kinds []collective.Kind, maxChunks int) *megaUniverse {
	if len(kinds) == 0 {
		kinds = collective.Kinds()
	}
	need := map[string]int{}
	var order []string
	for _, kind := range kinds {
		if kind.IsCombining() {
			continue
		}
		for c := 1; c <= maxChunks; c++ {
			coll, err := collective.New(kind, p, c, root)
			if err != nil {
				continue
			}
			cnt := map[string]int{}
			for ch := 0; ch < coll.G; ch++ {
				s := chunkSig(coll, ch)
				if cnt[s] == 0 && need[s] == 0 {
					order = append(order, s)
				}
				cnt[s]++
			}
			for s, n := range cnt {
				if n > need[s] {
					need[s] = n
				}
			}
		}
	}
	total := 0
	for _, s := range order {
		total += need[s]
	}
	if total == 0 || total > megaMaxChunks {
		return nil
	}
	pre, post := collective.NewRel(total, p), collective.NewRel(total, p)
	u := &megaUniverse{
		sigOffset: make(map[string]int, len(order)),
		sigCount:  make(map[string]int, len(order)),
	}
	idx := 0
	for _, s := range order {
		u.sigOffset[s] = idx
		u.sigCount[s] = need[s]
		for i := 0; i < need[s]; i++ {
			for n := 0; n < p; n++ {
				if s[2*n] == '1' {
					pre[idx][n] = true
				}
				if s[2*n+1] == '1' {
					post[idx][n] = true
				}
			}
			idx++
		}
	}
	u.spec = &collective.Spec{
		Kind: collective.CustomKind, P: p, C: maxChunks, Root: root,
		G: total, Pre: pre, Post: post,
	}
	return u
}

// mapFamily maps every family chunk onto a universe chunk: the k-th
// family chunk of a signature (in ascending id order) lands on the k-th
// universe chunk of that signature's contiguous group. The prefix-and-
// order-preserving shape is what keeps the mega base's symmetry-breaking
// chains compatible with the family's own. Returns nil when the universe
// cannot host the family (unknown signature or too few copies).
func (u *megaUniverse) mapFamily(coll *collective.Spec) []int {
	mapping := make([]int, coll.G)
	used := map[string]int{}
	for c := 0; c < coll.G; c++ {
		s := chunkSig(coll, c)
		off, ok := u.sigOffset[s]
		if !ok {
			return nil
		}
		i := used[s]
		if i >= u.sigCount[s] {
			return nil
		}
		mapping[c] = off + i
		used[s] = i + 1
	}
	return mapping
}

// megaEncoding is the live mega base formula: the window-mode emission
// over the universe spec plus the per-chunk activation literals its
// guards use.
type megaEncoding struct {
	ctx   *smt.Context
	spec  *collective.Spec
	times [][]*smt.IntVar
	rs    []*smt.IntVar
	// prefix[s] is a unary register counting sum(r_1..r_s) - s, grown one
	// step at a time via totalizer merges as probes demand it.
	prefix []*pb.Totalizer
	acts   []sat.Lit
	// symPerms counts the node-symmetry generators restricted on in the
	// base. symPlan/symGuards are those equivariance restrictions, each
	// generator conditioned on its own guard literal: a universe
	// automorphism only remains a symmetry of the SELECTED family when the
	// activation row is invariant under its induced class map, so
	// assumeFamily routes each guard to the on or off side of the phased
	// solve per family.
	symPerms  int
	symPlan   *nodeSymPlan
	symGuards []sat.Lit
}

// encodeMegaBase emits the universe's budget-independent constraints
// through the staged emitter in window mode at the shared horizon —
// Stage 0 (shared routing template) + Stage 1, with Stage 2 (C2/C6) left
// to assumeFamily — every send variable guarded by its chunk's activation
// literal. It is the same walker and CDCL sink as the one-shot
// encodePaper, differing only in the EncodePlan. Returns nil when some
// universe chunk's required placement is unreachable within the horizon.
func encodeMegaBase(spec *collective.Spec, topo *topology.Topology, opts Options, horizon, k int, tmpl *Stage0Template) *megaEncoding {
	enc := NewStagedEncoder(EncodePlan{
		Coll:            spec,
		Topo:            topo,
		Window:          horizon,
		RoundHi:         k + 1,
		NoSymmetryBreak: opts.NoSymmetryBreak,
		NoNodeSymmetry:  opts.NoSymmetryBreaking,
		Template:        tmpl,
	})
	ctx := smt.NewContext()
	sink := newCDCLStageSink(enc, ctx)
	sink.acts = make([]sat.Lit, spec.G)
	for c := range sink.acts {
		sink.acts[c] = ctx.BoolVar()
	}
	if !enc.Emit(sink) {
		return nil
	}
	return &megaEncoding{
		ctx:       ctx,
		spec:      spec,
		times:     sink.times,
		rs:        sink.rs,
		acts:      sink.acts,
		symPerms:  sink.symPerms,
		symPlan:   sink.symPlan,
		symGuards: sink.symGuards,
	}
}

// post reports whether (c, n) is a non-pre post placement. The universe
// never holds a combining collective, so Pre/Post index directly.
func (e *megaEncoding) post(c, n int) bool {
	return e.spec.Post[c][n] && !e.spec.Pre[c][n]
}

// prefixRegister returns the unary register counting
// sum(r_1..r_steps) - steps, growing the chain of totalizer merges as
// needed. Registers are built once per step count and shared by every
// later probe; their clauses are budget-independent.
func (e *megaEncoding) prefixRegister(steps int) *pb.Totalizer {
	for len(e.prefix) < steps {
		s := len(e.prefix)
		step := &pb.Totalizer{Outputs: e.rs[s].GeLits()}
		if s == 0 {
			e.prefix = append(e.prefix, step)
			continue
		}
		e.prefix = append(e.prefix, pb.MergeTotalizers(e.ctx.Solver, e.prefix[s-1], step))
	}
	return e.prefix[steps-1]
}

// assumeFamily builds the assumption set selecting one family's (S, R)
// probe over the mega base: the activation row (positive for the family's
// mapped chunks, negative for every other universe chunk — the negations
// are what let unit propagation collapse the inactive part), then C2 post
// arrival for the active chunks, then the shared C6 round-total bounds.
// marks records each literal's budget group for the final-conflict
// classification. A non-nil prune reports a budget that pruning already
// refutes — the one-shot encoder's feasible=false path, without touching
// the solver — classified like a solver core so the sweep can skip the
// budgets it dominates.
func (e *megaEncoding) assumeFamily(mapping []int, active []bool, steps, rounds int) (lits []sat.Lit, marks assumpMarks, prune *BudgetCore) {
	marks.post = map[sat.Lit]bool{}
	marks.acts = map[sat.Lit]bool{}
	for c, a := range e.acts {
		l := a
		if !active[c] {
			l = a.Neg()
		}
		lits = append(lits, l)
		marks.acts[l] = true
	}
	// Node-symmetry guards: a universe automorphism stays a symmetry of
	// the selected family only when the activation row is invariant under
	// its induced class map. Actives form a per-class prefix (mapFamily),
	// so invariance reduces to per-class active COUNTS matching across
	// the map; a guard whose counts mismatch goes to marks.symOff (its
	// restriction is off for this family), the rest to marks.symOn. The
	// phased solve (solveSymPhased) assumes them and retreats per guard
	// on restriction-dependent Unsat cores, so the guards never reach
	// core classification.
	if e.symPlan != nil && len(e.symGuards) > 0 {
		counts := make([]int, len(e.symPlan.classes))
		for j, class := range e.symPlan.classes {
			for _, c := range class {
				if active[c] {
					counts[j]++
				}
			}
		}
		for i, g := range e.symGuards {
			inv := e.symPlan.perms[i].invClass
			on := true
			for j := range counts {
				if counts[inv[j]] != counts[j] {
					on = false
					break
				}
			}
			if on {
				marks.symOn = append(marks.symOn, g)
			} else {
				marks.symOff = append(marks.symOff, g)
			}
		}
	}
	// C2 over the active chunks only: inactive chunks stay free to sit at
	// "never arrives".
	for _, mc := range mapping {
		for n, tv := range e.times[mc] {
			if tv == nil || tv.Lo == tv.Hi {
				continue
			}
			if !e.post(mc, n) {
				continue
			}
			le, ok := tv.LeLit(steps)
			if !ok {
				if tv.TriviallyLe(steps) {
					continue
				}
				// BFS lower bound exceeds the budget: the placement misses
				// every step budget <= steps at any round count.
				return nil, marks, &BudgetCore{Steps: steps, Rounds: rounds, PostArrival: true}
			}
			lits = append(lits, le)
			marks.post[le] = true
		}
	}
	// C6: the round variables hold S <= sum <= S*(K+1); the prefix
	// register counts the excess over the minimum one round per step.
	target := rounds - steps
	if target < 0 {
		// R < S cannot hold for any cheaper R either.
		return nil, marks, &BudgetCore{Steps: steps, Rounds: rounds, RoundUpper: true}
	}
	reg := e.prefixRegister(steps)
	if target > len(reg.Outputs) {
		// The per-step domains cannot reach R; refutes only costlier R,
		// so the core claims no downward dominance.
		return nil, marks, &BudgetCore{Steps: steps, Rounds: rounds, RoundLower: true}
	}
	if lit, ok := reg.AtLeast(target); ok {
		lits = append(lits, lit)
		marks.lower = lit
	} else if target > 0 {
		return nil, marks, &BudgetCore{Steps: steps, Rounds: rounds, RoundLower: true}
	}
	if lit, ok := reg.AtLeast(target + 1); ok {
		lits = append(lits, lit.Neg())
		marks.upper = lit.Neg()
	}
	return lits, marks, nil
}

// MegaSession is the pooled per-topology incremental solver every mapped
// family projects into. One session serves every (collective, C <=
// maxChunks) family at every (S <= horizon, R <= S+k) budget, so learned
// clauses and heuristic state transfer between probes instead of being
// discarded after every solve. Concurrent probes serialize on the session
// lock; the session is safe for concurrent use.
type MegaSession struct {
	topo      *topology.Topology
	root      topology.Node
	opts      Options // lowering-relevant creation options
	horizon   int     // shared step window; probes past it one-shot
	k         int     // R - S bound; probes past it one-shot
	maxChunks int
	// kinds is the universe's kind scope, canonicalized by
	// normalizeMegaKinds; nil hosts every non-combining kind. Scoping
	// exists because the all-kinds union is dominated by Alltoall's
	// C_max*P^2 chunks — a sweep that declared its kinds gets a universe
	// (and an encode bill) sized to what it will actually probe.
	kinds     []collective.Kind
	kindSet   map[collective.Kind]bool // nil when kinds is nil
	templates *TemplateCache

	mu     sync.Mutex
	closed bool
	// disabled marks a base whose emission turned out infeasible: some
	// universe chunk's required placement is unreachable at the horizon.
	// That refutes nothing about any particular family, so the session
	// declines and views fall back.
	disabled bool
	uni      *megaUniverse
	enc      *megaEncoding
	encodes  int
	selects  int
}

// normalizeMegaKinds canonicalizes a universe kind scope: non-combining
// kinds only, deduplicated, sorted, collapsed to nil (= every
// non-combining kind) when the scope covers them all. ok is false when
// the caller named kinds but none of them can live in a universe.
func normalizeMegaKinds(kinds []collective.Kind) (norm []collective.Kind, ok bool) {
	if len(kinds) == 0 {
		return nil, true
	}
	seen := map[collective.Kind]bool{}
	for _, k := range kinds {
		if k.IsCombining() || seen[k] {
			continue
		}
		seen[k] = true
		norm = append(norm, k)
	}
	if len(norm) == 0 {
		return nil, false
	}
	all := 0
	for _, k := range collective.Kinds() {
		if !k.IsCombining() {
			all++
		}
	}
	if len(norm) == all {
		return nil, true
	}
	sort.Slice(norm, func(i, j int) bool { return norm[i] < norm[j] })
	return norm, true
}

// mergeMegaKinds unions two canonical kind scopes; nil (all kinds) on
// either side wins.
func mergeMegaKinds(a, b []collective.Kind) []collective.Kind {
	if a == nil || b == nil {
		return nil
	}
	merged, _ := normalizeMegaKinds(append(append([]collective.Kind(nil), a...), b...))
	return merged
}

// NewMegaSession builds a mega session for one topology, its universe
// scoped to kinds (nil = every non-combining kind). Returns nil when the
// configuration cannot be projected soundly (non-paper encoding, proof
// recording) or the chunk universe would exceed megaMaxChunks.
func NewMegaSession(topo *topology.Topology, root topology.Node, opts Options, kinds []collective.Kind, maxChunks, maxSteps, k int) *MegaSession {
	if opts.Encoding != EncodingPaper || opts.ProveUnsat {
		return nil
	}
	if maxChunks < 1 || maxSteps < 1 || k < 0 {
		return nil
	}
	norm, ok := normalizeMegaKinds(kinds)
	if !ok {
		return nil
	}
	uni := buildMegaUniverse(topo.P, root, norm, maxChunks)
	if uni == nil {
		return nil
	}
	var set map[collective.Kind]bool
	if norm != nil {
		set = make(map[collective.Kind]bool, len(norm))
		for _, kd := range norm {
			set[kd] = true
		}
	}
	return &MegaSession{
		topo: topo, root: root, opts: opts,
		horizon: maxSteps, k: k, maxChunks: maxChunks,
		kinds: norm, kindSet: set,
		uni: uni,
	}
}

// setTemplateCache hands the session the pool's shared Stage-0 cache.
func (m *MegaSession) setTemplateCache(tc *TemplateCache) {
	m.mu.Lock()
	m.templates = tc
	m.mu.Unlock()
}

// Covers reports whether the session can serve every family of a sweep
// over kinds (nil = every non-combining kind) bounded by (maxChunks,
// maxSteps, k).
func (m *MegaSession) Covers(kinds []collective.Kind, maxChunks, maxSteps, k int) bool {
	if m == nil || maxChunks > m.maxChunks || maxSteps > m.horizon || k > m.k {
		return false
	}
	if len(kinds) == 0 {
		return m.kindSet == nil
	}
	for _, kd := range kinds {
		if !kd.IsCombining() && m.kindSet != nil && !m.kindSet[kd] {
			return false
		}
	}
	return true
}

// Prepare eagerly builds the base formula (normally built lazily by the
// first probe), so a daemon can pay the encode in the background before
// traffic needs it. It reports whether the session is live and how long
// the build took (0 when it was already built or declined).
func (m *MegaSession) Prepare() (live bool, encode time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.disabled {
		return false, 0
	}
	if m.enc != nil {
		return true, 0
	}
	t0 := time.Now()
	m.buildLocked()
	return !m.disabled, time.Since(t0)
}

// buildLocked encodes the mega base; caller holds m.mu.
func (m *MegaSession) buildLocked() {
	var tmpl *Stage0Template
	if m.templates != nil {
		tmpl, _ = m.templates.Get(m.topo)
	}
	m.enc = encodeMegaBase(m.uni.spec, m.topo, m.opts, m.horizon, m.k, tmpl)
	m.encodes++
	m.disabled = m.enc == nil
}

// Stats returns the session's lifetime counters: base encodes performed
// and probes selected by assumption.
func (m *MegaSession) Stats() (encodes, selects int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.encodes, m.selects
}

// Close releases the solver state; live views degrade to one-shot.
func (m *MegaSession) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.enc = nil
	return nil
}

// View projects one family out of the session: non-nil when every family
// chunk maps onto the universe. The Pareto scheduler and the engine route
// probes through views.
func (m *MegaSession) View(coll *collective.Spec) *MegaFamilyView {
	if m == nil || coll == nil || coll.Kind.IsCombining() || coll.P != m.topo.P {
		return nil
	}
	m.mu.Lock()
	dead := m.closed || m.disabled
	uni := m.uni
	m.mu.Unlock()
	if dead || uni == nil {
		return nil
	}
	mapping := uni.mapFamily(coll)
	if mapping == nil {
		return nil
	}
	active := make([]bool, uni.spec.G)
	for _, mc := range mapping {
		active[mc] = true
	}
	return &MegaFamilyView{m: m, coll: coll, mapping: mapping, active: active}
}

// MegaFamilyView is one family's projection of a MegaSession.
type MegaFamilyView struct {
	m       *MegaSession
	coll    *collective.Spec
	mapping []int
	active  []bool
}

// oneShotSolve discharges a probe through the plain one-shot pipeline
// with the shared Stage-0 template — the fallback for budgets outside
// the session window and the canonical-witness re-solve for Sat probes.
func (v *MegaFamilyView) oneShotSolve(ctx context.Context, in Instance, opts Options) (Result, error) {
	v.m.mu.Lock()
	tc := v.m.templates
	v.m.mu.Unlock()
	return solveOneShot(ctx, in, opts, tc)
}

// probe modes returned by the locked portion of a view solve.
const (
	probeModeDone    = iota // the result is final
	probeModeOneShot        // solve the instance one-shot, outside the lock
	probeModeSat            // Sat under assumptions: materialize the witness
)

func (v *MegaFamilyView) instance(steps, rounds int) Instance {
	return Instance{Coll: v.coll, Topo: v.m.topo, Steps: steps, Round: rounds}
}

// Solve discharges one (steps, rounds) budget of the view's family. opts
// supplies the per-probe solver budgets (Timeout, MaxConflicts); its
// lowering-relevant fields must match the ones the session was created
// with. Budgets outside the session window, and every probe of a closed or
// declined session, degrade to one-shot solving rather than failing.
func (v *MegaFamilyView) Solve(ctx context.Context, steps, rounds int, opts Options) (Result, error) {
	in := v.instance(steps, rounds)
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	res, mode := v.m.probeLocked(ctx, v, steps, rounds, opts)
	switch mode {
	case probeModeDone:
		return res, nil
	case probeModeOneShot:
		return v.oneShotSolve(ctx, in, opts)
	}
	// Canonical witness: the session's own model depends on everything the
	// shared solver saw before (carried learnt clauses steer the search),
	// so a Sat budget is re-solved one-shot to keep algorithms
	// deterministic and byte-identical with the one-shot path. The
	// incremental win is in the Unsat chain the sweep walks before each
	// frontier point. This solve builds its own solver and runs outside
	// the session lock, so concurrent probes are not serialized behind it.
	canon, err := v.oneShotSolve(ctx, in, opts)
	if err != nil {
		return res, err
	}
	res.Encode += canon.Encode
	res.Solve += canon.Solve
	res.Add(ProbeStats{Stats: canon.Stats, TemplateHits: canon.TemplateHits})
	switch canon.Status {
	case sat.Sat:
		res.Algorithm = canon.Algorithm
	case sat.Unknown:
		res.Status = sat.Unknown
	default:
		return res, fmt.Errorf("synth: internal: mega session says Sat but one-shot re-solve says %v for C=%d S=%d R=%d",
			canon.Status, v.coll.C, steps, rounds)
	}
	return res, nil
}

// SolveStatus answers a budget's satisfiability without materializing a
// canonical witness: a Sat answer carries no Algorithm (and skips the
// one-shot re-solve Solve performs). Unsat answers are identical to
// Solve's, including the budget core. The Pareto scheduler uses it for
// speculative chain-top probes whose Sat answers it discards.
func (v *MegaFamilyView) SolveStatus(ctx context.Context, steps, rounds int, opts Options) (Result, error) {
	in := v.instance(steps, rounds)
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	res, mode := v.m.probeLocked(ctx, v, steps, rounds, opts)
	if mode == probeModeOneShot {
		return v.oneShotSolve(ctx, in, opts)
	}
	return res, nil
}

// probeLocked discharges one view probe against the shared base, under
// the session lock: it decides the probe mode and, on the incremental
// path, discharges the budget assumptions against the live solver.
func (m *MegaSession) probeLocked(ctx context.Context, v *MegaFamilyView, steps, rounds int, opts Options) (Result, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.disabled || steps > m.horizon || rounds-steps > m.k {
		return Result{}, probeModeOneShot
	}
	var res Result
	res.SessionProbes = 1
	if m.enc != nil {
		res.SessionReuses = 1
	}
	t0 := time.Now()
	if m.enc == nil {
		m.buildLocked()
		res.MegaEncodes = 1
		if m.enc != nil {
			res.SymmetryPerms = m.enc.symPerms
		}
		if quotientEligible(m.opts) {
			// The mega-base never quotients: activation families select
			// arbitrary chunk subsets, and a subset that is not a union of
			// orbits breaks the invariance the aliasing would bake in.
			res.QuotientDeclined = 1
		}
		if m.disabled {
			// Emission infeasibility means some universe chunk — not
			// necessarily one of this family's — cannot reach a required
			// placement at the horizon; answering Unsat here would be
			// unsound, so the probe falls back to a one-shot solve.
			return Result{}, probeModeOneShot
		}
	}
	res.CarriedLearnts = int64(m.enc.ctx.Solver.LearntClauses())
	assumptions, marks, prune := m.enc.assumeFamily(v.mapping, v.active, steps, rounds)
	res.Encode = time.Since(t0)
	m.selects++
	if prune != nil {
		res.Status = sat.Unsat
		res.Core = prune
		return res, probeModeDone
	}
	applySolverOpts(m.enc.ctx.Solver, opts)
	res.Vars = m.enc.ctx.Solver.NumVars()
	res.Clauses = m.enc.ctx.Solver.NumClauses()
	symOrder := 0
	if m.enc.symPlan != nil {
		symOrder = m.enc.symPlan.order
	}
	// Stats reports this probe's own search (core minimization included),
	// not the shared solver's lifetime totals: the sweep sizes chain-top
	// conflict caps from it.
	before := m.enc.ctx.Solver.Stats()
	t1 := time.Now()
	res.Status = solveSymPhased(ctx, m.enc.ctx, assumptions, marks.symOn, marks.symOff,
		restrictedPhaseConflicts(res.Clauses, symOrder))
	if res.Status == sat.Unsat {
		res.Core = m.enc.classifyCore(ctx, marks, steps, rounds)
	}
	res.Solve = time.Since(t1)
	res.Stats = m.enc.ctx.Solver.Stats().Since(before)
	if res.Status == sat.Sat {
		return res, probeModeSat
	}
	return res, probeModeDone
}

package synth

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/collective"
	"repro/internal/pb"
	"repro/internal/sat"
	"repro/internal/smt"
	"repro/internal/topology"
)

// Family identifies a group of SynColl instances that share everything
// except the (S, R) budget: the collective (including its chunking C), the
// topology, and the enumeration bounds of the budgets that will be probed.
// The Pareto-Synthesize procedure (paper Algorithm 1) discharges exactly
// such a family — same topology, collective and chunking, varying only
// (S, R) — which is what makes incremental solver sessions profitable.
type Family struct {
	Coll *collective.Spec
	Topo *topology.Topology
	// MaxSteps bounds the step counts S the session will be probed at.
	MaxSteps int
	// MaxExtraRounds bounds R - S (the k-synchronous k of the sweep): the
	// session's per-step round variables range over [1, MaxExtraRounds+1].
	// Probes outside that class fall back to one-shot solving.
	MaxExtraRounds int
}

// Validate checks family coherence.
func (f Family) Validate() error {
	if f.Coll == nil || f.Topo == nil {
		return fmt.Errorf("synth: session family missing collective or topology")
	}
	if f.Coll.Kind.IsCombining() {
		return fmt.Errorf("synth: session family for combining %v; synthesize its dual", f.Coll.Kind)
	}
	if f.Coll.P != f.Topo.P {
		return fmt.Errorf("synth: session family collective P=%d but topology P=%d", f.Coll.P, f.Topo.P)
	}
	if f.MaxSteps < 1 {
		return fmt.Errorf("synth: session family needs MaxSteps >= 1")
	}
	if f.MaxExtraRounds < 0 {
		return fmt.Errorf("synth: session family has negative MaxExtraRounds")
	}
	return f.Topo.Validate()
}

// key is the canonical pool key of a family under lowering-relevant
// solver options (the ones that change which formula gets built).
func (f Family) key(opts Options) string {
	return f.Coll.Fingerprint() + "|" + f.Topo.Fingerprint() +
		"|s" + strconv.Itoa(f.MaxSteps) + "|k" + strconv.Itoa(f.MaxExtraRounds) +
		"|e" + strconv.Itoa(int(opts.Encoding)) +
		"|y" + strconv.FormatBool(!opts.NoSymmetryBreak) +
		"|n" + strconv.FormatBool(!opts.NoSymmetryBreaking) +
		"|q" + strconv.FormatBool(!opts.NoQuotient) +
		"|p" + strconv.FormatBool(opts.ProveUnsat)
}

// Session solves successive (S, R) budgets of one instance family over a
// persistent solver, so learned clauses and heuristic state transfer
// between probes instead of being discarded after every solve.
//
// Satisfiability answers come from the incremental solver; the witness
// algorithm of a Sat probe is re-derived by a deterministic one-shot solve
// of that exact budget, so a session returns byte-identical algorithms to
// the one-shot path regardless of what it solved before. Sessions
// serialize concurrent Solve calls internally and are safe for concurrent
// use.
type Session interface {
	// Family returns the instance family the session was created for.
	Family() Family
	// Solve discharges one (steps, rounds) budget. opts supplies the
	// per-probe solver budgets (Timeout, MaxConflicts); its
	// lowering-relevant fields must match the ones the session was
	// created with.
	Solve(ctx context.Context, steps, rounds int, opts Options) (Result, error)
	// Close releases the solver state. Subsequent Solve calls degrade to
	// one-shot solving rather than failing.
	Close() error
}

// SessionBackend is implemented by backends that can keep per-family
// incremental sessions. Both shipped backends implement it: the CDCL
// backend layers the budget constraints over a live solver under
// assumptions, and the SMT-LIB backend brackets them in (push)/(pop)
// rounds on an interactive solver process, falling back to one-shot
// solving when the binary has no incremental mode.
type SessionBackend interface {
	Backend
	// NewSession prepares a session for one family. opts fixes the
	// lowering-relevant options (encoding, symmetry breaking, proofs);
	// configurations a backend cannot solve incrementally yield a valid
	// session that one-shots every probe.
	NewSession(f Family, opts Options) (Session, error)
}

// stepSlack is how far beyond the first probed step count a session sizes
// its layered encoding. A wider window survives more of the sweep's S
// enumeration without re-basing, but grows the base formula that every
// probe pays for; 1 covers the common adjacent-step probe pattern.
const stepSlack = 1

// sessionAdoptProbes is how many probes a family one-shots before the
// session builds its incremental base. Sweeps probe most families only
// once or twice (the first cost-rank candidate of a step is often already
// satisfiable); building a live solver for those is pure overhead, so a
// session only invests once the family's probe stream proves hot.
const sessionAdoptProbes = 2

// BatchSessionMinBudgets is the smallest number of distinct budgets for
// which routing a batch through a Prime'd session beats one-shot
// solving: at least one probe must land past the lazy-adoption warmup,
// otherwise the session never goes incremental and only occupies pool
// capacity.
const BatchSessionMinBudgets = sessionAdoptProbes + 1

// sessionHorizon picks the encoding step horizon for a probe at steps.
func sessionHorizon(f Family, steps int) int {
	h := steps + stepSlack
	if h > f.MaxSteps {
		h = f.MaxSteps
	}
	if h < steps {
		h = steps
	}
	return h
}

// cdclSession is the built-in backend's incremental session: one solver
// holding the family's budget-independent base formula, probed under
// assumption literals per (S, R) candidate.
type cdclSession struct {
	fam  Family
	opts Options // lowering-relevant creation options

	mu sync.Mutex
	// oneShot marks configurations the session cannot solve incrementally
	// (direct encoding, proof recording) or a closed session; every probe
	// then one-shots through synthesizeCDCL unchanged.
	oneShot bool
	enc     *sessionEncoding
	// qenc is the chunk-orbit quotient base (quotient.go), tried before
	// enc when the creation options allow it: a collapsed window-mode
	// formula whose Sat answers are genuine (the quotient is a
	// restriction) and whose Unsat/cap-exhaustion answers fall through
	// to enc. qmode latches whether the family quotients at all, so
	// families with singleton orbits pay the planner once.
	qenc   *sessionEncoding
	qmode  int
	probes int
	// templates, when set (by the owning SessionPool), shares Stage-0
	// routing templates across every family of the pool — same-(topo, S)
	// families stop re-deriving identical substructure.
	templates *TemplateCache
}

// setTemplateCache hands the session a shared Stage-0 template cache;
// called by the pool before the session is published.
func (s *cdclSession) setTemplateCache(tc *TemplateCache) {
	s.mu.Lock()
	s.templates = tc
	s.mu.Unlock()
}

// sharedTemplate resolves the Stage-0 template for a probe from the
// pool's shared cache; hit reports that it was already derived by an
// earlier encode (this session's or another family's).
func (s *cdclSession) sharedTemplate() (tmpl *Stage0Template, hit bool) {
	s.mu.Lock()
	tc := s.templates
	s.mu.Unlock()
	if tc == nil {
		return nil, false
	}
	return tc.Get(s.fam.Topo)
}

// oneShotSolve discharges a probe through the plain one-shot pipeline,
// sharing the Stage-0 template when a pool cache is attached — lazy
// adoption and canonical witness re-solves stop paying the routing
// derivation for every probe.
func (s *cdclSession) oneShotSolve(ctx context.Context, in Instance, opts Options) (Result, error) {
	tmpl, hit := s.sharedTemplate()
	return synthesizeCDCLTemplate(ctx, in, opts, tmpl, hit)
}

func (s *cdclSession) Family() Family { return s.fam }

func (s *cdclSession) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.oneShot = true
	s.enc = nil
	s.qenc = nil
	return nil
}

// instance materializes the concrete SynColl instance of one probe.
func (s *cdclSession) instance(steps, rounds int) Instance {
	return Instance{Coll: s.fam.Coll, Topo: s.fam.Topo, Steps: steps, Round: rounds}
}

// Prime announces how many probes the caller is about to issue. Lazy
// adoption exists because sweeps probe most families only once or twice;
// a batch that knows it will probe more than sessionAdoptProbes budgets
// skips the one-shot warmup and builds the incremental base on its first
// probe. Idempotent; never un-adopts.
func (s *cdclSession) Prime(expected int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if expected > sessionAdoptProbes && s.probes < sessionAdoptProbes {
		s.probes = sessionAdoptProbes
	}
}

// probe modes returned by the locked portion of a session solve.
const (
	probeModeDone    = iota // the result is final
	probeModeOneShot        // solve the instance one-shot, outside the lock
	probeModeSat            // Sat under assumptions: materialize the witness
)

func (s *cdclSession) Solve(ctx context.Context, steps, rounds int, opts Options) (Result, error) {
	in := s.instance(steps, rounds)
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	res, mode := s.probeLocked(ctx, steps, rounds, opts)
	switch mode {
	case probeModeDone:
		return res, nil
	case probeModeOneShot:
		return s.oneShotSolve(ctx, in, opts)
	}
	// Canonical witness: the session's own model depends on the solving
	// history (carried learnt clauses steer the search), so a Sat budget
	// is re-solved one-shot to keep algorithms deterministic and
	// byte-identical with the non-session path. The incremental win is in
	// the Unsat chain the sweep walks before each frontier point. This
	// solve builds its own solver and runs outside the family lock, so
	// concurrent same-family probes are not serialized behind it.
	// Portfolio escalation is disabled here: the budget is already known
	// Sat, so replicas could never short-circuit (only an Unsat wins a
	// race) and would burn workers against an irreducible witness solve.
	canonOpts := opts
	canonOpts.Portfolio = 0
	canon, err := s.oneShotSolve(ctx, in, canonOpts)
	if err != nil {
		return res, err
	}
	res.Encode += canon.Encode
	res.Solve += canon.Solve
	res.TemplateHits += canon.TemplateHits
	switch canon.Status {
	case sat.Sat:
		res.Algorithm = canon.Algorithm
	case sat.Unknown:
		// The witness solve ran out of budget; report Unknown like the
		// one-shot path would under the same limits.
		res.Status = sat.Unknown
	default:
		return res, fmt.Errorf("synth: internal: session says Sat but one-shot re-solve says %v for C=%d S=%d R=%d",
			canon.Status, s.fam.Coll.C, steps, rounds)
	}
	return res, nil
}

// SolveStatus answers a budget's satisfiability without materializing a
// canonical witness: a Sat answer carries no Algorithm (and skips the
// deterministic one-shot re-solve Solve performs). Unsat answers are
// identical to Solve's, including the budget core. The Pareto scheduler
// uses it for speculative chain-top probes whose Sat answers it discards.
func (s *cdclSession) SolveStatus(ctx context.Context, steps, rounds int, opts Options) (Result, error) {
	in := s.instance(steps, rounds)
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	res, mode := s.probeLocked(ctx, steps, rounds, opts)
	if mode == probeModeOneShot {
		return s.oneShotSolve(ctx, in, opts)
	}
	return res, nil
}

// probeLocked is the part of a solve that touches session state, under
// the family lock: it decides the probe mode and, on the incremental
// path, discharges the budget assumptions against the live solver.
func (s *cdclSession) probeLocked(ctx context.Context, steps, rounds int, opts Options) (Result, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.oneShot || steps > s.fam.MaxSteps || rounds-steps > s.fam.MaxExtraRounds {
		return Result{}, probeModeOneShot
	}
	if s.enc == nil && s.qenc == nil && s.probes < sessionAdoptProbes {
		// Lazy adoption: the first probes of a family solve one-shot, so a
		// family the sweep rarely revisits pays nothing for the session
		// machinery. The base formula is built once the family proves hot.
		s.probes++
		return Result{}, probeModeOneShot
	}
	var res Result
	res.SessionProbe = true
	if done, mode := s.quotientProbeLocked(ctx, steps, rounds, opts, &res); done {
		return res, mode
	}
	// Warm means this probe reuses live solver state; a re-base (probing
	// past the encoded step window) starts cold again.
	res.SessionWarm = s.enc != nil && steps <= s.enc.horizon
	t0 := time.Now()
	if !res.SessionWarm {
		// First incremental probe of the family, or the sweep moved past
		// the encoded step window: (re-)emit the base formula at a fresh
		// horizon, sharing the Stage-0 routing template with every other
		// family of the pool at the same (topo, S).
		h := sessionHorizon(s.fam, steps)
		var tmpl *Stage0Template
		if s.templates != nil {
			var hit bool
			tmpl, hit = s.templates.Get(s.fam.Topo)
			if hit {
				res.TemplateHits++
			}
		}
		old := s.enc
		s.enc = encodeSessionBase(s.fam, s.opts, h, tmpl, false)
		res.SymmetryPerms = s.enc.symPerms
		if old != nil && !old.infeasible && !s.enc.infeasible {
			// A re-base used to drop the old window's learnt clauses;
			// translate the ones that survive the stage variable map (and
			// the entailment vetting) into the rebuilt solver instead.
			res.MigratedLearnts = migrateLearnts(old, s.enc)
		}
	}
	res.CarriedLearnts = s.enc.ctx.Solver.LearntClauses()
	if s.enc.infeasible {
		// A required placement is unreachable within the horizon: the base
		// itself is Unsat, so every budget the probe dominates is too.
		res.Encode += time.Since(t0)
		s.probes++
		res.Status = sat.Unsat
		res.Core = &BudgetCore{Steps: steps, Rounds: rounds, Empty: true}
		return res, probeModeDone
	}
	assumptions, marks, prune := s.enc.assume(steps, rounds)
	res.Encode += time.Since(t0)
	s.probes++
	if prune != nil {
		// Pruning already proves the budget unsatisfiable — same as the
		// one-shot encoder's feasible=false path, without touching the
		// solver — and the refuted assumption group is known exactly.
		res.Status = sat.Unsat
		res.Core = prune
		return res, probeModeDone
	}
	applySolverOpts(s.enc.ctx.Solver, opts)
	res.Vars = s.enc.ctx.Solver.NumVars()
	res.Clauses = s.enc.ctx.Solver.NumClauses()
	t1 := time.Now()
	res.Status = solveSymPhased(ctx, s.enc.ctx, assumptions, s.enc.symGuards, nil,
		restrictedPhaseConflicts(res.Clauses, s.enc.symOrder))
	res.Solve += time.Since(t1)
	res.Stats = s.enc.ctx.Solver.Stats()
	if res.Status != sat.Sat {
		if res.Status == sat.Unsat {
			// Final-conflict analysis plus deletion-based minimization: map
			// the failed assumptions back to their budget groups, upgrading
			// mixed post+round cores to pure ones where a budgeted re-solve
			// shows one group suffices (see classifyCore). The deletion
			// probes are solver work, so their wall time counts as solve
			// time — the benchguard gates must see minimization cost.
			t2 := time.Now()
			res.Core = s.enc.classifyCore(ctx, marks, steps, rounds)
			res.Solve += time.Since(t2)
		}
		return res, probeModeDone
	}
	return res, probeModeSat
}

// Session-level quotient mode, latched once per family: unknown until the
// first quotient base resolves, then on (orbits collapsed) or off (nothing
// to collapse, or a defensive decline).
const (
	qmodeUnknown = iota
	qmodeOn
	qmodeOff
)

// quotientProbeLocked tries to answer a probe from the family's
// chunk-orbit quotient base before the full base is consulted. A Sat
// answer is genuine (the quotient is a restriction of the full formula,
// and Solve re-derives the canonical witness one-shot anyway); a pruning
// Unsat and an infeasible base are genuine too (the pruning facts are
// orbit-invariant, so the quotient prunes exactly when the full base
// does); a quotient Unsat or conflict-cap exhaustion proves nothing and
// falls through to the full base with the attempt's cost and a fallback
// marker on res. Timeouts and cancellation surface as Unknown, like the
// full path under the same limits.
func (s *cdclSession) quotientProbeLocked(ctx context.Context, steps, rounds int, opts Options, res *Result) (bool, int) {
	if s.qmode == qmodeOff || !quotientEligible(s.opts) {
		return false, 0
	}
	warm := s.qenc != nil && steps <= s.qenc.horizon
	t0 := time.Now()
	if !warm {
		h := sessionHorizon(s.fam, steps)
		var tmpl *Stage0Template
		if s.templates != nil {
			var hit bool
			tmpl, hit = s.templates.Get(s.fam.Topo)
			if hit {
				res.TemplateHits++
			}
		}
		// No learnt migration across quotient re-bases: the collapsed
		// formula is cheap to refill, and its lemmas never feed the full
		// base (different variable meaning would make the entailment
		// vetting reject almost everything anyway).
		s.qenc = encodeSessionBase(s.fam, s.opts, h, tmpl, true)
		res.SymmetryPerms = s.qenc.symPerms
		if s.qenc.qplan == nil || s.qenc.qdeclined {
			// Singleton orbits, no stabilizing group, or a defensive
			// mid-emission decline: this family never quotients — stop
			// paying for the attempt.
			s.qmode = qmodeOff
			s.qenc = nil
			res.Encode += time.Since(t0)
			return false, 0
		}
		s.qmode = qmodeOn
	}
	res.SessionWarm = warm
	res.CarriedLearnts = s.qenc.ctx.Solver.LearntClauses()
	if s.qenc.infeasible {
		// Orbit-invariant reachability pruning refuted the base; the full
		// base would conclude the same.
		res.Encode += time.Since(t0)
		s.probes++
		res.Status = sat.Unsat
		res.Core = &BudgetCore{Steps: steps, Rounds: rounds, Empty: true}
		return true, probeModeDone
	}
	assumptions, _, prune := s.qenc.assume(steps, rounds)
	res.Encode += time.Since(t0)
	if prune != nil {
		s.probes++
		res.Status = sat.Unsat
		res.Core = prune
		return true, probeModeDone
	}
	applySolverOpts(s.qenc.ctx.Solver, opts)
	res.Vars = s.qenc.ctx.Solver.NumVars()
	res.Clauses = s.qenc.ctx.Solver.NumClauses()
	budget := restrictedPhaseConflicts(res.Clauses, s.qenc.qplan.order)
	if user, _ := s.qenc.ctx.Solver.Budget(); user > 0 && user < budget {
		budget = user
	}
	t1 := time.Now()
	before := s.qenc.ctx.Solver.Stats().Conflicts
	st := s.qenc.ctx.Solver.SolveWithBudgetContext(ctx, budget, assumptions...)
	res.Solve += time.Since(t1)
	res.Stats = s.qenc.ctx.Solver.Stats()
	switch {
	case st == sat.Sat:
		s.probes++
		res.Status = sat.Sat
		res.QuotientProbes = 1
		return true, probeModeSat
	case st == sat.Unknown && res.Stats.Conflicts-before < budget:
		// A genuine timeout or cancellation, not the quotient's own
		// conflict cap: the full base would hit the same wall.
		s.probes++
		res.Status = sat.Unknown
		return true, probeModeDone
	}
	// Quotient Unsat (an invariant-schedule refutation says nothing about
	// the instance) or cap exhaustion: consult the full base.
	res.QuotientFallbacks = 1
	return false, 0
}

// sessionEncoding is the live layered base formula of one family at one
// step horizon H: time domains span [lo, H+1], bandwidth constraints are
// emitted for steps 1..H with round variables in [1, K+1], and the
// budget-dependent constraints — post arrival within S (C2) and the round
// total (C6) — are *not* asserted. Each probe supplies them as assumption
// literals instead: C2 as the order-encoding literal time <= S per post
// placement, C6 as a two-sided bound on a prefix-sum register over the
// round variables. Sends that would arrive after the probed S are allowed
// by the base and simply ignored (the witness is re-derived one-shot), so
// satisfiability under the assumptions matches the one-shot encoder's
// answer for every (S <= H, R <= S+K) budget.
type sessionEncoding struct {
	ctx     *smt.Context
	spec    *collective.Spec
	horizon int
	times   [][]*smt.IntVar
	snds    [][]sat.Lit
	rs      []*smt.IntVar
	// prefix[s] is a unary register counting sum(r_1..r_s) - s, grown one
	// step at a time via totalizer merges as probes demand it.
	prefix []*pb.Totalizer
	// infeasible marks a base formula unsatisfiable for every budget
	// within the horizon (a required placement is unreachable).
	infeasible bool
	// symPerms counts the node-symmetry generators restricted on in the
	// base; symGuards holds their selector literals (solveSymPhased);
	// symOrder is the group's closure size for the restricted-phase
	// conflict-cap estimator (0 when enumeration overflowed).
	symPerms  int
	symGuards []sat.Lit
	symOrder  int
	// qplan is non-nil when the base was emitted as a chunk-orbit
	// quotient (quotient.go); qdeclined marks a defensive mid-emission
	// decline, making the base unusable for answers.
	qplan     *quotientPlan
	qdeclined bool
}

// encodeSessionBase emits the family's budget-independent constraints
// through the staged emitter in window mode: Stage 0 (shared routing
// template) + Stage 1 at the horizon, with Stage 2 (C2/C6) left to
// assume(). It is the same walker and CDCL sink as the one-shot
// encodePaper — the historical hand-mirrored fork is gone — differing
// only in the EncodePlan: wider time/round domains and no flattened
// budget. The minimality refinements at the horizon are weaker than the
// one-shot encoder's S-specific forms but remain
// satisfiability-preserving for every probed S: a minimal S-budget
// algorithm maps into the base by sending nothing after S and placing
// never-arriving chunks at horizon+1.
func encodeSessionBase(fam Family, opts Options, horizon int, tmpl *Stage0Template, quotient bool) *sessionEncoding {
	enc := NewStagedEncoder(EncodePlan{
		Coll:            fam.Coll,
		Topo:            fam.Topo,
		Window:          horizon,
		RoundHi:         fam.MaxExtraRounds + 1,
		NoSymmetryBreak: opts.NoSymmetryBreak,
		NoNodeSymmetry:  opts.NoSymmetryBreaking,
		Quotient:        quotient && quotientEligible(opts),
		Template:        tmpl,
	})
	ctx := smt.NewContext()
	sink := newCDCLStageSink(enc, ctx)
	ok := enc.Emit(sink)
	out := &sessionEncoding{
		ctx:        ctx,
		spec:       fam.Coll,
		horizon:    horizon,
		times:      sink.times,
		snds:       sink.snds,
		rs:         sink.rs,
		infeasible: !ok,
		symPerms:   sink.symPerms,
		symGuards:  sink.symGuards,
		qplan:      sink.qplan,
		qdeclined:  sink.qdeclined,
	}
	if sink.symPlan != nil {
		out.symOrder = sink.symPlan.order
	}
	return out
}

// Learnt-clause migration across re-bases. A session probing past its
// step window rebuilds the solver at a wider horizon; the clauses the
// old solver learned used to be dropped wholesale. Stage-0/1 variables
// carry over between the bases with identical meaning — time order
// literals by (chunk, node, threshold), send Booleans by (chunk, edge),
// round order literals by (step, threshold) — so a learnt clause over
// only those variables can be translated literal for literal.
//
// Translation alone is not sufficient for soundness: the old base also
// contains window-bound constraints (arrival within the old horizon,
// the m1/m3 refinements at the old horizon, "never arrives" pinned at
// oldH+1) that are *not* implied by the wider base, and learnt clauses
// may silently depend on them (conflict analysis drops level-0 context).
// Each candidate is therefore vetted by a failed-literal entailment
// check against the new base (sat.Solver.Entailed) and imported only
// when the new formula already entails it under unit propagation — the
// import then never changes satisfiability, it only materializes lemmas
// the new solver would otherwise have to re-derive.
const (
	// migrateLearntMax bounds how many learnt clauses one re-base tries
	// to carry over; each attempt costs a unit-propagation pass.
	migrateLearntMax = 1024
	// migrateLearntWidth skips long clauses: wide lemmas are weak and
	// rarely survive the entailment vetting.
	migrateLearntWidth = 32
)

// stageVarMap builds the old-to-new literal translation over the
// carried Stage-0/1 variables. Auxiliary variables (AndLit
// reifications, totalizer internals, Stage-2 prefix registers) are
// deliberately absent: clauses mentioning them are dropped.
func stageVarMap(old, fresh *sessionEncoding) map[sat.Var]sat.Lit {
	m := map[sat.Var]sat.Lit{}
	addInt := func(ov, nv *smt.IntVar) {
		if ov == nil || nv == nil {
			return
		}
		for i, ol := range ov.GeLits() {
			t := ov.Lo + 1 + i
			if nl, ok := nv.GeLit(t); ok {
				m[ol.Var()] = nl
			}
		}
	}
	for c := range old.times {
		for n := range old.times[c] {
			addInt(old.times[c][n], fresh.times[c][n])
		}
	}
	for c := range old.snds {
		for ei, ol := range old.snds[c] {
			if ol != 0 && fresh.snds[c][ei] != 0 {
				m[ol.Var()] = fresh.snds[c][ei]
			}
		}
	}
	for s := range old.rs {
		if s < len(fresh.rs) {
			addInt(old.rs[s], fresh.rs[s])
		}
	}
	return m
}

// migrateLearnts translates the old base's learnt clauses into the
// rebuilt solver, returning how many were imported.
func migrateLearnts(old, fresh *sessionEncoding) int {
	vm := stageVarMap(old, fresh)
	migrated, tried := 0, 0
	buf := make([]sat.Lit, 0, migrateLearntWidth)
	for _, cl := range old.ctx.Solver.LearntClauseLits() {
		if len(cl) > migrateLearntWidth {
			continue
		}
		if tried >= migrateLearntMax {
			break
		}
		buf = buf[:0]
		mapped := true
		for _, l := range cl {
			nl, ok := vm[l.Var()]
			if !ok {
				mapped = false
				break
			}
			if l.Sign() {
				nl = nl.Neg()
			}
			buf = append(buf, nl)
		}
		if !mapped {
			continue
		}
		tried++
		if !fresh.ctx.Solver.Entailed(buf...) {
			continue
		}
		imported, ok := fresh.ctx.Solver.AddLearnt(buf...)
		if imported {
			migrated++
		}
		if !ok {
			break
		}
	}
	return migrated
}

// assume builds the assumption literals encoding the (S, R) budget over
// the base formula: time(c,n) <= S for every post placement (C2) and
// sum(r_1..r_S) = R (C6) via a two-sided bound on the prefix-sum
// register. marks records each literal's budget group for the
// final-conflict classification. A non-nil prune reports a budget that
// pruning already refutes, classified like a solver core so the sweep
// can skip the budgets it dominates.
func (e *sessionEncoding) assume(steps, rounds int) (lits []sat.Lit, marks assumpMarks, prune *BudgetCore) {
	marks.post = map[sat.Lit]bool{}
	// C2: post placements arrive within S. On a quotient base only the
	// orbit representatives are assumed: a non-representative's post
	// placements alias its representative's (the group stabilizes Post),
	// so their literals are duplicates of ones already in the list.
	for c := range e.times {
		if e.qplan != nil && e.qplan.rep[c] != c {
			continue
		}
		for n, tv := range e.times[c] {
			if tv == nil || tv.Lo == tv.Hi {
				continue
			}
			if !e.post(c, n) {
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
	capacity := len(reg.Outputs)
	if target > capacity {
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

// post reports whether (c, n) is a non-pre post placement. Sessions never
// exist for combining collectives, so Pre/Post index directly.
func (e *sessionEncoding) post(c, n int) bool {
	fam := e.coll()
	return fam.Post[c][n] && !fam.Pre[c][n]
}

// coll recovers the collective the times matrix was built from; kept on
// the encoding to avoid threading the family through every helper.
func (e *sessionEncoding) coll() *collective.Spec { return e.spec }

// prefixRegister returns the unary register counting
// sum(r_1..r_steps) - steps, growing the chain of totalizer merges as
// needed. Registers are built once per step count and shared by every
// later probe; their clauses are budget-independent.
func (e *sessionEncoding) prefixRegister(steps int) *pb.Totalizer {
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

// SessionPool caches live solver sessions keyed by family (and the
// lowering-relevant solver options), evicting least-recently-used
// sessions beyond its capacity. An Engine owns one pool so sessions — and
// the clauses they have learned — survive across Pareto sweeps; a sweep
// without an engine uses a transient pool. Pools are safe for concurrent
// use; the sessions themselves serialize concurrent probes internally.
type SessionPool struct {
	backend SessionBackend
	cap     int
	// templates shares Stage-0 routing templates across every session of
	// the pool: families with the same (topology, step horizon) reuse one
	// derivation instead of each re-deriving identical substructure.
	templates *TemplateCache

	mu       sync.Mutex
	closed   bool
	sessions map[string]Session
	order    []string // LRU order, oldest first
	hits     uint64
	misses   uint64
	// megas caches per-topology mega-base sessions (mega.go), keyed by
	// topology, root and lowering options. Small and separate from the
	// family map: one mega session replaces many family sessions.
	megas     map[string]*MegaSession
	megaOrder []string // LRU order, oldest first
}

// templateCached is implemented by sessions that can share a pool-level
// Stage-0 template cache (the CDCL session does; the SMT-LIB session has
// no CDCL encode and does not).
type templateCached interface {
	setTemplateCache(*TemplateCache)
}

// defaultSessionPoolCap bounds how many per-family solvers a pool keeps
// live; each holds a full base formula, so the cap trades memory for
// cross-sweep clause reuse.
const defaultSessionPoolCap = 32

// NewSessionPool builds an empty pool.
func NewSessionPool() *SessionPool {
	return &SessionPool{
		backend:   cdclBackend{},
		cap:       defaultSessionPoolCap,
		templates: NewTemplateCache(),
		sessions:  map[string]Session{},
	}
}

// Templates exposes the pool's shared Stage-0 template cache, so sweep
// setup (lower-bound computation) can reuse the cached BFS distance
// matrix instead of re-walking the topology per sweep.
func (p *SessionPool) Templates() *TemplateCache {
	if p == nil {
		return nil
	}
	return p.templates
}

// Session returns the pooled session for the family, creating (and, past
// capacity, evicting) as needed.
func (p *SessionPool) Session(f Family, opts Options) (Session, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return p.sessionForKey(f, opts, f.key(opts))
}

// sessionForKey is Session with the pool key precomputed and validation
// skipped — the sweep's per-probe path, where the caller also wants the
// key for its reuse counters. Creation still validates inside the
// backend's NewSession.
func (p *SessionPool) sessionForKey(f Family, opts Options, key string) (Session, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("synth: session pool closed")
	}
	if s, ok := p.sessions[key]; ok {
		p.hits++
		p.touch(key)
		p.mu.Unlock()
		return s, nil
	}
	p.misses++
	p.mu.Unlock()
	// Build outside the lock: base encoding can be expensive. A racing
	// probe of the same family may build a duplicate; the loser is closed.
	s, err := p.backend.NewSession(f, opts)
	if err != nil {
		return nil, err
	}
	if tc, ok := s.(templateCached); ok {
		tc.setTemplateCache(p.templates)
	}
	var evicted []Session
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		s.Close()
		return nil, fmt.Errorf("synth: session pool closed")
	}
	if have, ok := p.sessions[key]; ok {
		p.touch(key)
		p.mu.Unlock()
		s.Close()
		return have, nil
	}
	p.sessions[key] = s
	p.order = append(p.order, key)
	for len(p.sessions) > p.cap {
		oldest := p.order[0]
		p.order = p.order[1:]
		evicted = append(evicted, p.sessions[oldest])
		delete(p.sessions, oldest)
	}
	p.mu.Unlock()
	for _, e := range evicted {
		e.Close() // closed sessions degrade to one-shot for any holder
	}
	return s, nil
}

// megaKey is the pool identity of a per-topology mega session under
// lowering-relevant options.
func megaKey(topo *topology.Topology, root topology.Node, opts Options) string {
	return topo.Fingerprint() + "|r" + strconv.Itoa(int(root)) +
		"|e" + strconv.Itoa(int(opts.Encoding)) +
		"|y" + strconv.FormatBool(!opts.NoSymmetryBreak) +
		"|n" + strconv.FormatBool(!opts.NoSymmetryBreaking) +
		"|p" + strconv.FormatBool(opts.ProveUnsat)
}

// Mega returns the pool's mega-base session for the topology if one
// exists and covers a sweep over kinds (nil = every non-combining kind)
// bounded by (needChunks, needSteps, needK). With create set, a missing
// or under-sized session is (re)built sized to the union of the old and
// requested bounds and kind scopes; without it the call is a warm lookup
// only. Returns nil when the backend or configuration cannot host a mega
// base, or when the chunk universe would be too large to pay off —
// callers fall back to per-family sessions.
func (p *SessionPool) Mega(topo *topology.Topology, root topology.Node, opts Options, kinds []collective.Kind, needChunks, needSteps, needK int, create bool) *MegaSession {
	if topo == nil || needChunks < 1 || needSteps < 1 || needK < 0 {
		return nil
	}
	if !isCDCL(opts.Backend) || opts.Encoding != EncodingPaper || opts.ProveUnsat {
		// Projection needs the built-in solver's assumption plumbing over
		// the layered paper encoding.
		return nil
	}
	key := megaKey(topo, root, opts)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	if m, ok := p.megas[key]; ok {
		if m.Covers(kinds, needChunks, needSteps, needK) {
			p.megaTouch(key)
			p.mu.Unlock()
			return m
		}
		if !create {
			p.mu.Unlock()
			return nil
		}
		// Replace with a session covering both the old and new bounds and
		// kind scopes so existing warm users stay mapped after their next
		// lookup.
		if m.maxChunks > needChunks {
			needChunks = m.maxChunks
		}
		if m.horizon > needSteps {
			needSteps = m.horizon
		}
		if m.k > needK {
			needK = m.k
		}
		kinds = mergeMegaKinds(m.kinds, kinds)
	} else if !create {
		p.mu.Unlock()
		return nil
	}
	p.mu.Unlock()
	// Build outside the lock; a racing creator may win — the loser closes.
	m := NewMegaSession(topo, root, opts, kinds, needChunks, needSteps, needK)
	if m == nil {
		return nil
	}
	m.setTemplateCache(p.templates)
	var evicted []*MegaSession
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		m.Close()
		return nil
	}
	if have, ok := p.megas[key]; ok && have.Covers(kinds, needChunks, needSteps, needK) {
		p.megaTouch(key)
		p.mu.Unlock()
		m.Close()
		return have
	}
	if have, ok := p.megas[key]; ok {
		evicted = append(evicted, have)
	} else {
		if p.megas == nil {
			p.megas = map[string]*MegaSession{}
		}
		p.megaOrder = append(p.megaOrder, key)
	}
	p.megas[key] = m
	p.megaTouch(key)
	for len(p.megas) > megaPoolCap {
		oldest := p.megaOrder[0]
		p.megaOrder = p.megaOrder[1:]
		evicted = append(evicted, p.megas[oldest])
		delete(p.megas, oldest)
	}
	p.mu.Unlock()
	for _, e := range evicted {
		e.Close() // closed mega sessions degrade to one-shot for any view
	}
	return m
}

// megaTouch moves key to the most-recently-used end; caller holds p.mu.
func (p *SessionPool) megaTouch(key string) {
	for i, k := range p.megaOrder {
		if k == key {
			p.megaOrder = append(append(p.megaOrder[:i:i], p.megaOrder[i+1:]...), key)
			return
		}
	}
}

// MegaLen returns the number of live mega-base sessions.
func (p *SessionPool) MegaLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.megas)
}

// touch moves key to the most-recently-used end; caller holds p.mu.
func (p *SessionPool) touch(key string) {
	for i, k := range p.order {
		if k == key {
			p.order = append(append(p.order[:i:i], p.order[i+1:]...), key)
			return
		}
	}
}

// Cap returns the pool's session capacity.
func (p *SessionPool) Cap() int { return p.cap }

// Len returns the number of live sessions.
func (p *SessionPool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.sessions)
}

// Stats returns the pool's hit/miss counters.
func (p *SessionPool) Stats() (hits, misses uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses
}

// Close releases every pooled session. The pool rejects further use.
func (p *SessionPool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	sessions := p.sessions
	p.sessions = map[string]Session{}
	p.order = nil
	megas := p.megas
	p.megas = nil
	p.megaOrder = nil
	p.mu.Unlock()
	var first error
	for _, s := range sessions {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, m := range megas {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

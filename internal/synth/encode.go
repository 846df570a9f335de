// Package synth implements the SCCL synthesis engine: it encodes a
// SynColl instance (paper §3.2) into constraints C1–C6 (§3.4), discharges
// them to the CDCL solver in internal/sat through the order-encoding layer
// in internal/smt, and extracts the algorithm (Q, T) from a model. The
// Pareto-Synthesize procedure (Algorithm 1) and the dual/inversion routes
// for combining collectives (§3.5) build on that core.
package synth

import (
	"context"
	"fmt"
	"time"

	"repro/internal/algorithm"
	"repro/internal/collective"
	"repro/internal/sat"
	"repro/internal/smt"
	"repro/internal/topology"
)

// Instance is a SynColl instance: the collective's (G, pre, post) plus the
// (S, R) budget and the topology (P, B).
type Instance struct {
	Coll  *collective.Spec
	Topo  *topology.Topology
	Steps int
	Round int
}

// Encoding selects the constraint encoding strategy.
type Encoding int

const (
	// EncodingPaper is the paper's scalable encoding (§3.4): integer
	// time(c,n) variables plus Boolean snd(n,c,n') variables.
	EncodingPaper Encoding = iota
	// EncodingDirect is the naive per-(c,n,n',s) Boolean encoding the
	// paper reports as over 30x slower; kept for the ablation benchmarks.
	EncodingDirect
)

// Options tunes a synthesis call.
type Options struct {
	Encoding     Encoding
	MaxConflicts int64
	Timeout      time.Duration
	// ProveUnsat enables solver proof recording: on an Unsat answer the
	// Result carries a checkable RUP refutation (Result.Proof), turning
	// the procedure's optimality claims into verifiable certificates.
	ProveUnsat bool
	// NoSymmetryBreak disables chunk-symmetry breaking. Chunks with
	// identical pre and post rows are interchangeable, so the encoder
	// normally orders their arrival times at a witness node — this is
	// satisfiability-preserving (any solution can be permuted into the
	// canonical form) and prunes factorially many symmetric assignments.
	NoSymmetryBreak bool
	// NoSymmetryBreaking disables node-orbit symmetry exploitation: the
	// guarded automorphism-equivariance restriction emitted over the
	// topology's automorphism generators (see nodesym.go). Distinct from
	// NoSymmetryBreak, which governs the chunk-level ordering chains;
	// node-orbit exploitation additionally stays off below
	// symmetryMinNodes nodes, where it cannot pay off.
	NoSymmetryBreaking bool
	// NoQuotient disables the chunk-orbit quotient encoding (see
	// quotient.go): with it off, eligible solves first try a collapsed
	// formula carrying variables only for chunk-orbit representatives,
	// falling back to the full formula whenever the quotient does not
	// answer Sat. Quotienting never changes answers or frontier (C, S,
	// R) costs — only witnesses and wall clock — but it IS part of the
	// engine cache fingerprints, because witnesses may differ.
	NoQuotient bool
}

// Result carries a synthesis outcome: the algorithm if Status == sat.Sat,
// plus what the probe cost and which path answered it.
type Result struct {
	Status    sat.Status
	Algorithm *algorithm.Algorithm
	ProbeStats
	Encode time.Duration
	Solve  time.Duration
	// Proof is the recorded refutation when Options.ProveUnsat was set
	// and the answer is Unsat (nil for pruning-detected infeasibility,
	// where the certificate is the unreachable requirement itself).
	Proof *sat.Proof
	// Core, on an Unsat session probe, classifies the final conflict by
	// the budget-assumption groups it involved (nil when the probe was
	// solved one-shot or the analysis produced no usable core). The Pareto
	// scheduler uses it to skip dominated budgets without solving them.
	Core *BudgetCore
}

// Validate checks instance coherence.
func (in Instance) Validate() error {
	if in.Coll == nil || in.Topo == nil {
		return fmt.Errorf("synth: instance missing collective or topology")
	}
	if in.Coll.Kind.IsCombining() {
		return fmt.Errorf("synth: %v is combining; synthesize its dual (see SynthesizeCollective)", in.Coll.Kind)
	}
	if in.Coll.P != in.Topo.P {
		return fmt.Errorf("synth: collective P=%d but topology P=%d", in.Coll.P, in.Topo.P)
	}
	if in.Steps < 1 {
		return fmt.Errorf("synth: need at least 1 step")
	}
	if in.Round < in.Steps {
		return fmt.Errorf("synth: R=%d < S=%d (each step has >= 1 round)", in.Round, in.Steps)
	}
	return in.Topo.Validate()
}

// encoded holds the variable maps produced by the paper encoding.
type encoded struct {
	ctx *smt.Context
	// time[c][n]; nil where the chunk can never reach n within budget and
	// is not required (the variable is omitted).
	times [][]*smt.IntVar
	// snd[c][edgeIndex]: 0 means the variable was pruned away.
	snds  [][]sat.Lit
	edges []topology.Link
	rs    []*smt.IntVar
	proof *sat.Proof
	// feasible is false when pruning proved the instance UNSAT outright.
	feasible bool
	// symPerms counts the node-symmetry generators the emission
	// restricted on; symGuards holds their selector literals, assumed
	// through solveSymPhased. symOrder is the symmetry group's closure
	// size (0 = too large to enumerate), feeding the restricted-phase
	// conflict-cap estimator.
	symPerms  int
	symGuards []sat.Lit
	symOrder  int
	// qplan/qdeclined carry the sink's quotient state (see quotient.go):
	// qplan non-nil means the formula is a chunk-orbit quotient and the
	// solve must follow the quotient contract; qdeclined means the
	// emission hit a defensive mismatch and must be rebuilt full.
	qplan     *quotientPlan
	qdeclined bool
}

// encodePaper builds the paper's encoding (§3.4) through the staged
// emitter: Stage 0 (routing template) + Stage 1 (base constraints) +
// Stage 2 flattened (C2 via post-arrival domains, C6 asserted). See
// StagedEncoder for the stage walk and cdclStageSink for the lowering;
// the emission is clause-for-clause the historical one-shot encoder
// (pinned by TestStagedEncoderGoldens).
//
// Pruning beyond the paper's description (correctness-preserving):
//   - time(c,n) lower bounds are BFS distances from the chunk's sources;
//   - a node that cannot hold chunk c before step S never gets send
//     variables for c;
//   - if a required (c,n) cannot be reached within S steps the instance is
//     immediately unsatisfiable.
func encodePaper(in Instance, opts Options) *encoded {
	return encodePaperTemplate(in, opts, nil)
}

// encodePaperTemplate is encodePaper with an optional shared Stage-0
// template (pooled probes pass their topology's; nil derives a private one).
func encodePaperTemplate(in Instance, opts Options, tmpl *Stage0Template) *encoded {
	enc := NewStagedEncoder(EncodePlan{
		Coll:            in.Coll,
		Topo:            in.Topo,
		Window:          in.Steps,
		RoundHi:         in.Round - in.Steps + 1,
		Budget:          &BudgetSpec{Steps: in.Steps, Rounds: in.Round},
		NoSymmetryBreak: opts.NoSymmetryBreak,
		// Proof-recording solves want a plain refutation of the emitted
		// formula; the equivariance restriction answers through phased
		// assumptions, so it stays off under ProveUnsat.
		NoNodeSymmetry: opts.NoSymmetryBreaking || opts.ProveUnsat,
		Quotient:       quotientEligible(opts),
		Template:       tmpl,
	})
	ctx := smt.NewContext()
	e := &encoded{ctx: ctx, edges: enc.Template.Edges}
	if opts.ProveUnsat {
		e.proof = ctx.Solver.StartProof()
	}
	sink := newCDCLStageSink(enc, ctx)
	e.feasible = enc.Emit(sink)
	e.times, e.snds, e.rs = sink.times, sink.snds, sink.rs
	e.symPerms = sink.symPerms
	e.symGuards = sink.symGuards
	e.qplan, e.qdeclined = sink.qplan, sink.qdeclined
	if sink.symPlan != nil {
		e.symOrder = sink.symPlan.order
	}
	return e
}

// symmetricChunkGroups partitions chunks into groups with identical pre
// and post rows; only groups of size >= 2 are returned, each sorted by
// chunk id.
func symmetricChunkGroups(coll *collective.Spec) [][]int {
	bySig := map[string][]int{}
	var order []string
	for c := 0; c < coll.G; c++ {
		s := chunkSig(coll, c)
		if len(bySig[s]) == 0 {
			order = append(order, s)
		}
		bySig[s] = append(bySig[s], c)
	}
	var out [][]int
	for _, s := range order {
		if g := bySig[s]; len(g) >= 2 {
			out = append(out, g)
		}
	}
	return out
}

// witnessNode picks the node at which symmetric chunks' arrival times are
// ordered: the first post node that is not a pre node.
func witnessNode(coll *collective.Spec, c int) int {
	for n := 0; n < coll.P; n++ {
		if coll.Post[c][n] && !coll.Pre[c][n] {
			return n
		}
	}
	return -1
}

// distancesToSet returns, for every node, the hop distance to the nearest
// post node of chunk c (BFS over reversed edges); -1 if none reachable.
func distancesToSet(t *topology.Topology, post collective.Rel, c int) []int {
	dist := make([]int, t.P)
	for i := range dist {
		dist[i] = -1
	}
	radj := make([][]topology.Node, t.P)
	for _, l := range t.Edges() {
		radj[l.Dst] = append(radj[l.Dst], l.Src)
	}
	var queue []topology.Node
	for n := 0; n < t.P; n++ {
		if post[c][n] {
			dist[n] = 0
			queue = append(queue, topology.Node(n))
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, m := range radj[n] {
			if dist[m] == -1 {
				dist[m] = dist[n] + 1
				queue = append(queue, m)
			}
		}
	}
	return dist
}

// multiSourceDistances runs BFS from a set of sources.
func multiSourceDistances(t *topology.Topology, srcs []topology.Node) []int {
	dist := make([]int, t.P)
	for i := range dist {
		dist[i] = -1
	}
	adj := make([][]topology.Node, t.P)
	for _, l := range t.Edges() {
		adj[l.Src] = append(adj[l.Src], l.Dst)
	}
	queue := make([]topology.Node, 0, len(srcs))
	for _, s := range srcs {
		dist[s] = 0
		queue = append(queue, s)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, m := range adj[n] {
			if dist[m] == -1 {
				dist[m] = dist[n] + 1
				queue = append(queue, m)
			}
		}
	}
	return dist
}

func atMostOne(ctx *smt.Context, lits []sat.Lit) {
	for i := 0; i < len(lits); i++ {
		for j := i + 1; j < len(lits); j++ {
			ctx.AddClause(lits[i].Neg(), lits[j].Neg())
		}
	}
}

// extract reads the model into an Algorithm.
func (e *encoded) extract(in Instance, name string) *algorithm.Algorithm {
	rounds := make([]int, in.Steps)
	for s := range rounds {
		rounds[s] = e.ctx.Value(e.rs[s])
	}
	var sends []algorithm.Send
	for c := 0; c < in.Coll.G; c++ {
		for ei, l := range e.edges {
			snd := e.snds[c][ei]
			if snd == 0 || !e.ctx.ValueLit(snd) {
				continue
			}
			t := e.ctx.Value(e.times[c][int(l.Dst)])
			if t >= 1 && t <= in.Steps {
				sends = append(sends, algorithm.Send{
					Chunk: c, From: l.Src, To: l.Dst, Step: t - 1,
				})
			}
		}
	}
	return algorithm.New(name, in.Coll, in.Topo, rounds, sends)
}

// Synthesize solves one SynColl instance, returning the synthesized
// algorithm on Sat. The returned algorithm is always Validate()d before
// being returned; an invalid extraction is reported as an error.
func Synthesize(in Instance, opts Options) (Result, error) {
	return SynthesizeContext(context.Background(), in, opts)
}

// SynthesizeContext is Synthesize with cooperative cancellation: the
// context is threaded down to the solver's restart/conflict boundaries
// and a cancelled solve reports Unknown.
func SynthesizeContext(ctx context.Context, in Instance, opts Options) (Result, error) {
	if ctx.Err() != nil {
		// Bail before paying the encode cost: a cancelled probe should
		// release its worker promptly, not build the formula first.
		return Result{Status: sat.Unknown}, nil
	}
	return synthesizeCDCL(ctx, in, opts)
}

// solveOneShot is SynthesizeContext for callers that hold a Stage-0
// template cache (the sweep's pool or a mega-base view): the encode
// shares the topology's routing template instead of re-deriving it per
// probe. A nil cache is plain SynthesizeContext.
func solveOneShot(ctx context.Context, in Instance, opts Options, tc *TemplateCache) (Result, error) {
	if tc == nil || ctx.Err() != nil {
		return SynthesizeContext(ctx, in, opts)
	}
	tmpl, hit := tc.Get(in.Topo)
	return synthesizeCDCLTemplate(ctx, in, opts, tmpl, hit)
}

// synthesizeCDCL is the built-in pipeline: encode (paper or direct
// encoding) into the internal CDCL solver and extract the model.
func synthesizeCDCL(ctx context.Context, in Instance, opts Options) (Result, error) {
	return synthesizeCDCLTemplate(ctx, in, opts, nil, false)
}

// synthesizeCDCLTemplate is synthesizeCDCL with an optional shared
// Stage-0 template; templateHit marks a template that was served from a
// cache (reported through Result.TemplateHits) rather than derived for
// this call.
func synthesizeCDCLTemplate(ctx context.Context, in Instance, opts Options, tmpl *Stage0Template, templateHit bool) (Result, error) {
	var res Result
	if err := in.Validate(); err != nil {
		return res, err
	}
	if opts.Encoding == EncodingDirect {
		return synthesizeDirect(ctx, in, opts)
	}
	t0 := time.Now()
	e := encodePaperTemplate(in, opts, tmpl)
	res.Encode = time.Since(t0)
	res.SymmetryPerms = e.symPerms
	if tmpl != nil && templateHit {
		res.TemplateHits = 1
	}
	if e.qplan != nil && e.qdeclined {
		// The quotient emission hit a defensive structural mismatch: the
		// formula is not a sound quotient, so rebuild full. (Never
		// observed for true automorphisms; this path exists so a planner
		// bug can only cost wall clock, not correctness.)
		full := opts
		full.NoQuotient = true
		fres, err := synthesizeCDCLTemplate(ctx, in, full, tmpl, templateHit)
		fres.Encode += res.Encode
		fres.QuotientFallbacks = 1
		return fres, err
	}
	if !e.feasible {
		res.Status = sat.Unsat
		return res, nil
	}
	applySolverOpts(e.ctx.Solver, opts)
	res.Vars = e.ctx.Solver.NumVars()
	res.Clauses = e.ctx.Solver.NumClauses()
	t1 := time.Now()
	if e.qplan != nil {
		// Chunk-orbit quotient attempt: a conflict-capped plain solve of
		// the collapsed formula. Sat lifts through the aliases (extract
		// reads the full chunk range) and is re-validated like any other
		// witness before being reported; Unsat or cap exhaustion proves
		// nothing about the instance — the quotient is a restriction — so
		// the solve falls back to the full formula on a fresh encoding.
		// Unknown for any other reason (timeout, cancellation) propagates.
		budget := restrictedPhaseConflicts(res.Clauses, e.qplan.order)
		if user, _ := e.ctx.Solver.Budget(); user > 0 && user < budget {
			budget = user
		}
		before := e.ctx.Solver.Stats().Conflicts
		res.Status = e.ctx.Solver.SolveWithBudgetContext(ctx, budget)
		res.Solve = time.Since(t1)
		res.Stats = e.ctx.Solver.Stats()
		if res.Status == sat.Sat {
			name := fmt.Sprintf("sccl-%s-c%d-s%d-r%d", in.Coll.Kind, in.Coll.C, in.Steps, in.Round)
			alg := e.extract(in, name)
			if err := alg.Validate(); err == nil {
				res.QuotientProbes = 1
				res.Algorithm = alg
				return res, nil
			}
			// A lift that fails validation is never reported: fall back.
		} else if res.Status == sat.Unknown && res.Stats.Conflicts-before < budget {
			return res, nil
		}
		full := opts
		full.NoQuotient = true
		fres, err := synthesizeCDCLTemplate(ctx, in, full, tmpl, templateHit)
		// The quotient attempt's time and search are this answer's cost.
		fres.Encode += res.Encode
		fres.Solve += res.Solve
		fres.Add(ProbeStats{Stats: res.Stats})
		fres.QuotientFallbacks = 1
		return fres, err
	}
	if len(e.symGuards) > 0 {
		// Node-symmetry restriction: phased assumption solve.
		res.Status = solveSymPhased(ctx, e.ctx, nil, e.symGuards, nil,
			restrictedPhaseConflicts(res.Clauses, e.symOrder))
	} else {
		res.Status = e.ctx.SolveContext(ctx)
	}
	res.Solve = time.Since(t1)
	res.Stats = e.ctx.Solver.Stats()
	if res.Status != sat.Sat {
		if res.Status == sat.Unsat {
			res.Proof = e.proof
		}
		return res, nil
	}
	name := fmt.Sprintf("sccl-%s-c%d-s%d-r%d", in.Coll.Kind, in.Coll.C, in.Steps, in.Round)
	alg := e.extract(in, name)
	if err := alg.Validate(); err != nil {
		return res, fmt.Errorf("synth: extracted algorithm failed validation: %w", err)
	}
	res.Algorithm = alg
	return res, nil
}

func applySolverOpts(s *sat.Solver, opts Options) {
	s.SetBudget(opts.MaxConflicts, opts.Timeout)
}

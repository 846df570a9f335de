package synth

import (
	"context"
	"fmt"
	"math/big"
	"sort"
	"sync"
	"time"

	"repro/internal/algorithm"
	"repro/internal/collective"
	"repro/internal/sat"
	"repro/internal/topology"
)

// ParetoOptions tunes the Pareto-Synthesize procedure (paper Algorithm 1).
type ParetoOptions struct {
	// K bounds the algorithm class: R <= S + K (k-synchronous, §3.1).
	K int
	// MaxSteps caps the S enumeration; Algorithm 1 can otherwise run
	// forever on topologies with unbounded Pareto frontiers.
	MaxSteps int
	// MaxChunks caps the per-node chunk count C considered.
	MaxChunks int
	// Per-instance solving options.
	Instance Options
	// Progress, if non-nil, receives a line per probe. Calls are routed
	// through a mutex-guarded sink, so the callback never runs
	// concurrently with itself even when Workers > 1.
	Progress func(format string, args ...any)
	// Workers is the number of concurrent synthesis probes; values <= 1
	// select a single worker. The per-S candidate probes are speculated
	// out of order across the pool and merged deterministically in
	// (S, bandwidth-cost) rank, so the returned frontier is identical for
	// every worker count.
	Workers int
	// Context, if non-nil, cancels the whole sweep early; in-flight
	// probes are aborted at the solver's next restart/conflict boundary.
	Context context.Context
	// Stats, if non-nil, receives scheduler counters for speedup
	// reporting once the sweep finishes.
	Stats *ParetoStats
	// NoSessions keeps every probe on the one-shot path: no mega-base is
	// looked up or adopted, no Stage-0 template is shared and no unsat
	// core prunes a candidate. It is the reference path; the default path
	// (see megaAdoptUnsats) returns byte-identical frontiers because Sat
	// witnesses are re-derived canonically (see MegaFamilyView.Solve).
	NoSessions bool
	// Pool, if non-nil, supplies (and keeps) the mega-base sessions and
	// Stage-0 templates the sweep uses — an Engine passes its persistent
	// pool so a base adopted by one sweep serves the next from its first
	// probe. Nil with sessions enabled uses a transient pool closed when
	// the sweep returns.
	Pool *SessionPool
}

// ParetoStats reports what the probe scheduler did during one sweep.
type ParetoStats struct {
	// Probes counts candidate probes that ran to completion.
	Probes int
	// Pruned counts speculative probes cancelled after a cheaper
	// candidate for the same step count returned Sat, or after the sweep
	// finished.
	Pruned int
	// ProbeTime is the summed per-probe wall clock — the sequential cost
	// of the work performed.
	ProbeTime time.Duration
	// EncodeTime and SolveTime split the completed probes' work into
	// formula construction and solver search; their sum can undercut
	// ProbeTime (which also covers extraction and validation).
	EncodeTime time.Duration
	SolveTime  time.Duration
	// Wall is the end-to-end sweep wall clock.
	Wall time.Duration
	// Families counts the distinct (collective, chunking) families the
	// sweep projected out of a mega-base; 0 when it stayed one-shot.
	Families int
	// Deprecated: always 0. Learnt migration went with the per-family
	// sessions whose re-bases it served; the field stays until the next
	// revision of bench/, which reads it.
	MigratedLearnts int64
	// ProbeStats sums the completed probes' records, plus the solver work
	// of discarded chain-top probes and the scheduler's own CoreSolves and
	// PrunedProbes.
	ProbeStats
}

// Speedup returns the aggregate parallel speedup: summed probe time over
// sweep wall clock (0 when the sweep did not run).
func (s ParetoStats) Speedup() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return s.ProbeTime.Seconds() / s.Wall.Seconds()
}

// ParetoPoint is one synthesized Pareto-frontier member. The JSON tags
// define the stable v1 wire format used by the facade's frontier
// serialization; the embedded algorithm re-validates on decode.
type ParetoPoint struct {
	Algorithm *algorithm.Algorithm `json:"algorithm"`
	C         int                  `json:"c"`
	S         int                  `json:"s"`
	R         int                  `json:"r"`
	// LatencyOptimal: S equals the latency lower bound.
	LatencyOptimal bool `json:"latencyOptimal"`
	// BandwidthOptimal: R/C equals the bandwidth lower bound.
	BandwidthOptimal bool `json:"bandwidthOptimal"`
	// SynthesisTime is wall clock and inherently nondeterministic; byte
	// comparisons of serialized frontiers should zero it first.
	SynthesisTime time.Duration `json:"synthesisTimeNs"`
}

// Optimality renders the paper's Optimality column.
func (p ParetoPoint) Optimality() string {
	switch {
	case p.LatencyOptimal && p.BandwidthOptimal:
		return "Both"
	case p.LatencyOptimal:
		return "Latency"
	case p.BandwidthOptimal:
		return "Bandwidth"
	}
	return ""
}

func (p ParetoPoint) String() string {
	s := fmt.Sprintf("(C=%d,S=%d,R=%d)", p.C, p.S, p.R)
	if o := p.Optimality(); o != "" {
		s += " " + o
	}
	return s
}

// candidate is an (R, C) pair ordered by bandwidth cost R/C.
type candidate struct {
	R, C int
	cost *big.Rat
}

// enumerateCandidates builds the paper's set
// A = {(R,C) | S <= R <= S+k ∧ R/C >= bl} sorted ascending by R/C
// (ties: smaller C first — cheaper instances solve faster).
func enumerateCandidates(S, k, maxChunks int, bl *big.Rat) []candidate {
	var out []candidate
	for R := S; R <= S+k; R++ {
		for C := 1; C <= maxChunks; C++ {
			cost := big.NewRat(int64(R), int64(C))
			if bl.Sign() > 0 && cost.Cmp(bl) < 0 {
				continue
			}
			out = append(out, candidate{R: R, C: C, cost: cost})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if c := out[i].cost.Cmp(out[j].cost); c != 0 {
			return c < 0
		}
		if out[i].C != out[j].C {
			return out[i].C < out[j].C
		}
		return out[i].R < out[j].R
	})
	return out
}

// SerializedProgress wraps a progress callback so concurrent workers'
// calls are serialized under a mutex and interleaved output cannot
// corrupt the caller's sink; nil yields a no-op. Shared by the Pareto
// scheduler and the eval table driver.
func SerializedProgress(fn func(format string, args ...any)) func(format string, args ...any) {
	if fn == nil {
		return func(string, ...any) {}
	}
	var mu sync.Mutex
	return func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		fn(format, args...)
	}
}

// probeOutcome is one finished candidate probe.
type probeOutcome struct {
	res    Result
	err    error
	pruned bool // cancelled by the scheduler; the result is discarded
	// skipped marks a synthetic Unsat answered by budget dominance: an
	// earlier probe's unsat core already refutes this candidate, so no
	// solver ran. The merge treats it like any other Unsat.
	skipped bool
	// escalated marks the outcome of a speculative chain-top probe; the
	// coordinator records it only when it is a usable Unsat and otherwise
	// returns the candidate to the pending pool.
	escalated bool
	dur       time.Duration
	// family is the chunk count of the mega-base family the probe was
	// projected from (a sweep has one family per C); 0 for one-shot.
	family int
}

// stepSchedule tracks probe state for one step count S. All fields are
// owned by the coordinator goroutine; workers only see immutable candidate
// data through probeTask.
type stepSchedule struct {
	S          int
	cands      []candidate
	dispatched []bool // candidate handed to a worker (or synthesized)
	satCut     int    // lowest index that returned Sat (len(cands) if none yet)
	scan       int    // lowest index whose outcome the deterministic merge still needs
	done       []*probeOutcome
	prunedF    []bool
	cancels    []context.CancelFunc
	// escalated tracks per-family chain-top escalation state at this step
	// (see escState).
	escalated map[int]escState
}

// escState is one family's chain-top escalation state at one step.
type escState struct {
	state int // escalateNone / escalateActive / escalateDone
	// cap bounds the conflicts of the speculative top probe, derived from
	// the conflicts of the Unsat probe that triggered escalation: a gamble
	// that cannot beat the chain it tries to skip is abandoned.
	cap int64
}

// Escalation states of one family (chunk count) at one step.
const (
	escalateNone   = iota // no evidence yet: dispatch in cost order
	escalateActive        // round-bound Unsat seen: probe the chain top next
	escalateDone          // top probed (or given up): back to cost order
)

// escalateBudget derives the conflict cap of a chain-top probe from the
// conflicts the probe that triggered it spent (core minimization
// included). The factor covers the top budget being genuinely harder than
// the trigger; the floor lets a trigger that propagation alone refuted
// still buy a real search. Conflicts, not wall clock: which probes a sweep
// runs must not depend on scheduler jitter.
func escalateBudget(triggerConflicts int64) int64 {
	return 4*triggerConflicts + escalateFloorConflicts
}

// escalateFloorConflicts is the conflict budget a chain-top probe gets on
// top of four times its trigger's.
const escalateFloorConflicts = 64

type probeTask struct {
	si, ci int
	ctx    context.Context
	// mega is the sweep's mega-base session at dispatch time (nil before
	// adoption): the coordinator owns paretoSweep.mega, workers only ever
	// see the copy their task carries.
	mega *MegaSession
	// escalated marks a speculative chain-top probe: solved status-only
	// under the conflict cap below, recorded only when it answers Unsat
	// (see stepSchedule.escalated).
	escalated bool
	escCap    int64
}

type probeDone struct {
	si, ci int
	out    *probeOutcome
}

// paretoSweep is the concurrent Pareto scheduler: it speculatively
// launches per-S candidate probes in cost order across a worker pool,
// cancels losers as soon as a cheaper candidate for the same S returns
// Sat, and merges results deterministically so the frontier is identical
// to the sequential sweep.
type paretoSweep struct {
	kind     collective.Kind
	topo     *topology.Topology
	root     topology.Node
	opts     ParetoOptions
	bounds   collective.Bounds
	bl       *big.Rat
	progress func(format string, args ...any)
	workers  int
	steps    []*stepSchedule
	stats    *ParetoStats
	// pool supplies mega-base sessions and shared Stage-0 templates; nil
	// (NoSessions) keeps every probe one-shot.
	pool *SessionPool
	// mega is the mega-base session the sweep routes probes through: a
	// warm covering session found in the pool at sweep start, or the one
	// adopted after megaAdoptUnsats one-shot refutations; nil while the
	// sweep is still (or stays) one-shot. Coordinator-owned.
	mega *MegaSession
	// oneShotUnsats counts completed Unsat one-shot probes; adoptClosed
	// latches once adoption was decided either way (adopted, declined by
	// the pool, or ruled out because a probe engaged the orbit quotient).
	oneShotUnsats int
	adoptClosed   bool
	fams          map[int]bool
	// Budget-dominance regions learned from unsat cores. A sweep probes
	// one collective kind on one topology, so a family is identified by
	// its chunk count C alone. stepKill[C] is the largest S a
	// steps-dominating core was seen at: every (S' <= stepKill[C], any R)
	// of that family is Unsat. roundKill[{C, S}] is the largest R a
	// rounds-dominating core was seen at: every (S, R' <= that) is Unsat.
	// Both are read and written only by the coordinator goroutine.
	stepKill  map[int]int
	roundKill map[[2]int]int
	// lastWinnerCost is the bandwidth cost of the most recently resolved
	// frontier point. Frontier costs strictly decrease with S, so it upper
	// bounds the cost a later step's winner can have — the guard that
	// keeps chain-top escalation away from candidates the baseline scan
	// would never have solved.
	lastWinnerCost *big.Rat
}

// ParetoSynthesize runs Algorithm 1 for a non-combining collective kind on
// a topology: starting from the latency lower bound a_l it enumerates step
// counts, for each S probing (R, C) candidates in ascending bandwidth cost
// until one is satisfiable — that algorithm is Pareto-optimal for its S.
// The procedure stops when the bandwidth lower bound b_l is met, or when
// MaxSteps is exceeded.
//
// With Workers > 1 the independent probes run concurrently (the paper's
// authors likewise parallelized the per-budget queries); the frontier is
// merged in deterministic (S, cost) rank and matches the sequential sweep
// exactly.
func ParetoSynthesize(kind collective.Kind, topo *topology.Topology, root topology.Node, opts ParetoOptions) ([]ParetoPoint, error) {
	var st ParetoStats
	points, err := paretoSynthesize(kind, topo, root, opts, &st)
	if opts.Stats != nil {
		*opts.Stats = st
	}
	return points, err
}

// paretoSynthesize is ParetoSynthesize folding the sweep's counters into
// stats (Wall is set, not summed), so a multi-kind sweep can share one.
func paretoSynthesize(kind collective.Kind, topo *topology.Topology, root topology.Node, opts ParetoOptions, stats *ParetoStats) ([]ParetoPoint, error) {
	if kind.IsCombining() {
		return nil, fmt.Errorf("synth: ParetoSynthesize needs a non-combining collective; got %v (use SynthesizeCollective)", kind)
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = topo.P + 2
	}
	if opts.MaxChunks == 0 {
		opts.MaxChunks = 2 * topo.P
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	// The caller's pool (usually an Engine's) keeps mega-base sessions and
	// Stage-0 templates across sweeps; otherwise a transient pool lives
	// for this sweep only. Set up before the lower bounds so their
	// latency computation can reuse the pool's cached Stage-0 BFS
	// distances.
	var pool *SessionPool
	if !opts.NoSessions {
		pool = opts.Pool
		if pool == nil {
			pool = NewSessionPool()
			defer pool.Close()
		}
	}
	// Lower bounds over the Stage-0 template's all-pairs BFS matrix: from
	// the pool's shared cache when sessions are on (derived at most once
	// per topology across sweeps), otherwise derived here — still one
	// walk for the whole sweep instead of one per (pre, post) pair.
	var tmpl *Stage0Template
	if pool != nil {
		tmpl, _ = pool.Templates().Get(topo)
	} else {
		tmpl = NewStage0Template(topo)
	}
	bounds, err := collective.EffectiveLowerBoundsDist(kind, topo.P, 1, root, topo, tmpl.Dist)
	if err != nil {
		return nil, err
	}
	al, bl := bounds.Steps, bounds.Bandwidth
	if al < 0 {
		return nil, fmt.Errorf("synth: %v unachievable on %s (unreachable nodes)", kind, topo.Name)
	}
	if al == 0 {
		al = 1 // degenerate specs (e.g. P=1) still need one step encoding-wise
	}
	w := &paretoSweep{
		kind:      kind,
		topo:      topo,
		root:      root,
		opts:      opts,
		bounds:    bounds,
		bl:        bl,
		progress:  SerializedProgress(opts.Progress),
		workers:   workers,
		stats:     stats,
		pool:      pool,
		fams:      map[int]bool{},
		stepKill:  map[int]int{},
		roundKill: map[[2]int]int{},
	}
	if pool != nil {
		// A warm covering session (an earlier sweep's, a daemon warmer's)
		// serves from the first probe; a cold pool changes nothing yet.
		w.mega = w.lookupMega(false)
	}
	for S := al; S <= opts.MaxSteps; S++ {
		cands := enumerateCandidates(S, opts.K, opts.MaxChunks, bl)
		w.steps = append(w.steps, &stepSchedule{
			S:          S,
			cands:      cands,
			dispatched: make([]bool, len(cands)),
			satCut:     len(cands),
			done:       make([]*probeOutcome, len(cands)),
			prunedF:    make([]bool, len(cands)),
			cancels:    make([]context.CancelFunc, len(cands)),
			escalated:  map[int]escState{},
		})
	}
	t0 := time.Now()
	points, err := w.run(ctx)
	stats.Wall = time.Since(t0)
	stats.Families += len(w.fams)
	return points, err
}

// ParetoSynthesizeKinds runs Algorithm 1 for several non-combining
// collective kinds on one topology as a single pooled sweep. A caller that
// declares its kinds up front has announced a multi-family sweep, so —
// like a daemon's WarmMegaBase — the shared mega-base is built before the
// first probe, its chunk universe scoped to exactly those kinds, instead
// of waiting for each kind's sweep to earn it. Each kind's frontier is
// byte-identical to an independent ParetoSynthesize (or -no-sessions) run
// of that kind.
//
// opts.Stats, when set, receives the counters summed across kinds with
// Wall covering the whole multi-kind sweep.
func ParetoSynthesizeKinds(kinds []collective.Kind, topo *topology.Topology, root topology.Node, opts ParetoOptions) (map[collective.Kind][]ParetoPoint, error) {
	if len(kinds) == 0 {
		return nil, fmt.Errorf("synth: ParetoSynthesizeKinds needs at least one kind")
	}
	for _, k := range kinds {
		if k.IsCombining() {
			return nil, fmt.Errorf("synth: ParetoSynthesizeKinds needs non-combining collectives; got %v (use SynthesizeCollective)", k)
		}
	}
	// Resolve the enumeration bounds up front: the mega-base universe must
	// cover every kind's sweep.
	if opts.MaxSteps == 0 {
		opts.MaxSteps = topo.P + 2
	}
	if opts.MaxChunks == 0 {
		opts.MaxChunks = 2 * topo.P
	}
	if !opts.NoSessions {
		if opts.Pool == nil {
			opts.Pool = NewSessionPool()
			defer opts.Pool.Close()
		}
		// Each kind's sweep finds this session warm; a declined build
		// (proof recording, oversized universe) leaves them on the
		// default adoption rule.
		opts.Pool.Mega(topo, root, opts.Instance, kinds, opts.MaxChunks, opts.MaxSteps, opts.K, true)
	}
	var agg ParetoStats
	t0 := time.Now()
	out := make(map[collective.Kind][]ParetoPoint, len(kinds))
	for _, kind := range kinds {
		points, err := paretoSynthesize(kind, topo, root, opts, &agg)
		if err != nil {
			return nil, fmt.Errorf("synth: multi-kind sweep at %v: %w", kind, err)
		}
		out[kind] = points
	}
	if opts.Stats != nil {
		agg.Wall = time.Since(t0)
		*opts.Stats = agg
	}
	return out, nil
}

// run drives the worker pool until the frontier is complete, an error
// surfaces at the deterministic merge frontier, or the context cancels.
func (w *paretoSweep) run(ctx context.Context) ([]ParetoPoint, error) {
	tasks := make(chan probeTask, w.workers)
	results := make(chan probeDone, w.workers)
	for i := 0; i < w.workers; i++ {
		go func() {
			for t := range tasks {
				results <- probeDone{t.si, t.ci, w.probe(t)}
			}
		}()
	}
	inflight := 0
	defer func() {
		// Cancel anything still running, stop the workers, and drain so
		// no goroutine or context leaks past the sweep.
		for _, st := range w.steps {
			for ci, cancel := range st.cancels {
				if cancel != nil {
					st.prunedF[ci] = true
					cancel()
				}
			}
		}
		close(tasks)
		for ; inflight > 0; inflight-- {
			d := <-results
			if w.steps[d.si].prunedF[d.ci] {
				d.out.pruned = true
			}
			w.account(d.out)
		}
	}()

	resolved := 0 // index of the first step whose winner is still unknown
	var points []ParetoPoint
	for {
		// Fill the pool with probes in global (S, cost-rank) order; later
		// steps are speculated while earlier ones are still in flight.
		// Candidates an unsat core already dominates are answered as
		// synthetic Unsat results on the spot, without occupying a worker.
		skipped := false
		for inflight < w.workers {
			si, ci, esc, ok := w.nextTask(resolved)
			if !ok {
				break
			}
			st := w.steps[si]
			cand := st.cands[ci]
			if w.dominated(cand.C, st.S, cand.R) {
				st.dispatched[ci] = true
				st.done[ci] = &probeOutcome{res: Result{Status: sat.Unsat}, skipped: true}
				w.account(st.done[ci])
				w.progress("probe %v C=%d S=%d R=%d: %v (core-dominated, skipped)",
					w.kind, cand.C, st.S, cand.R, sat.Unsat)
				skipped = true
				continue
			}
			st.dispatched[ci] = true
			pctx, cancel := context.WithCancel(ctx)
			st.cancels[ci] = cancel
			tasks <- probeTask{si: si, ci: ci, ctx: pctx, mega: w.mega,
				escalated: esc, escCap: st.escalated[cand.C].cap}
			if esc {
				// One gamble per family and step: consuming the state here
				// keeps further fill iterations from launching concurrent
				// speculative probes for the same family (Workers > 1).
				st.escalated[cand.C] = escState{state: escalateDone}
			}
			inflight++
		}
		if skipped {
			// Synthetic outcomes can complete steps without any result
			// arriving; merge before blocking on (or running out of)
			// in-flight probes.
			stop, err := w.advance(&resolved, &points)
			if err != nil {
				return points, err
			}
			if stop {
				return points, nil
			}
			continue
		}
		if inflight == 0 {
			return points, nil // frontier exhausted below MaxSteps
		}
		d := <-results
		inflight--
		st := w.steps[d.si]
		if st.prunedF[d.ci] {
			d.out.pruned = true
		}
		if cancel := st.cancels[d.ci]; cancel != nil {
			cancel()
			st.cancels[d.ci] = nil
		}
		if d.out.escalated && !d.out.pruned && (d.out.err != nil || d.out.res.Status != sat.Unsat) {
			// A speculative chain-top probe that did not answer Unsat is
			// discarded: the candidate returns to the pending pool and is
			// solved normally (with a witness) if the scan ever needs it.
			// In particular a Sat answer must NOT move the Sat cut — the
			// cut excludes its own index from dispatch, which would strand
			// this candidate unsolved and truncate the frontier.
			// Its time and solver work are still the sweep's; its path
			// counters are not: the candidate is back in the pool.
			st.dispatched[d.ci] = false
			st.escalated[st.cands[d.ci].C] = escState{state: escalateDone}
			w.accountWall(d.out)
			w.stats.Add(ProbeStats{Stats: d.out.res.Stats})
			if ctx.Err() != nil {
				return points, fmt.Errorf("synth: pareto sweep cancelled: %w", ctx.Err())
			}
			continue
		}
		st.done[d.ci] = d.out
		w.account(d.out)
		if ctx.Err() != nil {
			return points, fmt.Errorf("synth: pareto sweep cancelled: %w", ctx.Err())
		}
		if !d.out.pruned && d.out.err == nil {
			w.considerAdoption(d.out.res)
			switch {
			case d.out.res.Status == sat.Sat && d.ci < st.satCut:
				// A cheaper Sat for this S makes every costlier candidate a
				// loser: cancel them immediately.
				st.satCut = d.ci
				w.pruneAbove(st, d.ci)
			case d.out.res.Status == sat.Unsat && d.out.res.Core != nil:
				w.stats.CoreSolves++
				w.noteCore(st.cands[d.ci].C, d.out.res.Core)
				if d.out.res.Core.RoundUpper && st.escalated[st.cands[d.ci].C].state == escalateNone {
					// The round budget took part in the conflict: the
					// family looks bandwidth-starved at this step, so try
					// its costliest plausible candidate next — one Unsat at
					// the chain top dominates every cheaper round count in
					// between (BudgetCore.DominatesRounds).
					st.escalated[st.cands[d.ci].C] = escState{
						state: escalateActive,
						cap:   escalateBudget(d.out.res.Stats.Conflicts),
					}
				}
			}
			if d.out.escalated {
				// The chain-top gamble paid off (an Unsat with its core);
				// the family's cheaper candidates now fall to dominance.
				st.escalated[st.cands[d.ci].C] = escState{state: escalateDone}
			}
		}
		stop, err := w.advance(&resolved, &points)
		if err != nil {
			return points, err
		}
		if stop {
			return points, nil
		}
	}
}

// dominated reports whether an earlier probe's unsat core already proves
// candidate (S, R) of family C unsatisfiable.
func (w *paretoSweep) dominated(c, s, r int) bool {
	if kill, ok := w.stepKill[c]; ok && s <= kill {
		return true
	}
	if kill, ok := w.roundKill[[2]int{c, s}]; ok && r <= kill {
		return true
	}
	return false
}

// noteCore folds one probe's budget core into the dominance regions.
func (w *paretoSweep) noteCore(c int, core *BudgetCore) {
	if core.DominatesSteps() && core.Steps > w.stepKill[c] {
		w.stepKill[c] = core.Steps
	}
	if core.DominatesRounds() {
		k := [2]int{c, core.Steps}
		if core.Rounds > w.roundKill[k] {
			w.roundKill[k] = core.Rounds
		}
	}
}

// account folds one finished probe into the sweep counters.
func (w *paretoSweep) account(out *probeOutcome) {
	if out.family != 0 {
		w.fams[out.family] = true
	}
	if out.skipped {
		w.stats.PrunedProbes++
		return
	}
	if out.pruned {
		w.stats.Pruned++
		return
	}
	w.stats.Probes++
	w.accountWall(out)
	w.stats.Add(out.res.ProbeStats)
}

// accountWall folds the wall clocks of a probe that ran — completed, or a
// discarded chain-top gamble — into the sweep totals: all three together,
// or the encode/solve split undercounts what ProbeTime reports.
func (w *paretoSweep) accountWall(out *probeOutcome) {
	w.stats.ProbeTime += out.dur
	w.stats.EncodeTime += out.res.Encode
	w.stats.SolveTime += out.res.Solve
}

// nextTask picks the globally first undispatched candidate: steps in
// ascending S, candidates in ascending cost rank, skipping candidates
// above a step's known Sat cut. When the candidate's family has an active
// chain-top escalation, the family's costliest plausible candidate is
// dispatched in its place as a speculative status probe (the cheap slot
// stays pending and is usually answered by the top probe's dominance
// core). The final return reports that speculative flavor.
func (w *paretoSweep) nextTask(resolved int) (si, ci int, escalated, ok bool) {
	for si := resolved; si < len(w.steps); si++ {
		st := w.steps[si]
		for ci := 0; ci < len(st.cands) && ci < st.satCut; ci++ {
			if st.dispatched[ci] || st.done[ci] != nil {
				continue
			}
			if st.escalated[st.cands[ci].C].state == escalateActive {
				if top := w.chainTop(st, st.cands[ci].C); top > ci {
					return si, top, true, true
				}
				// Nothing above the natural slot is worth speculating on.
				st.escalated[st.cands[ci].C] = escState{state: escalateDone}
			}
			return si, ci, false, true
		}
	}
	return 0, 0, false, false
}

// chainTop returns the family's costliest pending candidate index below
// the Sat cut whose bandwidth cost stays under the last resolved frontier
// point's — candidates at or above that cost can never beat this step's
// winner, so probing them would pay for solves the plain scan skips.
// Returns -1 when no bounded candidate is pending (including before the
// first frontier point, when no bound is known yet).
func (w *paretoSweep) chainTop(st *stepSchedule, family int) int {
	if w.lastWinnerCost == nil {
		return -1
	}
	limit := len(st.cands)
	if st.satCut < limit {
		limit = st.satCut
	}
	for ci := limit - 1; ci >= 0; ci-- {
		if st.cands[ci].cost.Cmp(w.lastWinnerCost) >= 0 {
			continue
		}
		if st.cands[ci].C == family && !st.dispatched[ci] && st.done[ci] == nil {
			return ci
		}
	}
	return -1
}

// pruneAbove cancels every in-flight probe of st costlier than index ci.
func (w *paretoSweep) pruneAbove(st *stepSchedule, ci int) {
	for j := ci + 1; j < len(st.cands); j++ {
		if cancel := st.cancels[j]; cancel != nil && st.done[j] == nil {
			st.prunedF[j] = true
			cancel()
		}
	}
}

// advance replays completed probes in the deterministic sequential order,
// extending the frontier. It mirrors the sequential sweep exactly:
// candidates are consumed in cost rank, the first Sat wins its step, a
// real Unknown aborts with the budget error, and a bandwidth-optimal
// winner ends the whole sweep.
func (w *paretoSweep) advance(resolved *int, points *[]ParetoPoint) (stop bool, err error) {
steps:
	for *resolved < len(w.steps) {
		st := w.steps[*resolved]
		for st.scan < len(st.cands) {
			out := st.done[st.scan]
			if out == nil {
				return false, nil // outcome still in flight (or queued)
			}
			if out.pruned {
				// Pruning only ever targets candidates above a Sat cut,
				// and the scan stops at that Sat first.
				return false, fmt.Errorf("synth: internal: pruned probe at merge frontier (S=%d, rank %d)", st.S, st.scan)
			}
			if out.err != nil {
				return false, out.err
			}
			cand := st.cands[st.scan]
			switch out.res.Status {
			case sat.Unknown:
				return false, fmt.Errorf("synth: solver budget exhausted at C=%d S=%d R=%d", cand.C, st.S, cand.R)
			case sat.Sat:
				pt := ParetoPoint{
					Algorithm:        out.res.Algorithm,
					C:                cand.C,
					S:                st.S,
					R:                cand.R,
					LatencyOptimal:   st.S == w.bounds.Steps,
					BandwidthOptimal: w.bl.Sign() > 0 && cand.cost.Cmp(w.bl) == 0,
					SynthesisTime:    out.res.Encode + out.res.Solve,
				}
				*points = append(*points, pt)
				// Later steps' winners must beat this cost; the bound
				// keeps chain-top escalation inside the plain scan's
				// probe set.
				w.lastWinnerCost = cand.cost
				if pt.BandwidthOptimal {
					return true, nil
				}
				*resolved++
				continue steps // Pareto-optimal for this S found; next S
			default: // Unsat: try the next-cheapest candidate
				st.scan++
			}
		}
		// Every candidate Unsat: no frontier point for this S.
		*resolved++
	}
	return true, nil // MaxSteps exhausted with all steps resolved
}

// megaAdoptUnsats is how many Unsat one-shot probes a sweep must see
// before it asks the pool for a mega-base and routes every later probe
// through it. One-shot wins where almost every probe is Sat on first try
// (Allgather, Alltoall: the base encode is never repaid); the mega-base
// wins where the sweep walks cost-ordered Unsat chains (rooted Broadcast),
// because cores prune the chain and learnt clauses carry along it. Three
// refutations tell the two apart: measured on ten sweeps (ring, line,
// bidir-ring, dgx1, amd, hypercube; see CHANGES.md PR 22), thresholds 2, 3
// and 5 gave the same wall within noise, so this is a constant, not a
// knob.
const megaAdoptUnsats = 3

// considerAdoption folds one completed probe into the adoption rule (see
// megaAdoptUnsats). A probe that engaged the chunk-orbit quotient rules
// adoption out for the sweep: the quotient carries such solves, and a
// mega-base must decline it (see MegaSession.probeLocked).
func (w *paretoSweep) considerAdoption(res Result) {
	if w.pool == nil || w.mega != nil || w.adoptClosed || res.SessionProbes > 0 {
		return
	}
	if res.QuotientProbes+res.QuotientFallbacks > 0 {
		w.adoptClosed = true
		return
	}
	if res.Status != sat.Unsat {
		return
	}
	if w.oneShotUnsats++; w.oneShotUnsats < megaAdoptUnsats {
		return
	}
	w.adoptClosed = true
	if w.mega = w.lookupMega(true); w.mega != nil {
		w.progress("sweep %v: adopting the mega-base after %d one-shot refutations", w.kind, w.oneShotUnsats)
	}
}

// lookupMega asks the pool for a mega-base session covering the sweep;
// nil when none is warm (create false) or the configuration cannot host
// one (proof recording, a universe past megaMaxChunks).
func (w *paretoSweep) lookupMega(create bool) *MegaSession {
	return w.pool.Mega(w.topo, w.root, w.opts.Instance, []collective.Kind{w.kind},
		w.opts.MaxChunks, w.opts.MaxSteps, w.opts.K, create)
}

// probe synthesizes one (S, R, C) candidate. It runs on a worker
// goroutine and touches only immutable sweep state.
func (w *paretoSweep) probe(t probeTask) *probeOutcome {
	st := w.steps[t.si]
	cand := st.cands[t.ci]
	out := &probeOutcome{}
	t0 := time.Now()
	coll, err := collective.New(w.kind, w.topo.P, cand.C, w.root)
	if err != nil {
		out.err = err
		out.dur = time.Since(t0)
		return out
	}
	opts := w.opts.Instance
	view := t.mega.View(coll)
	switch {
	case view != nil && t.escalated:
		// Speculative chain-top probe: status only, conflict capped so a
		// hard instance is abandoned instead of out-costing the chain it
		// tries to skip.
		if opts.MaxConflicts == 0 || opts.MaxConflicts > t.escCap {
			opts.MaxConflicts = t.escCap
		}
		out.escalated = true
		out.family = cand.C
		out.res, out.err = view.SolveStatus(t.ctx, st.S, cand.R, opts)
	case view != nil:
		out.family = cand.C
		out.res, out.err = view.Solve(t.ctx, st.S, cand.R, opts)
	default:
		inst := Instance{Coll: coll, Topo: w.topo, Steps: st.S, Round: cand.R}
		out.res, out.err = solveOneShot(t.ctx, inst, opts, w.pool.Templates())
	}
	out.dur = time.Since(t0)
	flavor := ""
	if out.escalated {
		flavor = ", chain-top"
	}
	w.progress("probe %v C=%d S=%d R=%d: %v (%.2fs%s)", w.kind, cand.C, st.S, cand.R, out.res.Status, out.dur.Seconds(), flavor)
	return out
}

package sat

import "sync"

// This file is the intra-instance parallelism substrate: solver cloning
// from an encoded base, search diversification for portfolio replicas,
// and a bounded lossy learnt-clause exchange with entailment-vetted
// imports. The solver itself stays single-threaded; a portfolio runs N
// independent Solver instances (clones or deterministic re-encodings of
// one formula) in N goroutines and wires them together through an
// Exchange. Soundness of sharing does not rest on the replicas having
// the same formula: every import is re-verified by the failed-literal
// entailment check (Entailed) against the importing solver's own clause
// database before AddLearnt accepts it.

// Clone returns an independent deep copy of the solver: clause arena,
// learnt database, watch lists, top-level trail, phase saving and VSIDS
// state. The copy shares no mutable state with the original, so both can
// solve concurrently. Must be called at decision level 0 (between Solve
// calls); returns nil otherwise. The clone does not inherit a proof
// recorder or an exchange attachment, and its counters start at zero —
// portfolio replicas account their own work.
func (s *Solver) Clone() *Solver {
	if s.decisionLevel() != 0 {
		return nil
	}
	c := &Solver{
		opts:       s.opts,
		numVars:    s.numVars,
		wasted:     s.wasted,
		stored:     s.stored,
		live:       s.live,
		qhead:      s.qhead,
		varInc:     s.varInc,
		claInc:     s.claInc,
		okay:       s.okay,
		geomGrowth: s.geomGrowth,
	}
	c.arena = append([]Lit(nil), s.arena...)
	c.learnts = append([]clauseRef(nil), s.learnts...)
	// The watch lists are cut from one slab, each with no spare capacity,
	// so a list that grows moves out on its own.
	total := 0
	for _, ws := range s.watches {
		total += len(ws)
	}
	slab := make([]watcher, total)
	c.watches = make([][]watcher, len(s.watches))
	for i, ws := range s.watches {
		n := copy(slab, ws)
		c.watches[i], slab = slab[:n:n], slab[n:]
	}
	c.assigns = append([]lbool(nil), s.assigns...)
	c.level = append([]int32(nil), s.level...)
	c.reason = append([]clauseRef(nil), s.reason...)
	c.trail = append([]Lit(nil), s.trail...)
	c.polar = append([]bool(nil), s.polar...)
	c.seen = make([]bool, len(s.seen))
	c.order.activity = append([]float64(nil), s.order.activity...)
	c.order.indices = make([]int32, len(s.order.indices))
	c.refillOrder(1)
	return c
}

// Diversification perturbs one portfolio replica's search away from the
// canonical configuration. The zero value changes nothing.
type Diversification struct {
	// Seed, when nonzero, perturbs the initial VSIDS activities with a
	// deterministic PRNG so tie-breaking explores a different subtree.
	Seed uint64
	// InvertPolarity flips every variable's saved phase, so first
	// descents branch toward the opposite half of the assignment space.
	InvertPolarity bool
	// GeometricRestart replaces the Luby restart schedule with a
	// geometric one (budget grows by RestartGrowth per restart).
	GeometricRestart bool
	// RestartGrowth is the geometric growth factor; 0 selects 1.5.
	RestartGrowth float64
	// VarDecay overrides the VSIDS decay when nonzero.
	VarDecay float64
	// LubyUnit overrides the base restart interval when nonzero.
	LubyUnit int64
}

// defaultRestartGrowth is the geometric restart factor when a
// diversification selects geometric restarts without naming one.
const defaultRestartGrowth = 1.5

// Diversify applies a perturbation to a quiescent solver (decision level
// 0, between Solve calls). It only redirects the search — activities,
// phases, restart and decay schedules — and never touches the clause
// database, so a diversified replica answers exactly what the original
// would.
func (s *Solver) Diversify(d Diversification) {
	if d.VarDecay != 0 {
		s.opts.VarDecay = d.VarDecay
	}
	if d.LubyUnit != 0 {
		s.opts.LubyUnit = d.LubyUnit
	}
	if d.GeometricRestart {
		g := d.RestartGrowth
		if g <= 1 {
			g = defaultRestartGrowth
		}
		s.geomGrowth = g
	}
	if d.InvertPolarity {
		for v := 1; v <= s.numVars; v++ {
			s.polar[v] = !s.polar[v]
		}
	}
	if d.Seed != 0 {
		rnd := d.Seed
		for v := 1; v <= s.numVars; v++ {
			rnd = splitmix64(rnd)
			// Small positive perturbations below one bump: they break the
			// all-zero tie without outranking genuinely bumped variables.
			s.order.activity[v] += s.varInc * float64(rnd>>40) / float64(1<<24) * 1e-3
		}
		s.refillOrder(1)
	}
}

// splitmix64 is the SplitMix64 PRNG step — deterministic, seedable, and
// dependency-free.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d4db3d33b27fb9
	return z ^ (z >> 31)
}

// ProbeLiteral assumes l on a scratch decision level, unit-propagates,
// and reports how many assignments the literal implies and whether it
// conflicts outright. The trial is fully undone. This is the lookahead
// primitive cube-and-conquer splitting ranks candidate literals with.
// Must be called at decision level 0; a conflicting probe does NOT learn
// the failed literal (callers wanting that should AddLearnt its
// negation).
func (s *Solver) ProbeLiteral(l Lit) (implied int, conflict bool) {
	if !s.okay || s.decisionLevel() != 0 {
		return 0, !s.okay
	}
	if l.Var() < 1 || int(l.Var()) > s.numVars {
		return 0, false
	}
	if s.propagate() != nilClause {
		s.okay = false
		s.recordProof(nil)
		return 0, true
	}
	switch s.value(l) {
	case lTrue:
		return 0, false
	case lFalse:
		return 0, true
	}
	base := len(s.trail)
	s.trailLo = append(s.trailLo, int32(len(s.trail)))
	s.enqueue(l, nilClause)
	conflict = s.propagate() != nilClause
	implied = len(s.trail) - base
	s.backtrack(0)
	return implied, conflict
}

// ExchangeStats are an Exchange's lifetime counters.
type ExchangeStats struct {
	// Published counts clauses offered to the exchange.
	Published uint64
	// Dropped counts published clauses that were overwritten before some
	// consumer read them (the lossy bound in action).
	Dropped uint64
	// Imported counts clauses a consumer vetted and adopted.
	Imported uint64
	// Vetoed counts drained clauses the entailment check rejected.
	Vetoed uint64
}

// Exchange is a bounded, lossy, many-producer many-consumer buffer of
// learnt clauses for a solver portfolio. Producers publish their best
// lemmas; each consumer drains at its own pace through a private cursor.
// When publishing outruns a slow consumer the overwritten clauses are
// simply lost — sharing is an optimization, never a dependency — so no
// producer ever blocks on the exchange. Safe for concurrent use.
type Exchange struct {
	mu      sync.Mutex
	ring    [][]Lit
	seq     uint64 // total clauses ever published
	cursors []uint64
	stats   ExchangeStats
}

// defaultExchangeCap bounds the clause backlog a portfolio exchange
// keeps. Deep enough that a consumer draining once per restart sees
// every recent lemma; shallow enough that a stalled consumer cannot pin
// unbounded memory.
const defaultExchangeCap = 2048

// NewExchange builds an exchange with the given ring capacity (0 selects
// the default). Consumers register with Register.
func NewExchange(capacity int) *Exchange {
	if capacity <= 0 {
		capacity = defaultExchangeCap
	}
	return &Exchange{ring: make([][]Lit, capacity)}
}

// Register adds a consumer and returns its id for Solver.AttachExchange.
// The consumer starts reading at the oldest clause still buffered, so a
// replica joining an escalated race sees the backlog the leader has
// already published.
func (e *Exchange) Register() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	start := uint64(0)
	if e.seq > uint64(len(e.ring)) {
		start = e.seq - uint64(len(e.ring))
	}
	e.cursors = append(e.cursors, start)
	return len(e.cursors) - 1
}

// publish offers a clause to every consumer. The literals are copied.
func (e *Exchange) publish(lits []Lit) {
	e.mu.Lock()
	defer e.mu.Unlock()
	slot := int(e.seq % uint64(len(e.ring)))
	if e.ring[slot] != nil {
		// Overwriting a clause some cursor has not passed means it is lost
		// to that consumer; count it once per slot reuse.
		for _, c := range e.cursors {
			if c <= e.seq-uint64(len(e.ring)) {
				e.stats.Dropped++
				break
			}
		}
	}
	e.ring[slot] = append([]Lit(nil), lits...)
	e.seq++
	e.stats.Published++
}

// drain returns up to max unread clauses for the consumer and advances
// its cursor. Clauses the ring has already overwritten are skipped.
func (e *Exchange) drain(consumer, max int) [][]Lit {
	e.mu.Lock()
	defer e.mu.Unlock()
	if consumer < 0 || consumer >= len(e.cursors) {
		return nil
	}
	cur := e.cursors[consumer]
	if lost := e.seq - uint64(len(e.ring)); e.seq > uint64(len(e.ring)) && cur < lost {
		cur = lost
	}
	var out [][]Lit
	for cur < e.seq && len(out) < max {
		out = append(out, e.ring[cur%uint64(len(e.ring))])
		cur++
	}
	e.cursors[consumer] = cur
	return out
}

// noteImports records consumer-side vetting results.
func (e *Exchange) noteImports(imported, vetoed uint64) {
	e.mu.Lock()
	e.stats.Imported += imported
	e.stats.Vetoed += vetoed
	e.mu.Unlock()
}

// Stats returns a snapshot of the exchange counters.
func (e *Exchange) Stats() ExchangeStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Sharing filters: only short, low-LBD lemmas travel — long or weak
// clauses cost more to vet and propagate than they prune.
const (
	shareMaxLen = 24
	shareMaxLBD = 6
	// importBatch bounds how many clauses a replica drains per restart so
	// import vetting never dominates a restart boundary.
	importBatch = 64
)

// AttachExchange wires the solver into a portfolio exchange. consumer is
// the id from Exchange.Register, or -1 for a publish-only attachment
// (the deterministic leader of a race exports its lemmas but must not
// import, since imports would steer its canonical search). Imports
// happen at restart boundaries and every clause is entailment-vetted
// (Entailed) before AddLearnt adopts it; SharedImports returns what was
// adopted. Detach by attaching nil.
func (s *Solver) AttachExchange(e *Exchange, consumer int) {
	s.exch = e
	s.exchConsumer = consumer
	s.sharedImports = nil
}

// SharedImports returns copies of the clauses this solver imported from
// its exchange (after vetting), in import order. Tests re-verify their
// entailment against an independent solver on the same formula.
func (s *Solver) SharedImports() [][]Lit {
	out := make([][]Lit, 0, len(s.sharedImports))
	for _, c := range s.sharedImports {
		out = append(out, append([]Lit(nil), c...))
	}
	return out
}

// exportLearnt offers a freshly learnt clause to the exchange if it
// passes the sharing filters. lbd 0 means unit (always shared).
func (s *Solver) exportLearnt(lits []Lit, lbd int32) {
	if s.exch == nil {
		return
	}
	if len(lits) > shareMaxLen || lbd > shareMaxLBD {
		return
	}
	s.exch.publish(lits)
	s.stats.SharedOut++
}

// importShared drains the exchange at a restart boundary (decision level
// 0), vets each clause with the failed-literal entailment check, and
// adopts the survivors. Returns false when an import (or the vetting
// propagation itself) revealed the formula unsatisfiable at the top
// level — the caller's solve must answer Unsat.
func (s *Solver) importShared() bool {
	if s.exch == nil || s.exchConsumer < 0 {
		return s.okay
	}
	batch := s.exch.drain(s.exchConsumer, importBatch)
	var imported, vetoed uint64
	for _, cls := range batch {
		bad := false
		for _, l := range cls {
			if l.Var() < 1 || int(l.Var()) > s.numVars {
				bad = true
				break
			}
		}
		if bad {
			vetoed++
			continue
		}
		if !s.Entailed(cls...) {
			vetoed++
			continue
		}
		if !s.okay {
			// Entailed discovered a top-level conflict while propagating.
			break
		}
		ok, sound := s.AddLearnt(cls...)
		if ok {
			imported++
			s.stats.SharedIn++
			s.sharedImports = append(s.sharedImports, append([]Lit(nil), cls...))
		}
		if !sound {
			break
		}
	}
	if imported+vetoed > 0 {
		s.exch.noteImports(imported, vetoed)
	}
	return s.okay
}

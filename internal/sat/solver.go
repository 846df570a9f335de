package sat

import (
	"context"
	"errors"
	"math"
	"time"
)

// Stats collects solver counters for diagnostics and benchmarking.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	Learnt       int64
	Removed      int64
	MaxLBD       int64
	// SharedOut / SharedIn count learnt clauses exported to and imported
	// (after entailment vetting) from a portfolio exchange.
	SharedOut int64
	SharedIn  int64
}

// Since returns the counters accumulated after the earlier snapshot prev
// of the same solver: what one Solve call on a long-lived solver cost.
// MaxLBD is a high-water mark, not a sum, and keeps s's value.
func (s Stats) Since(prev Stats) Stats {
	s.Decisions -= prev.Decisions
	s.Propagations -= prev.Propagations
	s.Conflicts -= prev.Conflicts
	s.Restarts -= prev.Restarts
	s.Learnt -= prev.Learnt
	s.Removed -= prev.Removed
	s.SharedOut -= prev.SharedOut
	s.SharedIn -= prev.SharedIn
	return s
}

// Options tunes solver behaviour. The zero value selects sensible defaults
// via NewSolver.
type Options struct {
	// VarDecay is the VSIDS activity decay factor (0 < VarDecay < 1).
	VarDecay float64
	// ClauseDecay is the learnt-clause activity decay factor.
	ClauseDecay float64
	// LubyUnit is the base number of conflicts per restart interval.
	LubyUnit int64
	// MaxConflicts bounds the total conflicts before Solve returns
	// Unknown; 0 means unbounded.
	MaxConflicts int64
	// Timeout bounds wall-clock solve time; 0 means unbounded.
	Timeout time.Duration
}

// Solver is a CDCL SAT solver. The zero value is not usable; construct with
// NewSolver.
type Solver struct {
	opts Options

	numVars  int
	clauses  []clause      // arena: problem + learnt clauses
	learnts  []clauseRef   // refs of learnt clauses, for DB reduction
	watches  [][]watcher   // literal -> watch list
	assigns  []lbool       // var -> value
	level    []int32       // var -> decision level
	reason   []clauseRef   // var -> antecedent clause
	trail    []Lit         // assignment stack
	trailLo  []int32       // decision level -> trail index
	qhead    int           // propagation queue head into trail
	polar    []bool        // phase saving: var -> last sign
	seen     []bool        // scratch for conflict analysis
	activity []float64     // VSIDS activity
	order    *activityHeap // branching order

	varInc    float64
	claInc    float64
	okay      bool // false once top-level conflict derived
	stats     Stats
	model     []lbool
	conflictC []Lit // failed-assumption core of the last Unsat (analyzeFinal)

	analyzeToClear []Lit
	deadline       time.Time
	proof          *Proof

	// Portfolio state (see portfolio.go). geomGrowth > 1 selects geometric
	// restarts; zero keeps the Luby schedule, preserving canonical search.
	geomGrowth    float64
	exch          *Exchange
	exchConsumer  int
	sharedImports [][]Lit
}

// NewSolver constructs an empty solver with default options.
func NewSolver() *Solver { return NewSolverOpts(Options{}) }

// NewSolverOpts constructs an empty solver with the given options; zero
// fields are replaced by defaults.
func NewSolverOpts(opts Options) *Solver {
	if opts.VarDecay == 0 {
		opts.VarDecay = 0.95
	}
	if opts.ClauseDecay == 0 {
		opts.ClauseDecay = 0.999
	}
	if opts.LubyUnit == 0 {
		opts.LubyUnit = 256
	}
	s := &Solver{
		opts:   opts,
		varInc: 1.0,
		claInc: 1.0,
		okay:   true,
	}
	s.order = newActivityHeap(&s.activity)
	// Variable 0 is reserved so literal indexing starts at 2.
	s.assigns = append(s.assigns, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nilClause)
	s.polar = append(s.polar, false)
	s.seen = append(s.seen, false)
	s.activity = append(s.activity, 0)
	s.watches = append(s.watches, nil, nil)
	return s
}

// NewVar allocates a fresh Boolean variable.
func (s *Solver) NewVar() Var {
	s.numVars++
	v := Var(s.numVars)
	s.assigns = append(s.assigns, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nilClause)
	s.polar = append(s.polar, true) // default phase: false (sign true)
	s.seen = append(s.seen, false)
	s.activity = append(s.activity, 0)
	s.watches = append(s.watches, nil, nil)
	s.order.push(v)
	return v
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return s.numVars }

// NumClauses returns the number of live problem clauses plus learnt
// clauses.
func (s *Solver) NumClauses() int {
	n := 0
	for i := range s.clauses {
		if !s.clauses[i].deleted {
			n++
		}
	}
	return n
}

// Stats returns a copy of the solver counters.
func (s *Solver) Stats() Stats { return s.stats }

// LearntClauses returns the number of learnt clauses currently live in the
// clause database. Between incremental Solve calls this is the knowledge
// carried from earlier solves into the next one; the synthesis mega-base
// reports it as its clause-reuse counter.
func (s *Solver) LearntClauses() int {
	n := 0
	for _, r := range s.learnts {
		if !s.clauses[r].deleted {
			n++
		}
	}
	return n
}

// Entailed reports whether the clause is entailed by the current formula
// under unit propagation: assuming the negation of every literal on a
// scratch decision level must propagate to a conflict (a failed-literal
// test, as in clause vivification). Sound but incomplete — a false
// answer does not mean the clause is not a consequence, only that
// propagation alone cannot show it. Must be called at decision level 0
// (between Solve calls); the trial assignment is fully undone.
func (s *Solver) Entailed(lits ...Lit) bool {
	if !s.okay {
		return true // an unsatisfiable formula entails everything
	}
	if s.decisionLevel() != 0 {
		return false
	}
	for _, l := range lits {
		if l.Var() < 1 || int(l.Var()) > s.numVars {
			return false
		}
	}
	if s.propagate() != nilClause {
		s.okay = false
		s.recordProof(nil)
		return true
	}
	s.trailLo = append(s.trailLo, int32(len(s.trail)))
	refuted := false
	for _, l := range lits {
		if !s.enqueue(l.Neg(), nilClause) {
			// l is already forced true under the partial negation: the
			// full negation is contradictory.
			refuted = true
			break
		}
	}
	if !refuted {
		refuted = s.propagate() != nilClause
	}
	s.backtrack(0)
	return refuted
}

// AddLearnt adds a clause to the learnt-clause database, normalized at
// the top level like AddClause. The caller must ensure the clause is
// entailed by the current formula (see Entailed): the solver treats it
// exactly like a lemma it derived itself, so an unsound import corrupts
// answers. Imported clauses carry a pessimistic LBD so database
// reduction can drop them again if they never help.
//
// imported reports that the clause actually reached the solver (entered
// the clause database, or propagated as a unit) — clauses already
// satisfied at the top level or tautological after normalization are
// dropped with imported false. ok is false if the formula became
// unsatisfiable at the top level.
func (s *Solver) AddLearnt(lits ...Lit) (imported, ok bool) {
	if !s.okay {
		return false, false
	}
	for _, l := range lits {
		if l.Var() < 1 || int(l.Var()) > s.numVars {
			panic(ErrBadLiteral)
		}
	}
	out := make([]Lit, 0, len(lits))
	for _, l := range lits {
		switch s.value(l) {
		case lTrue:
			return false, true // already satisfied at top level
		case lFalse:
			continue // drop falsified literal
		}
		dup := false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Neg() {
				return false, true // tautology
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.okay = false
		s.recordProof(nil)
		return false, false
	case 1:
		s.recordProof(out[:1])
		if !s.enqueue(out[0], nilClause) {
			s.okay = false
			s.recordProof(nil)
			return false, false
		}
		if s.propagate() != nilClause {
			s.okay = false
			s.recordProof(nil)
			return true, false
		}
		return true, true
	}
	// Entailed-by-propagation clauses are RUP steps, so recording them in
	// a live proof keeps it checkable.
	s.recordProof(out)
	ref := s.pushClause(out, true)
	s.clauses[ref].lbd = int32(len(out))
	s.attachClause(ref)
	return true, true
}

// ErrBadLiteral is returned by AddClause when a literal references an
// unallocated variable.
var ErrBadLiteral = errors.New("sat: literal references unallocated variable")

// AddClause adds a clause (a disjunction of literals) to the formula. It
// returns false if the formula became trivially unsatisfiable (an empty
// clause was derived at the top level). Clauses may be added only at
// decision level 0, i.e. between Solve calls.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.okay {
		return false
	}
	for _, l := range lits {
		if l.Var() < 1 || int(l.Var()) > s.numVars {
			panic(ErrBadLiteral)
		}
	}
	if s.proof != nil {
		s.proof.problem = append(s.proof.problem, append([]Lit(nil), lits...))
	}
	// Normalize: sort-free dedup, drop false lits, detect tautology and
	// satisfied clauses at level 0.
	out := make([]Lit, 0, len(lits))
	for _, l := range lits {
		switch s.value(l) {
		case lTrue:
			return true // already satisfied at top level
		case lFalse:
			continue // drop falsified literal
		}
		dup := false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Neg() {
				return true // tautology
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.okay = false
		s.recordProof(nil)
		return false
	case 1:
		s.recordProof(out[:1])
		if !s.enqueue(out[0], nilClause) {
			s.okay = false
			s.recordProof(nil)
			return false
		}
		if s.propagate() != nilClause {
			s.okay = false
			s.recordProof(nil)
			return false
		}
		return true
	}
	s.attachClause(s.pushClause(out, false))
	return true
}

func (s *Solver) pushClause(lits []Lit, learnt bool) clauseRef {
	ref := clauseRef(len(s.clauses))
	s.clauses = append(s.clauses, clause{lits: lits, learnt: learnt})
	if learnt {
		s.learnts = append(s.learnts, ref)
		s.stats.Learnt++
	}
	return ref
}

func (s *Solver) attachClause(ref clauseRef) {
	c := &s.clauses[ref]
	s.watches[c.lits[0].Neg()] = append(s.watches[c.lits[0].Neg()], watcher{ref, c.lits[1]})
	s.watches[c.lits[1].Neg()] = append(s.watches[c.lits[1].Neg()], watcher{ref, c.lits[0]})
}

func (s *Solver) value(l Lit) lbool {
	v := s.assigns[l.Var()]
	if l.Sign() {
		return v.neg()
	}
	return v
}

func (s *Solver) decisionLevel() int32 { return int32(len(s.trailLo)) }

// enqueue assigns literal l with the given reason. Returns false on
// conflict with the current assignment.
func (s *Solver) enqueue(l Lit, from clauseRef) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	if l.Sign() {
		s.assigns[v] = lFalse
	} else {
		s.assigns[v] = lTrue
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation over the two-watched-literal scheme.
// It returns the conflicting clause reference, or nilClause.
func (s *Solver) propagate() clauseRef {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true
		s.qhead++
		s.stats.Propagations++
		ws := s.watches[p]
		out := ws[:0]
		var confl clauseRef = nilClause
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.value(w.blocker) == lTrue {
				out = append(out, w)
				continue
			}
			c := &s.clauses[w.ref]
			lits := c.lits
			// Ensure the false literal (¬p) is at position 1.
			notP := p.Neg()
			if lits[0] == notP {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				out = append(out, watcher{w.ref, first})
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1].Neg()] = append(s.watches[lits[1].Neg()], watcher{w.ref, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			out = append(out, watcher{w.ref, first})
			if s.value(first) == lFalse {
				confl = w.ref
				// Copy remaining watchers and bail.
				for i++; i < len(ws); i++ {
					out = append(out, ws[i])
				}
				s.qhead = len(s.trail)
				break
			}
			s.enqueue(first, w.ref)
		}
		s.watches[p] = out
		if confl != nilClause {
			return confl
		}
	}
	return nilClause
}

// analyze performs first-UIP conflict analysis, returning the learnt clause
// (asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl clauseRef) ([]Lit, int32) {
	learnt := []Lit{0} // slot 0 reserved for the asserting literal
	pathC := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		c := &s.clauses[confl]
		if c.learnt {
			s.bumpClause(confl)
		}
		start := 0
		if p != -1 {
			start = 1 // skip the asserting literal itself
		}
		for _, q := range c.lits[start:] {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] >= s.decisionLevel() {
				pathC++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find next literal on the trail to resolve on.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		pathC--
		if pathC == 0 {
			break
		}
		confl = s.reason[v]
	}
	learnt[0] = p.Neg()

	// Clause minimization: remove literals implied by the rest.
	s.analyzeToClear = s.analyzeToClear[:0]
	for _, l := range learnt {
		s.analyzeToClear = append(s.analyzeToClear, l)
		s.seen[l.Var()] = true
	}
	j := 1
	for i := 1; i < len(learnt); i++ {
		v := learnt[i].Var()
		if s.reason[v] == nilClause || !s.litRedundant(learnt[i]) {
			learnt[j] = learnt[i]
			j++
		}
	}
	learnt = learnt[:j]

	// Compute backtrack level: second highest level in the clause.
	btLevel := int32(0)
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = s.level[learnt[1].Var()]
	}
	for _, l := range s.analyzeToClear {
		s.seen[l.Var()] = false
	}
	return learnt, btLevel
}

// litRedundant reports whether l is implied by the other literals of the
// learnt clause (recursive reason-side check, conservative).
func (s *Solver) litRedundant(l Lit) bool {
	stack := []Lit{l}
	top := len(s.analyzeToClear)
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c := &s.clauses[s.reason[p.Var()]]
		for _, q := range c.lits[1:] {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			if s.reason[v] == nilClause {
				// Decision variable not in clause: l is not redundant.
				for len(s.analyzeToClear) > top {
					last := s.analyzeToClear[len(s.analyzeToClear)-1]
					s.seen[last.Var()] = false
					s.analyzeToClear = s.analyzeToClear[:len(s.analyzeToClear)-1]
				}
				return false
			}
			s.seen[v] = true
			s.analyzeToClear = append(s.analyzeToClear, q)
			stack = append(stack, q)
		}
	}
	return true
}

func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) decayVar() { s.varInc /= s.opts.VarDecay }

func (s *Solver) bumpClause(ref clauseRef) {
	c := &s.clauses[ref]
	c.activity += s.claInc
	if c.activity > 1e20 {
		for _, r := range s.learnts {
			s.clauses[r].activity *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) decayClause() { s.claInc /= s.opts.ClauseDecay }

// backtrack undoes assignments above the given decision level.
func (s *Solver) backtrack(level int32) {
	if s.decisionLevel() <= level {
		return
	}
	lo := int(s.trailLo[level])
	for i := len(s.trail) - 1; i >= lo; i-- {
		v := s.trail[i].Var()
		s.polar[v] = s.trail[i].Sign()
		s.assigns[v] = lUndef
		s.reason[v] = nilClause
		s.order.push(v)
	}
	s.trail = s.trail[:lo]
	s.trailLo = s.trailLo[:level]
	s.qhead = lo
}

func (s *Solver) pickBranch() Lit {
	for !s.order.empty() {
		v := s.order.pop()
		if s.assigns[v] == lUndef {
			return MkLit(v, s.polar[v])
		}
	}
	return -1
}

// computeLBD counts distinct decision levels in a clause (quality metric).
func (s *Solver) computeLBD(lits []Lit) int32 {
	seen := map[int32]struct{}{}
	for _, l := range lits {
		seen[s.level[l.Var()]] = struct{}{}
	}
	return int32(len(seen))
}

// reduceDB removes roughly half of the learnt clauses, keeping the most
// active / lowest-LBD ones and any currently used as reasons.
func (s *Solver) reduceDB() {
	if len(s.learnts) < 100 {
		return
	}
	// Sort learnt refs by (lbd asc, activity desc) via simple slice sort.
	refs := make([]clauseRef, 0, len(s.learnts))
	for _, r := range s.learnts {
		if !s.clauses[r].deleted {
			refs = append(refs, r)
		}
	}
	// insertion of quality order using sort-less approach: use sort.Slice
	sortRefs(refs, func(a, b clauseRef) bool {
		ca, cb := &s.clauses[a], &s.clauses[b]
		if ca.lbd != cb.lbd {
			return ca.lbd > cb.lbd // worse LBD first (delete candidates)
		}
		return ca.activity < cb.activity
	})
	locked := make(map[clauseRef]bool)
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != nilClause {
			locked[r] = true
		}
	}
	limit := len(refs) / 2
	kept := refs[:0]
	for i, r := range refs {
		c := &s.clauses[r]
		if i < limit && !locked[r] && c.lbd > 2 && len(c.lits) > 2 {
			s.detachClause(r)
			c.deleted = true
			c.lits = nil
			s.stats.Removed++
		} else {
			kept = append(kept, r)
		}
	}
	s.learnts = append(s.learnts[:0], kept...)
}

func (s *Solver) detachClause(ref clauseRef) {
	c := &s.clauses[ref]
	for _, wl := range []Lit{c.lits[0].Neg(), c.lits[1].Neg()} {
		ws := s.watches[wl]
		for i, w := range ws {
			if w.ref == ref {
				ws[i] = ws[len(ws)-1]
				s.watches[wl] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// luby computes the Luby restart sequence value for index i (1-based):
// 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...
func luby(i int64) int64 {
	k := uint(1)
	for (int64(1)<<k)-1 < i {
		k++
	}
	for {
		if i == (int64(1)<<k)-1 {
			return 1 << (k - 1)
		}
		i -= (int64(1) << (k - 1)) - 1
		k = 1
		for (int64(1)<<k)-1 < i {
			k++
		}
	}
}

// Solve determines satisfiability of the accumulated formula under the
// given assumption literals. On Sat, the model is queryable via Value.
func (s *Solver) Solve(assumptions ...Lit) Status {
	return s.SolveContext(context.Background(), assumptions...)
}

// pollInterval is how many main-loop iterations (decisions or conflicts)
// pass between checks of the context and wall-clock deadline. Polling is
// cheap relative to propagation but not free; 512 keeps cancellation
// latency in the microsecond-to-millisecond range on hard instances.
const pollInterval = 512

// SolveContext is Solve with cooperative cancellation: the context is
// polled at conflict, decision and restart boundaries — alongside the
// configured conflict and wall-clock budgets — and a cancelled solve
// returns Unknown. The solver state remains valid for further Solve calls.
func (s *Solver) SolveContext(ctx context.Context, assumptions ...Lit) Status {
	s.model = nil
	s.conflictC = nil
	if !s.okay {
		return Unsat
	}
	if ctx.Err() != nil {
		return Unknown
	}
	if s.opts.Timeout > 0 {
		s.deadline = time.Now().Add(s.opts.Timeout)
	} else {
		s.deadline = time.Time{}
	}

	defer s.backtrack(0)

	var conflictsAtStart = s.stats.Conflicts
	restartIdx := int64(1)
	conflictBudget := s.opts.LubyUnit * luby(restartIdx)
	conflictsThisRestart := int64(0)
	learntCap := float64(len(s.clauses))/3 + 1000
	sincePoll := 0

	interrupted := func() bool {
		if ctx.Err() != nil {
			return true
		}
		return !s.deadline.IsZero() && time.Now().After(s.deadline)
	}

	for {
		sincePoll++
		if sincePoll >= pollInterval {
			sincePoll = 0
			if interrupted() {
				return Unknown
			}
		}
		confl := s.propagate()
		if confl != nilClause {
			s.stats.Conflicts++
			conflictsThisRestart++
			if s.decisionLevel() == 0 {
				s.okay = false
				s.recordProof(nil)
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			s.recordProof(learnt)
			s.backtrack(btLevel)
			if len(learnt) == 1 {
				s.exportLearnt(learnt, 0)
				s.enqueue(learnt[0], nilClause)
			} else {
				ref := s.pushClause(learnt, true)
				c := &s.clauses[ref]
				c.lbd = s.computeLBD(learnt)
				if int64(c.lbd) > s.stats.MaxLBD {
					s.stats.MaxLBD = int64(c.lbd)
				}
				s.exportLearnt(learnt, c.lbd)
				s.attachClause(ref)
				s.bumpClause(ref)
				s.enqueue(learnt[0], ref)
			}
			s.decayVar()
			s.decayClause()
			continue
		}

		// Budget checks.
		if s.opts.MaxConflicts > 0 && s.stats.Conflicts-conflictsAtStart >= s.opts.MaxConflicts {
			return Unknown
		}
		// Restart.
		if conflictsThisRestart >= conflictBudget {
			s.stats.Restarts++
			restartIdx++
			if s.geomGrowth > 1 {
				// Diversified portfolio replicas may run a geometric
				// schedule; the canonical configuration stays Luby.
				conflictBudget = int64(float64(conflictBudget) * s.geomGrowth)
			} else {
				conflictBudget = s.opts.LubyUnit * luby(restartIdx)
			}
			conflictsThisRestart = 0
			s.backtrack(0)
			sincePoll = 0
			if interrupted() {
				return Unknown
			}
			// Portfolio import point: the solver is at decision level 0, so
			// vetted lemmas from the exchange enter exactly like its own
			// top-level derivations.
			if !s.importShared() {
				return Unsat
			}
			continue
		}
		// Learnt DB reduction.
		if float64(len(s.learnts)) > learntCap {
			s.reduceDB()
			learntCap *= 1.1
		}

		// Re-apply assumptions below any decisions.
		if int(s.decisionLevel()) < len(assumptions) {
			p := assumptions[s.decisionLevel()]
			switch s.value(p) {
			case lTrue:
				// Already satisfied; open an empty decision level.
				s.trailLo = append(s.trailLo, int32(len(s.trail)))
				continue
			case lFalse:
				s.analyzeFinal(p)
				return Unsat
			}
			s.trailLo = append(s.trailLo, int32(len(s.trail)))
			s.enqueue(p, nilClause)
			continue
		}

		next := s.pickBranch()
		if next == -1 {
			// All variables assigned: model found.
			s.model = make([]lbool, len(s.assigns))
			copy(s.model, s.assigns)
			return Sat
		}
		s.stats.Decisions++
		s.trailLo = append(s.trailLo, int32(len(s.trail)))
		s.enqueue(next, nilClause)
	}
}

// analyzeFinal performs final-conflict analysis for a failed assumption p
// (one whose negation is entailed by the formula and the assumptions
// enqueued before it): it walks the implication graph backward from ¬p,
// expanding implied trail literals through their reason clauses, until
// only assumption decisions remain. The surviving assumption literals —
// p itself plus every assumption decision reached by the walk — are
// recorded as the final conflict: the formula entails that they cannot
// all hold together. Assumptions the walk never reaches are provably
// irrelevant to this conflict, so the recorded set is a (not necessarily
// minimal, but usually much smaller) unsat core over the assumptions.
func (s *Solver) analyzeFinal(p Lit) {
	s.conflictC = []Lit{p}
	if s.decisionLevel() == 0 {
		// ¬p was forced by the formula alone: p is the whole core.
		return
	}
	s.seen[p.Var()] = true
	for i := len(s.trail) - 1; i >= int(s.trailLo[0]); i-- {
		v := s.trail[i].Var()
		if !s.seen[v] {
			continue
		}
		if s.reason[v] == nilClause {
			// Every decision on the trail while assumptions are being
			// re-applied is itself an assumption (branching only starts
			// once all assumptions are placed), so its trail literal is
			// the assumption as the caller passed it.
			if s.level[v] > 0 {
				s.conflictC = append(s.conflictC, s.trail[i])
			}
		} else {
			// Implied literal: charge the conflict to its antecedents.
			// The enqueued literal of a reason clause sits at index 0.
			c := &s.clauses[s.reason[v]]
			for _, q := range c.lits[1:] {
				if s.level[q.Var()] > 0 {
					s.seen[q.Var()] = true
				}
			}
		}
		s.seen[v] = false
	}
	s.seen[p.Var()] = false
}

// FailedAssumptions returns the subset of the last Solve call's assumption
// literals that the final-conflict analysis found responsible for the
// Unsat answer: the formula entails that they cannot all hold, so any
// solve whose assumptions include this subset is Unsat too. The core is
// minimal-ish (only implication-graph ancestors of the conflict), not
// guaranteed minimal. Empty when the formula itself is unsatisfiable
// without any assumptions. The slice is owned by the solver and valid
// until the next Solve call.
func (s *Solver) FailedAssumptions() []Lit { return s.conflictC }

// Value returns the model value of v after a Sat answer.
func (s *Solver) Value(v Var) bool {
	if s.model == nil || int(v) >= len(s.model) {
		return false
	}
	return s.model[v] == lTrue
}

// ValueLit returns the model value of literal l after a Sat answer.
func (s *Solver) ValueLit(l Lit) bool {
	val := s.Value(l.Var())
	if l.Sign() {
		return !val
	}
	return val
}

// Okay reports whether the formula is still possibly satisfiable (no
// top-level conflict has been derived).
func (s *Solver) Okay() bool { return s.okay }

// sortRefs is an insertion/shell hybrid small sort to avoid pulling in
// package sort for one call site with closure overhead dominated cost.
func sortRefs(a []clauseRef, less func(x, y clauseRef) bool) {
	// Shell sort with Ciura gaps; n is typically a few thousand.
	gaps := []int{701, 301, 132, 57, 23, 10, 4, 1}
	for _, gap := range gaps {
		for i := gap; i < len(a); i++ {
			tmp := a[i]
			j := i
			for ; j >= gap && less(tmp, a[j-gap]); j -= gap {
				a[j] = a[j-gap]
			}
			a[j] = tmp
		}
	}
}

// SetBudget replaces the solver's conflict and wall-clock budgets for
// subsequent Solve calls. Zero values mean unbounded.
func (s *Solver) SetBudget(maxConflicts int64, timeout time.Duration) {
	s.opts.MaxConflicts = maxConflicts
	s.opts.Timeout = timeout
}

// Budget returns the configured per-call conflict and wall-clock budgets
// (zero values mean unlimited).
func (s *Solver) Budget() (int64, time.Duration) {
	return s.opts.MaxConflicts, s.opts.Timeout
}

// ResetSearchState clears the branching heuristics accumulated by prior
// Solve calls — VSIDS activities, saved phases, and the activity
// ordering — restoring the pre-search branching state. The clause
// database is untouched: learnts are formula consequences and stay
// sound. Callers use it when consecutive solves target very different
// subspaces (e.g. dropping an assumed restriction, see
// synth.solveSymPhased): heuristic state tuned to the abandoned
// subspace can mislead the next search by orders of magnitude.
func (s *Solver) ResetSearchState() {
	s.backtrack(0)
	for i := range s.activity {
		s.activity[i] = 0
	}
	for i := range s.polar {
		s.polar[i] = true
	}
	s.varInc = 1.0
	// Rebuild the branching heap from scratch in variable-creation order:
	// with equal activities the heap ties break by insertion order, and
	// residual ordering from the abandoned search's trail unwinding would
	// otherwise scramble the encoding's natural variable structure.
	s.order = newActivityHeap(&s.activity)
	s.order.grow(len(s.assigns))
	for v := range s.assigns {
		if s.assigns[v] == lUndef {
			s.order.push(Var(v))
		}
	}
}

// LearntMark returns a watermark identifying the current end of the
// clause arena. Passing it to PurgeLearntsSince later deletes exactly
// the learnt clauses recorded after this call.
func (s *Solver) LearntMark() int { return len(s.clauses) }

// PurgeLearntsSince deletes every learnt clause recorded after mark (a
// LearntMark watermark), returning how many were removed. Learnt
// deletion is always sound (learnts are redundant consequences of the
// problem clauses); clauses currently locked as propagation reasons are
// kept. Used with ResetSearchState when abandoning an assumed
// restriction: lemmas derived inside the restricted subspace — whether
// or not they mention its selector variables — encode subspace-shaped
// reasoning that can mislead the unrestricted search by orders of
// magnitude, while learnts from before the restriction (e.g. carried
// session lemmas) keep their value.
func (s *Solver) PurgeLearntsSince(mark int) int {
	s.backtrack(0)
	locked := make(map[clauseRef]bool)
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != nilClause {
			locked[r] = true
		}
	}
	purged := 0
	kept := s.learnts[:0]
	for _, r := range s.learnts {
		c := &s.clauses[r]
		if c.deleted {
			continue
		}
		if int(r) >= mark && !locked[r] {
			s.detachClause(r)
			c.deleted = true
			c.lits = nil
			s.stats.Removed++
			purged++
		} else {
			kept = append(kept, r)
		}
	}
	s.learnts = kept
	return purged
}

// SolveWithBudget is Solve with an explicit conflict budget overriding the
// configured MaxConflicts for this call only.
func (s *Solver) SolveWithBudget(maxConflicts int64, assumptions ...Lit) Status {
	return s.SolveWithBudgetContext(context.Background(), maxConflicts, assumptions...)
}

// SolveWithBudgetContext is SolveContext with an explicit conflict budget
// overriding the configured MaxConflicts for this call only.
func (s *Solver) SolveWithBudgetContext(ctx context.Context, maxConflicts int64, assumptions ...Lit) Status {
	old := s.opts.MaxConflicts
	s.opts.MaxConflicts = maxConflicts
	defer func() { s.opts.MaxConflicts = old }()
	return s.SolveContext(ctx, assumptions...)
}

// Simplify removes clauses satisfied at the top level. Safe to call between
// Solve invocations.
func (s *Solver) Simplify() bool {
	if !s.okay {
		return false
	}
	if s.propagate() != nilClause {
		s.okay = false
		return false
	}
	for ref := range s.clauses {
		c := &s.clauses[ref]
		if c.deleted || len(c.lits) == 0 {
			continue
		}
		for _, l := range c.lits {
			if s.value(l) == lTrue && s.level[l.Var()] == 0 {
				s.detachClause(clauseRef(ref))
				c.deleted = true
				c.lits = nil
				break
			}
		}
	}
	return true
}

var _ = math.Inf // reserved for future heuristics

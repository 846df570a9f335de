package sat

import (
	"context"
	"errors"
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

	numVars int
	arena   []Lit        // problem + learnt clauses, see arena.go
	wasted  int          // arena words under deleted clauses
	stored  int          // clauses ever committed, deleted ones included
	live    int          // clauses committed and not deleted
	learnts []clauseRef  // refs of the live learnt clauses, for DB reduction
	watches [][]watcher  // literal -> watch list
	assigns []lbool      // var -> value
	level   []int32      // var -> decision level
	reason  []clauseRef  // var -> antecedent clause
	trail   []Lit        // assignment stack
	trailLo []int32      // decision level -> trail index
	qhead   int          // propagation queue head into trail
	polar   []bool       // phase saving: var -> last sign
	seen    []bool       // scratch for conflict analysis
	order   activityHeap // VSIDS activities and branching order

	varInc    float64
	claInc    float64
	okay      bool // false once top-level conflict derived
	stats     Stats
	model     []lbool
	conflictC []Lit // failed-assumption core of the last Unsat (analyzeFinal)

	// Conflict-path scratch, reused so a conflict allocates nothing:
	// analyze's output clause, litRedundant's stack, and computeLBD's
	// per-level stamps (a level is counted when its stamp is not lbdGen).
	learntBuf      []Lit
	redundantStack []Lit
	lbdStamp       []uint32
	lbdGen         uint32
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
	s.arena = append(s.arena, 0) // no clause at offset 0, see arena.go
	// Variable 0 is reserved so literal indexing starts at 2.
	s.assigns = append(s.assigns, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nilClause)
	s.polar = append(s.polar, false)
	s.seen = append(s.seen, false)
	s.order.addVar()
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
	s.order.addVar()
	s.watches = append(s.watches, nil, nil)
	s.order.push(v)
	return v
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return s.numVars }

// NumClauses returns the number of live problem clauses plus learnt
// clauses.
func (s *Solver) NumClauses() int { return s.live }

// Stats returns a copy of the solver counters.
func (s *Solver) Stats() Stats { return s.stats }

// LearntClauses returns the number of learnt clauses currently live in the
// clause database. Between incremental Solve calls this is the knowledge
// carried from earlier solves into the next one; the synthesis mega-base
// reports it as its clause-reuse counter.
func (s *Solver) LearntClauses() int { return len(s.learnts) }

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
	ref, n, keep := s.stageClause(lits)
	if !keep {
		return false, true
	}
	if n < 2 {
		return s.assertShort(ref, n)
	}
	// Entailed-by-propagation clauses are RUP steps, so recording them in
	// a live proof keeps it checkable.
	s.recordProof(s.arena[ref+1:])
	s.commitClause(ref, n, true, int32(n))
	return true, true
}

// assertShort takes the n < 2 literals staged behind ref off the arena
// and asserts them at the top level: none is the empty clause, one a unit.
// reached reports that a unit entered the trail; ok is false once the
// formula is unsatisfiable.
func (s *Solver) assertShort(ref clauseRef, n int) (reached, ok bool) {
	if n == 0 {
		s.arena = s.arena[:ref]
		s.okay = false
		s.recordProof(nil)
		return false, false
	}
	unit := s.arena[ref+1]
	s.arena = s.arena[:ref]
	s.recordProof([]Lit{unit})
	s.enqueue(unit, nilClause) // cannot fail: stageClause keeps undefined literals only
	if s.propagate() != nilClause {
		s.okay = false
		s.recordProof(nil)
		return true, false
	}
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
	ref, n, keep := s.stageClause(lits)
	if !keep {
		return true
	}
	if n < 2 {
		_, ok := s.assertShort(ref, n)
		return ok
	}
	s.commitClause(ref, n, false, 0)
	return true
}

// value is the literal's value: its variable's, flipped by the sign bit.
// Undefined literals read lUndef or lUndef^1; compare against lTrue and
// lFalse only.
func (s *Solver) value(l Lit) lbool { return s.assigns[l>>1] ^ lbool(l&1) }

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
	s.assigns[v] = lbool(l & 1) // the sign bit is the variable's lbool
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation over the two-watched-literal scheme.
// It returns the conflicting clause reference, or nilClause. The conflicting
// clause is left in the order a visit leaves any clause — its other
// watched literal first, ¬p second — a two-literal one included: analyze
// bumps variables in that order.
func (s *Solver) propagate() clauseRef {
	arena := s.arena
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true
		s.qhead++
		s.stats.Propagations++
		notP := p.Neg()
		ws := s.watches[p]
		j := 0 // ws[:j] is the list as kept so far
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			bv := s.value(w.blocker)
			if bv == lTrue {
				ws[j] = w
				j++
				continue
			}
			ref, first := w.ref, w.blocker
			if ref < 0 {
				// Two-literal clause {blocker, ¬p}: resolved here, at its
				// place in the list, without a visit to the arena.
				ref = ^ref
				ws[j] = w
				j++
				if bv == lFalse {
					arena[ref+1], arena[ref+2] = first, notP
				}
			} else {
				n := clauseRef(arena[ref] >> hdrShift)
				lits := arena[ref+1 : ref+1+n]
				// Ensure the false literal (¬p) is at position 1.
				if lits[0] == notP {
					lits[0], lits[1] = lits[1], notP
				}
				first = lits[0]
				if first != w.blocker && s.value(first) == lTrue {
					ws[j] = watcher{ref, first}
					j++
					continue
				}
				// Look for a new literal to watch.
				for k := 2; k < len(lits); k++ {
					if l := lits[k]; s.value(l) != lFalse {
						lits[1], lits[k] = l, notP
						s.watches[l.Neg()] = append(s.watches[l.Neg()], watcher{ref, first})
						continue nextWatcher
					}
				}
				ws[j] = watcher{ref, first}
				j++
			}
			// Clause is unit or conflicting.
			if s.value(first) == lFalse {
				// Keep the remaining watchers and bail.
				j += copy(ws[j:], ws[i+1:])
				s.watches[p] = ws[:j]
				s.qhead = len(s.trail)
				return ref
			}
			s.enqueue(first, ref)
		}
		s.watches[p] = ws[:j]
	}
	return nilClause
}

// analyze performs first-UIP conflict analysis, returning the learnt clause
// (asserting literal first) and the backtrack level. The clause is the
// solver's scratch buffer, valid until the next call.
func (s *Solver) analyze(confl clauseRef) ([]Lit, int32) {
	learnt := append(s.learntBuf[:0], 0) // slot 0 reserved for the asserting literal
	pathC := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	lits := s.lits(confl)
	for {
		if s.arena[confl]&hdrLearnt != 0 {
			s.bumpClause(confl)
		}
		for _, q := range lits {
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
		lits = s.reasonLits(p)[1:] // skip the resolved literal itself
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
	s.learntBuf = learnt
	return learnt, btLevel
}

// litRedundant reports whether l is implied by the other literals of the
// learnt clause (recursive reason-side check, conservative).
func (s *Solver) litRedundant(l Lit) bool {
	stack := append(s.redundantStack[:0], l)
	top := len(s.analyzeToClear)
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		// The stacked literals are false; it is ¬p the reason implied.
		for _, q := range s.reasonLits(p.Neg())[1:] {
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
				s.redundantStack = stack
				return false
			}
			s.seen[v] = true
			s.analyzeToClear = append(s.analyzeToClear, q)
			stack = append(stack, q)
		}
	}
	s.redundantStack = stack
	return true
}

func (s *Solver) bumpVar(v Var) {
	act := s.order.activity
	act[v] += s.varInc
	if act[v] > 1e100 {
		for i := range act {
			act[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) decayVar() { s.varInc /= s.opts.VarDecay }

func (s *Solver) bumpClause(ref clauseRef) {
	a := s.clauseActivity(ref) + s.claInc
	s.setClauseActivity(ref, a)
	if a > 1e20 {
		for _, r := range s.learnts {
			s.setClauseActivity(r, s.clauseActivity(r)*1e-20)
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
	s.lbdGen++
	if s.lbdGen == 0 { // wrapped: stale stamps could match again
		clear(s.lbdStamp)
		s.lbdGen = 1
	}
	n := int32(0)
	for _, l := range lits {
		if lv := s.level[l.Var()]; s.lbdStamp[lv] != s.lbdGen {
			s.lbdStamp[lv] = s.lbdGen
			n++
		}
	}
	return n
}

// reduceDB removes roughly half of the learnt clauses, keeping the most
// active / lowest-LBD ones and any currently used as reasons.
func (s *Solver) reduceDB() {
	if len(s.learnts) < 100 {
		return
	}
	// Worst first: highest LBD, then lowest activity.
	sortRefs(s.learnts, func(a, b clauseRef) bool {
		if la, lb := s.lbd(a), s.lbd(b); la != lb {
			return la > lb
		}
		return s.clauseActivity(a) < s.clauseActivity(b)
	})
	limit := len(s.learnts) / 2
	kept := s.learnts[:0]
	for i, r := range s.learnts {
		if i < limit && s.lbd(r) > 2 && len(s.lits(r)) > 2 && !s.locked(r) {
			s.removeClause(r)
		} else {
			kept = append(kept, r)
		}
	}
	s.learnts = kept
	s.maybeCompact()
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
	// Sized from every clause ever committed, deleted ones included.
	learntCap := float64(s.stored)/3 + 1000
	sincePoll := 0
	// A level is an assumption or a decision on a distinct variable
	// (variable 0 included, see ResetSearchState).
	if n := s.numVars + len(assumptions) + 2; len(s.lbdStamp) < n {
		s.lbdStamp = append(s.lbdStamp, make([]uint32, n-len(s.lbdStamp))...)
	}

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
				lbd := s.computeLBD(learnt)
				if int64(lbd) > s.stats.MaxLBD {
					s.stats.MaxLBD = int64(lbd)
				}
				s.exportLearnt(learnt, lbd)
				ref := s.storeClause(learnt)
				s.commitClause(ref, len(learnt), true, lbd)
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
			for _, q := range s.reasonLits(s.trail[i])[1:] {
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

// sortRefs is a shell sort, unstable: which of two equally bad learnt
// clauses reduceDB deletes depends on these exact gaps and moves, so it
// stays as it is for as long as search is meant to stay as it is.
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
	clear(s.order.activity)
	for i := range s.polar {
		s.polar[i] = true
	}
	s.varInc = 1.0
	// Rebuild the branching heap from scratch in variable-creation order:
	// with equal activities the heap ties break by insertion order, and
	// residual ordering from the abandoned search's trail unwinding would
	// otherwise scramble the encoding's natural variable structure.
	// The walk starts at the reserved variable 0, as it always has: every
	// later solve spends one decision on it. Dropping it would move the
	// pinned search counts, so it waits for a change that means to.
	s.refillOrder(0)
}

// refillOrder rebuilds the branching heap from the unassigned variables
// first, first+1, … in that order: with equal activities the heap breaks
// ties by insertion order.
func (s *Solver) refillOrder(first Var) {
	s.order.clear()
	for v := int(first); v < len(s.assigns); v++ {
		if s.assigns[v] == lUndef {
			s.order.push(Var(v))
		}
	}
}

// LearntMark returns a watermark: the serial the next stored clause will
// carry. Passing it to PurgeLearntsSince later deletes exactly the learnt
// clauses recorded after this call, however often the arena has been
// compacted in between.
func (s *Solver) LearntMark() int { return s.stored }

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
	purged := 0
	kept := s.learnts[:0]
	for _, r := range s.learnts {
		if s.serial(r) >= mark && !s.locked(r) {
			s.removeClause(r)
			purged++
		} else {
			kept = append(kept, r)
		}
	}
	s.learnts = kept
	s.maybeCompact()
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

package sat

import "math"

// The clause arena. Every clause, problem or learnt, lives in one []Lit:
//
//	arena[ref]            header: size<<2 | learnt<<1 | deleted
//	arena[ref+1..ref+size] the literals, the two watched ones first
//	learnt clauses only, after the literals:
//	  +1                  LBD
//	  +2, +3              activity, a float64 as two words (low first)
//	  +4                  serial: how many clauses had been stored before it
//
// so visiting a clause is one dependent load and the literal slice of any
// clause is arena[ref+1 : ref+1+size]. The activity keeps its float64
// width because reduceDB orders by (LBD, activity): narrowing it would
// merge activities that differ today and reorder the deletions. Offset 0
// holds a dummy word, which keeps the complement of every ref below
// nilClause (see watcher).
const (
	hdrDeleted  = 1
	hdrLearnt   = 2
	hdrShift    = 2
	learntExtra = 4 // words after the literals of a learnt clause
)

// compactWasteDen sets when deleted clauses are squeezed out: once they
// hold more than 1/compactWasteDen of the arena (checked after reduceDB
// and PurgeLearntsSince, the only deleters). Measured on the two
// reduction-heavy kernels, PHP(8) and 3-SAT n=200 seed 4 (15 331 and
// 25 897 deletions): never compacting peaks the arena at 1.80 / 1.85 MB
// and allocates 11.7 / 11.5 MB per solve; 1/2, 1/4 and 1/8 all peak it at
// 0.35 / 0.33 MB and allocate 3.2 / 2.6 MB, in 14-17 compactions, and no
// setting moves the wall clock outside run-to-run noise (220-250 ms,
// 330-365 ms). A reduction of a learnt-dominated arena frees over half of
// it, so it passes any of the three; 1/4 is the middle one. A purge of a
// few thousand lemmas out of a 300 k-word problem formula never passes it,
// and none of the five harness workloads reaches it at all.
const compactWasteDen = 4

// footprint is the number of arena words the clause with header h covers.
func footprint(h Lit) int {
	n := 1 + int(h>>hdrShift)
	if h&hdrLearnt != 0 {
		n += learntExtra
	}
	return n
}

// lits returns the clause's literals, aliasing the arena.
func (s *Solver) lits(ref clauseRef) []Lit {
	n := clauseRef(s.arena[ref] >> hdrShift)
	return s.arena[ref+1 : ref+1+n : ref+1+n]
}

// extras returns the learnt-only words of a learnt clause.
func (s *Solver) extras(ref clauseRef) []Lit {
	x := ref + 1 + clauseRef(s.arena[ref]>>hdrShift)
	return s.arena[x : x+learntExtra : x+learntExtra]
}

func (s *Solver) lbd(ref clauseRef) int32 { return int32(s.extras(ref)[0]) }

func (s *Solver) clauseActivity(ref clauseRef) float64 {
	x := s.extras(ref)
	return math.Float64frombits(uint64(uint32(x[1])) | uint64(uint32(x[2]))<<32)
}

func (s *Solver) setClauseActivity(ref clauseRef, a float64) {
	x, bits := s.extras(ref), math.Float64bits(a)
	x[1], x[2] = Lit(uint32(bits)), Lit(uint32(bits>>32))
}

// serial orders learnt clauses by creation across compactions, which an
// arena offset cannot: it is what LearntMark hands out.
func (s *Solver) serial(ref clauseRef) int { return int(s.extras(ref)[3]) }

// stageClause normalizes lits at the top level straight into the arena
// tail, behind a blank header: duplicates and falsified literals are
// dropped. keep is false when the clause is satisfied or a tautology; the
// tail is then already cut back. Otherwise the caller either commits the
// n staged literals (commitClause) or cuts the arena back to ref.
func (s *Solver) stageClause(lits []Lit) (ref clauseRef, n int, keep bool) {
	start := len(s.arena)
	s.arena = append(s.arena, 0)
next:
	for _, l := range lits {
		switch s.value(l) {
		case lTrue:
			s.arena = s.arena[:start]
			return 0, 0, false // already satisfied at top level
		case lFalse:
			continue // drop falsified literal
		}
		for _, o := range s.arena[start+1:] {
			if o == l {
				continue next
			}
			if o == l.Neg() {
				s.arena = s.arena[:start]
				return 0, 0, false // tautology
			}
		}
		s.arena = append(s.arena, l)
	}
	return clauseRef(start), len(s.arena) - start - 1, true
}

// storeClause copies an already normalized clause of at least two literals
// into the arena tail, ready for commitClause.
func (s *Solver) storeClause(lits []Lit) clauseRef {
	ref := clauseRef(len(s.arena))
	s.arena = append(s.arena, 0)
	s.arena = append(s.arena, lits...)
	return ref
}

// commitClause turns the n >= 2 literals at the arena tail behind ref into
// a live clause: writes the header, appends a learnt clause's extras, and
// watches its first two literals.
func (s *Solver) commitClause(ref clauseRef, n int, learnt bool, lbd int32) {
	h := Lit(n) << hdrShift
	if learnt {
		h |= hdrLearnt
		s.arena = append(s.arena, Lit(lbd), 0, 0, Lit(s.stored))
		s.learnts = append(s.learnts, ref)
		s.stats.Learnt++
	}
	if len(s.arena) > math.MaxInt32 {
		panic("sat: clause arena exceeds 2^31 words")
	}
	s.arena[ref] = h
	s.stored++
	s.live++

	tag := ref
	if n == 2 {
		tag = ^ref
	}
	l0, l1 := s.arena[ref+1], s.arena[ref+2]
	s.watches[l0.Neg()] = append(s.watches[l0.Neg()], watcher{tag, l1})
	s.watches[l1.Neg()] = append(s.watches[l1.Neg()], watcher{tag, l0})
}

// removeClause unwatches a learnt clause and marks it deleted; its words
// stay until the next compaction. The caller drops it from s.learnts.
//
// The unwatching stays a scan of two watch lists with a swap-with-last
// removal: rebuilding the lists instead would reorder them, and the order
// of a watch list is the order propagation finds implications in.
func (s *Solver) removeClause(ref clauseRef) {
	lits := s.lits(ref)
	tag := ref
	if len(lits) == 2 {
		tag = ^ref
	}
	for _, l := range lits[:2] {
		ws := s.watches[l.Neg()]
		for i := range ws {
			if ws[i].ref == tag {
				ws[i] = ws[len(ws)-1]
				s.watches[l.Neg()] = ws[:len(ws)-1]
				break
			}
		}
	}
	s.wasted += footprint(s.arena[ref])
	s.arena[ref] |= hdrDeleted
	s.live--
	s.stats.Removed++
}

// locked reports whether the clause is the reason of a current assignment
// and so must outlive a reduction. The implied literal of a reason clause
// is its first — except that a two-literal clause, which propagation never
// visits, may still hold it second.
func (s *Solver) locked(ref clauseRef) bool {
	lits := s.lits(ref)
	if l := lits[0]; s.reason[l.Var()] == ref && s.value(l) == lTrue {
		return true
	}
	if len(lits) == 2 {
		l := lits[1]
		return s.reason[l.Var()] == ref && s.value(l) == lTrue
	}
	return false
}

// reasonLits returns the literals of the clause that implied l, with l
// first. Propagation leaves a visited clause in that order; a two-literal
// clause is implied from its watch entry without a visit, so its order is
// settled here, where it is first read.
func (s *Solver) reasonLits(l Lit) []Lit {
	lits := s.lits(s.reason[l.Var()])
	if lits[0] != l {
		lits[0], lits[1] = lits[1], lits[0]
	}
	return lits
}

// maybeCompact squeezes deleted clauses out of the arena once they hold
// more than 1/compactWasteDen of it. Live clauses slide down in order and
// every ref — watch lists (entries rewritten in place, list order
// untouched), reasons of assigned variables, s.learnts — follows, so the
// search cannot tell. Safe at any decision level between propagations.
func (s *Solver) maybeCompact() {
	if s.wasted*compactWasteDen <= len(s.arena) {
		return
	}
	// Pass 1: give every live clause its new offset. The offset goes,
	// complemented (so negative, unlike any header), where the header
	// was; the headers wait in hdrs, in order.
	hdrs := make([]Lit, 0, s.live)
	to := 1
	for r := 1; r < len(s.arena); {
		h := s.arena[r]
		n := footprint(h)
		if h&hdrDeleted == 0 {
			hdrs = append(hdrs, h)
			s.arena[r] = ^Lit(to)
			to += n
		}
		r += n
	}
	// Pass 2: forward every ref.
	moved := func(r clauseRef) clauseRef { return ^clauseRef(s.arena[r]) }
	for _, ws := range s.watches {
		for i := range ws {
			if r := ws[i].ref; r < 0 {
				ws[i].ref = ^moved(^r)
			} else {
				ws[i].ref = moved(r)
			}
		}
	}
	for _, l := range s.trail {
		if v := l.Var(); s.reason[v] != nilClause {
			s.reason[v] = moved(s.reason[v])
		}
	}
	for i, r := range s.learnts {
		s.learnts[i] = moved(r)
	}
	// Pass 3: restore the headers and slide the clauses down.
	for r := 1; r < len(s.arena); {
		h := s.arena[r]
		if h >= 0 {
			r += footprint(h) // deleted: its header was left alone
			continue
		}
		s.arena[r], hdrs = hdrs[0], hdrs[1:]
		n := footprint(s.arena[r])
		copy(s.arena[^h:], s.arena[r:r+n])
		r += n
	}
	s.arena = s.arena[:to]
	s.wasted = 0
}

// Clone returns an independent deep copy of the solver: clause arena,
// learnt database, watch lists, top-level trail, phase saving and VSIDS
// state. The copy shares no mutable state with the original, so both can
// solve concurrently. Must be called at decision level 0 (between Solve
// calls); returns nil otherwise. The clone does not inherit a proof
// recorder, and its counters start at zero.
func (s *Solver) Clone() *Solver {
	if s.decisionLevel() != 0 {
		return nil
	}
	c := &Solver{
		opts:    s.opts,
		numVars: s.numVars,
		wasted:  s.wasted,
		stored:  s.stored,
		live:    s.live,
		qhead:   s.qhead,
		varInc:  s.varInc,
		claInc:  s.claInc,
		okay:    s.okay,
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

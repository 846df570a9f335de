package sat

import (
	"fmt"
	"sort"
	"testing"
	"unsafe"
)

// checkArena asserts the clause store's invariants at decision level 0:
// the headers tile the arena, the counters match what the walk finds,
// every watcher resolves to a live clause that holds both the complement
// of the watched literal (among its first two) and the blocker, every live
// clause is watched exactly twice, and learnts / reasons point at live
// clauses.
func checkArena(t *testing.T, s *Solver) {
	t.Helper()
	live := map[int]int{} // header offset of a live clause -> watchers seen
	liveWords, deadWords, learnt := 0, 0, 0
	r := 1
	for r < len(s.arena) {
		h := s.arena[r]
		if h < 0 || h>>hdrShift < 2 {
			t.Fatalf("offset %d: word %#x is not a clause header", r, uint32(h))
		}
		if h&hdrDeleted != 0 {
			deadWords += footprint(h)
		} else {
			live[r] = 0
			liveWords += footprint(h)
			if h&hdrLearnt != 0 {
				learnt++
			}
		}
		r += footprint(h)
	}
	if r != len(s.arena) {
		t.Fatalf("headers overrun the arena: walk ended at %d of %d", r, len(s.arena))
	}
	if deadWords != s.wasted || len(live) != s.live || learnt != len(s.learnts) {
		t.Fatalf("counters drifted: wasted %d (walk %d), live %d (walk %d), learnts %d (walk %d)",
			s.wasted, deadWords, s.live, len(live), len(s.learnts), learnt)
	}
	if 1+liveWords+deadWords != len(s.arena) {
		t.Fatalf("arena holds %d words, clauses cover %d", len(s.arena), 1+liveWords+deadWords)
	}
	for wl, ws := range s.watches {
		for _, w := range ws {
			ref, binary := w.ref, false
			if ref < 0 {
				ref, binary = ^ref, true
			}
			if _, ok := live[int(ref)]; !ok {
				t.Fatalf("watcher of %v: ref %d is not a live clause", Lit(wl), ref)
			}
			live[int(ref)]++
			lits := s.lits(ref)
			if binary != (len(lits) == 2) {
				t.Fatalf("clause %d has %d literals but its watcher's tag says binary=%v", ref, len(lits), binary)
			}
			if lits[0] != Lit(wl).Neg() && lits[1] != Lit(wl).Neg() {
				t.Fatalf("clause %d %v is on the list of %v without watching its complement", ref, lits, Lit(wl))
			}
			holds := false
			for _, l := range lits {
				holds = holds || l == w.blocker
			}
			if !holds {
				t.Fatalf("clause %d %v does not hold its blocker %v", ref, lits, w.blocker)
			}
		}
	}
	for ref, n := range live {
		if n != 2 {
			t.Fatalf("clause %d %v has %d watchers", ref, s.lits(clauseRef(ref)), n)
		}
	}
	for _, ref := range s.learnts {
		if _, ok := live[int(ref)]; !ok || s.arena[ref]&hdrLearnt == 0 {
			t.Fatalf("s.learnts holds %d, not a live learnt clause", ref)
		}
	}
	for _, l := range s.trail {
		if ref := s.reason[l.Var()]; ref != nilClause {
			if _, ok := live[int(ref)]; !ok {
				t.Fatalf("reason of %v: ref %d is not a live clause", l, ref)
			}
			if lits := s.lits(ref); lits[0] != l && (len(lits) > 2 || lits[1] != l) {
				t.Fatalf("reason %d %v of %v does not lead with it", ref, lits, l)
			}
		}
	}
}

// compacted reports whether the arena has been compacted: fewer deleted
// clauses lie in it than the solver has removed.
func compacted(s *Solver) bool {
	dead := int64(0)
	for r := 1; r < len(s.arena); r += footprint(s.arena[r]) {
		if s.arena[r]&hdrDeleted != 0 {
			dead++
		}
	}
	return dead < s.stats.Removed
}

// learntSet renders the live learnt clauses, literals sorted, as a multiset.
func learntSet(s *Solver) map[string]int {
	set := map[string]int{}
	for _, ref := range s.learnts {
		lits := append([]Lit(nil), s.lits(ref)...)
		sort.Slice(lits, func(i, j int) bool { return lits[i] < lits[j] })
		set[fmt.Sprint(lits)]++
	}
	return set
}

func TestArenaLayout(t *testing.T) {
	if got := unsafe.Sizeof(watcher{}); got != 8 {
		t.Errorf("watcher is %d bytes, want 8", got)
	}
	if got := unsafe.Sizeof(Lit(0)); got != 4 {
		t.Errorf("Lit is %d bytes, want 4", got)
	}
	s := NewSolver()
	a, b, c := PosLit(s.NewVar()), PosLit(s.NewVar()), PosLit(s.NewVar())
	s.AddClause(a, b, c)
	s.AddClause(a.Neg(), b)
	s.AddClause(a, a.Neg(), c)    // tautology: leaves nothing behind
	s.AddClause(b, b, c.Neg(), b) // duplicates dropped
	if want := 1 + (1 + 3) + (1 + 2) + (1 + 2); len(s.arena) != want {
		t.Errorf("arena holds %d words, want %d: %v", len(s.arena), want, s.arena)
	}
	if s.NumClauses() != 3 || s.LearntClauses() != 0 {
		t.Errorf("NumClauses %d LearntClauses %d, want 3 0", s.NumClauses(), s.LearntClauses())
	}
	s.AddLearnt(a, c)
	if want := 11 + (1 + 2 + learntExtra); len(s.arena) != want || s.LearntClauses() != 1 || s.NumClauses() != 4 {
		t.Errorf("after a learnt: %d words (want %d), %d learnt, %d clauses", len(s.arena), want, s.LearntClauses(), s.NumClauses())
	}
	checkArena(t, s)
}

// TestCompactArenaInvariants drives reduceDB hard enough that the arena is
// compacted many times in mid-search (PHP(8) deletes 15 331 of its 18 664
// lemmas) and between budgeted solves under assumptions, and checks the
// store's invariants after each solve.
func TestCompactArenaInvariants(t *testing.T) {
	s := pigeonhole(8)
	if s.Solve() != Unsat {
		t.Fatal("PHP(8) not Unsat")
	}
	if !compacted(s) {
		t.Fatal("PHP(8) never compacted the arena")
	}
	checkArena(t, s)

	s = seeded3SAT(4, 200, 840)
	for i := 0; i < 6; i++ {
		st := s.SolveWithBudget(1500, MkLit(Var(10+i), i%2 == 0), PosLit(Var(50+i)))
		if st == Sat {
			t.Fatalf("round %d: an Unsat formula answered Sat", i)
		}
		checkArena(t, s)
	}
	if !compacted(s) {
		t.Fatal("budgeted rounds never compacted the arena")
	}
	if s.wasted*compactWasteDen > len(s.arena) {
		t.Errorf("arena left %d of %d words dead, past the 1/%d threshold", s.wasted, len(s.arena), compactWasteDen)
	}
	// A compaction with nothing dead afterwards leaves exactly the live
	// clauses' footprints (checkArena) and nothing else.
	before := len(s.arena)
	s.reduceDB()
	if s.wasted != 0 || len(s.arena) >= before {
		t.Errorf("reduceDB at level 0: arena %d -> %d words, %d dead; want a compaction", before, len(s.arena), s.wasted)
	}
	checkArena(t, s)
}

// TestLearntMarkSurvivesCompaction holds one mark across budgeted solves
// that compact the arena — as synth.solveSymPhased does — and checks the
// purge deletes exactly the lemmas recorded after the mark.
func TestLearntMarkSurvivesCompaction(t *testing.T) {
	s := seeded3SAT(4, 200, 840)
	s.SolveWithBudget(1200, PosLit(3))
	old := learntSet(s)
	mark := s.LearntMark()
	removed := s.Stats().Removed
	for i := 0; i < 3; i++ {
		s.SolveWithBudget(1500, NegLit(Var(20+i)))
	}
	if s.Stats().Removed == removed || !compacted(s) {
		t.Fatalf("no reduction compacted the arena after the mark: %+v", s.Stats())
	}
	before := learntSet(s)
	purged := s.PurgeLearntsSince(mark)
	after := learntSet(s)
	checkArena(t, s)

	kept := 0
	for c, n := range before {
		if old[c] > 0 {
			kept += n
			if after[c] != n {
				t.Fatalf("lemma %s from before the mark: %d copies before the purge, %d after", c, n, after[c])
			}
		}
	}
	if kept == 0 {
		t.Fatal("no lemma from before the mark survived the reductions: the test shows nothing")
	}
	// What else survives must be locked: the reason of a top-level literal.
	for _, ref := range s.learnts {
		if s.serial(ref) >= mark && !s.locked(ref) {
			t.Errorf("lemma %v recorded after the mark survived the purge unlocked", s.lits(ref))
		}
	}
	total := func(m map[string]int) (n int) {
		for _, k := range m {
			n += k
		}
		return n
	}
	if purged == 0 || purged != total(before)-total(after) {
		t.Errorf("purged %d, learnts went %d -> %d", purged, total(before), total(after))
	}
	if s.LearntClauses() != total(after) {
		t.Errorf("LearntClauses %d, want %d", s.LearntClauses(), total(after))
	}
}

// TestCloneIndependent checks the deep-copy contract: a clone answers
// the same query as the original, and mutating the clone's clause
// database (to the point of unsatisfiability) leaves the original
// untouched.
func TestCloneIndependent(t *testing.T) {
	s := pigeonhole(4)
	c := s.Clone()
	if c == nil {
		t.Fatal("Clone returned nil at level 0")
	}
	if got := c.Solve(); got != Unsat {
		t.Fatalf("clone solve = %v, want Unsat", got)
	}

	// A Sat formula: clone, poison the clone, original survives.
	s2 := NewSolver()
	a, b := s2.NewVar(), s2.NewVar()
	s2.AddClause(PosLit(a), PosLit(b))
	c2 := s2.Clone()
	c2.AddClause(PosLit(a))
	c2.AddClause(NegLit(a))
	c2.AddClause(PosLit(b))
	c2.AddClause(NegLit(b))
	if got := c2.Solve(); got != Unsat {
		t.Fatalf("poisoned clone = %v, want Unsat", got)
	}
	if got := s2.Solve(); got != Sat {
		t.Fatalf("original after clone poisoning = %v, want Sat", got)
	}
}

// TestCloneAfterSolve clones a solver that already carries learnt
// clauses and a saved trail, then solves both under assumptions — the
// answers must agree.
func TestCloneAfterSolve(t *testing.T) {
	s := pigeonhole(5)
	s.SetBudget(200, 0)
	s.Solve() // Unknown or Unsat; either way the solver now has learnts.
	s.SetBudget(0, 0)
	c := s.Clone()
	if c == nil {
		t.Fatal("Clone returned nil between solves")
	}
	if got, want := c.Solve(), s.Solve(); got != want {
		t.Fatalf("clone = %v, original = %v", got, want)
	}
}

// TestCloneAfterCompaction: a clone of a compacted solver searches exactly
// like the original.
func TestCloneAfterCompaction(t *testing.T) {
	s := seeded3SAT(4, 200, 840)
	for i := 0; i < 3; i++ {
		s.SolveWithBudget(1500, PosLit(Var(30+i)))
	}
	if !compacted(s) {
		t.Fatal("arena never compacted")
	}
	c := s.Clone()
	checkArena(t, c)
	base := s.Stats()
	stS, stC := s.Solve(NegLit(7)), c.Solve(NegLit(7))
	if stS != Unsat || stC != stS {
		t.Fatalf("original %v, clone %v, want both Unsat", stS, stC)
	}
	if got, want := countsOf(c.Stats()), countsOf(s.Stats().Since(base)); got != want {
		t.Errorf("clone searched differently:\n clone    %+v\n original %+v", got, want)
	}
	checkArena(t, s)
	checkArena(t, c)
}

// TestProofChecksAcrossCompaction forces a reduction and a compaction into
// a proof-recorded PHP(6) refutation (small enough for the quadratic RUP
// checker) and checks the proof still verifies.
func TestProofChecksAcrossCompaction(t *testing.T) {
	const n = 6
	s := NewSolver()
	s.StartProof()
	p := make([][]Lit, n+1)
	for i := range p {
		p[i] = make([]Lit, n)
		for j := range p[i] {
			p[i][j] = PosLit(s.NewVar())
		}
		s.AddClause(p[i]...)
	}
	for j := 0; j < n; j++ {
		for i1 := 0; i1 <= n; i1++ {
			for i2 := i1 + 1; i2 <= n; i2++ {
				s.AddClause(p[i1][j].Neg(), p[i2][j].Neg())
			}
		}
	}
	if st := s.SolveWithBudget(300); st != Unknown {
		t.Fatalf("PHP(%d) answered %v within 300 conflicts", n, st)
	}
	s.reduceDB()
	if !compacted(s) {
		t.Fatal("reduceDB did not compact the arena")
	}
	checkArena(t, s)
	if s.Solve() != Unsat {
		t.Fatal("want Unsat")
	}
	if err := s.CheckProof(); err != nil {
		t.Fatal(err)
	}
}

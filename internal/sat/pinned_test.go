package sat

import "testing"

// searchCounts is the part of Stats that identifies one search: two cores
// that agree on all six did the same conflicts, decisions, propagations,
// restarts, learnt-clause additions and deletions.
type searchCounts struct {
	Conflicts, Decisions, Propagations, Restarts, Learnt, Removed int64
}

func countsOf(st Stats) searchCounts {
	return searchCounts{st.Conflicts, st.Decisions, st.Propagations, st.Restarts, st.Learnt, st.Removed}
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

// seeded3SAT builds a uniform random 3-SAT formula (three distinct
// variables per clause) from a splitmix64 stream, so the instance depends
// on nothing but the seed.
func seeded3SAT(seed uint64, nVars, nClauses int) *Solver {
	s := NewSolver()
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	rnd := seed
	next := func(n int) int {
		rnd = splitmix64(rnd)
		return int(rnd>>33) % n
	}
	for i := 0; i < nClauses; i++ {
		var vs [3]int
		for k := 0; k < 3; {
			v := 1 + next(nVars)
			dup := false
			for _, o := range vs[:k] {
				dup = dup || o == v
			}
			if !dup {
				vs[k] = v
				k++
			}
		}
		var cl [3]Lit
		for k, v := range vs {
			cl[k] = MkLit(Var(v), next(2) == 1)
		}
		s.AddClause(cl[:]...)
	}
	return s
}

// modelHash folds the model of the last Sat answer into one word (0 when
// there is none), so a pinned search also pins the assignment it ended on.
func modelHash(s *Solver) uint64 {
	if s.model == nil {
		return 0
	}
	h := uint64(1)
	for v := 1; v <= s.NumVars(); v++ {
		h = splitmix64(h)
		if s.Value(Var(v)) {
			h ^= uint64(v)
		}
	}
	return h
}

// TestSearchCountsPinned pins the search itself. The expected literals
// were recorded from the pointer-per-clause core that preceded the flat
// arena; a storage change must reproduce them exactly. If a change is
// meant to alter search (a new restart policy, a tiered learnt database),
// re-record them in that change and say so.
func TestSearchCountsPinned(t *testing.T) {
	check := func(name string, got Stats, want searchCounts) {
		t.Helper()
		if g := countsOf(got); g != want {
			t.Errorf("%s: search moved\n got  %+v\n want %+v", name, g, want)
		}
	}

	for _, tc := range []struct {
		n    int
		want searchCounts
	}{
		{7, searchCounts{3768, 4418, 53776, 9, 3763, 2472}},
		{8, searchCounts{18669, 21724, 235124, 30, 18664, 15331}},
	} {
		s := pigeonhole(tc.n)
		if s.Solve() != Unsat {
			t.Fatalf("PHP(%d) not Unsat", tc.n)
		}
		check("php", s.Stats(), tc.want)
	}

	for i, want := range []struct {
		st    Status
		model uint64 // modelHash of the Sat answers
		want  searchCounts
	}{
		{Sat, 0x4b69cc4116e97ffb, searchCounts{2682, 3287, 105726, 6, 2682, 1344}},
		{Unsat, 0, searchCounts{13035, 15257, 499516, 27, 13024, 10185}},
		{Sat, 0x1dba91dec260de08, searchCounts{263, 368, 9547, 1, 263, 0}},
		{Unsat, 0, searchCounts{30072, 35372, 1137060, 50, 30063, 25897}},
		{Sat, 0x198683199e9045a2, searchCounts{9413, 11257, 376663, 18, 9413, 7297}},
	} {
		s := seeded3SAT(uint64(i+1), 200, 840)
		if st, h := s.Solve(), modelHash(s); st != want.st || h != want.model {
			t.Errorf("3-SAT seed %d: %v model %#x, want %v %#x", i+1, st, h, want.st, want.model)
		}
		check("3-SAT", s.Stats(), want.want)
	}

	// An incremental sequence the way synth.solveSymPhased drives a
	// long-lived solver: budgeted solves under assumptions that overflow
	// the learnt database (reduceDB), a mark, more lemmas, a clone, a
	// purge back to the mark with a heuristic reset, an imported lemma and
	// a late problem clause; then both solvers run to completion.
	s := seeded3SAT(4, 200, 840)
	a := []Lit{PosLit(3), NegLit(17), PosLit(42), NegLit(99)}
	st1 := s.SolveWithBudget(2500, a[0], a[1])
	mark := s.LearntMark()
	st2 := s.SolveWithBudget(2500, a[2], a[3])
	if st1 != Unknown || st2 != Unknown {
		t.Fatalf("budgeted phases answered %v, %v: the sequence no longer overflows the learnt database", st1, st2)
	}
	c := s.Clone()
	purged := s.PurgeLearntsSince(mark)
	s.ResetSearchState()
	s.AddLearnt(PosLit(3), NegLit(3), PosLit(5)) // tautology: dropped
	s.AddClause(PosLit(7), NegLit(150), PosLit(199))
	stS := s.Solve(a[1])
	stC := c.Solve(a[1])
	if purged != 808 || stS != Unsat || stC != Unsat {
		t.Errorf("incremental: purged %d status %v clone %v, want 808 UNSAT UNSAT", purged, stS, stC)
	}
	for _, core := range [][]Lit{s.FailedAssumptions(), c.FailedAssumptions()} {
		if len(core) != 1 || core[0] != a[1] {
			t.Errorf("incremental: core %v, want [%v]", core, a[1])
		}
	}
	check("incremental", s.Stats(), searchCounts{13399, 15793, 511813, 27, 13398, 11194})
	check("incremental clone", c.Stats(), searchCounts{7086, 8368, 260372, 14, 7085, 4874})
}

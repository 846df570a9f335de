package sat

import "testing"

// fuzzReader decodes fuzz bytes into small CNF instances. A byte below 128
// is a literal (bit 0 the sign, the rest the variable, folded onto the
// instance's variables); a byte from 128 up ends a clause.
type fuzzReader struct{ data []byte }

func (r *fuzzReader) more() bool { return len(r.data) > 0 }

func (r *fuzzReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *fuzzReader) lit(nVars int) Lit {
	b := r.byte()
	return MkLit(Var(1+int(b>>1)%nVars), b&1 == 1)
}

// clause reads literals up to a terminator, the end of input, or five.
func (r *fuzzReader) clause(nVars int) []Lit {
	var c []Lit
	for len(c) < 5 && r.more() && r.data[0] < 128 {
		c = append(c, r.lit(nVars))
	}
	if r.more() && r.data[0] >= 128 {
		r.byte()
	}
	return c
}

// bruteSat decides cls plus the units by enumeration (nVars <= 12).
func bruteSat(nVars int, cls [][]Lit, units []Lit) bool {
	holds := func(m int, l Lit) bool { return (m>>(l.Var()-1)&1 == 1) != l.Sign() }
next:
	for m := 0; m < 1<<nVars; m++ {
		for _, u := range units {
			if !holds(m, u) {
				continue next
			}
		}
		for _, c := range cls {
			ok := false
			for _, l := range c {
				ok = ok || holds(m, l)
			}
			if !ok {
				continue next
			}
		}
		return true
	}
	return false
}

// checkAnswer solves under the assumptions and holds the answer against
// brute force: a model must satisfy every clause and assumption; an Unsat
// must be one, with a failed-assumption core that is a subset of the
// assumptions and Unsat on its own.
func checkAnswer(t *testing.T, s *Solver, nVars int, cls [][]Lit, assume []Lit) {
	t.Helper()
	switch st := s.Solve(assume...); st {
	case Sat:
		for _, l := range assume {
			if !s.ValueLit(l) {
				t.Fatalf("model falsifies assumption %v", l)
			}
		}
		for _, c := range cls {
			ok := false
			for _, l := range c {
				ok = ok || s.ValueLit(l)
			}
			if !ok {
				t.Fatalf("model falsifies clause %v", c)
			}
		}
	case Unsat:
		if bruteSat(nVars, cls, assume) {
			t.Fatalf("Unsat under %v, but brute force finds a model of %v", assume, cls)
		}
		core := s.FailedAssumptions()
		given := litSet(assume)
		for _, l := range core {
			if !given[l] {
				t.Fatalf("core %v is not a subset of the assumptions %v", core, assume)
			}
		}
		if bruteSat(nVars, cls, core) {
			t.Fatalf("core %v of %v is satisfiable with %v", core, assume, cls)
		}
	default:
		t.Fatalf("unbudgeted solve answered %v", st)
	}
	checkArena(t, s)
}

// FuzzSolveVsBruteForce: one formula of at most 12 variables, one solve
// under up to three assumptions, judged by enumeration; a refutation that
// reached the empty clause must also pass the RUP checker.
func FuzzSolveVsBruteForce(f *testing.F) {
	f.Add([]byte{3, 0, 0, 2, 128, 1, 4, 128, 3, 5, 128, 0, 5, 128})
	f.Add([]byte{2, 2, 0, 3, 0, 2, 128, 1, 3, 128})
	f.Add([]byte{1, 1, 0, 0, 128, 1, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data}
		nVars := 1 + int(r.byte())%12
		s := NewSolver()
		proof := s.StartProof()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		var assume []Lit
		for n := int(r.byte()) % 4; n > 0; n-- {
			assume = append(assume, r.lit(nVars))
		}
		var cls [][]Lit
		for r.more() && len(cls) < 96 {
			c := r.clause(nVars)
			cls = append(cls, c)
			s.AddClause(c...)
		}
		checkAnswer(t, s, nVars, cls, assume)
		if proof.Complete() {
			if bruteSat(nVars, cls, nil) {
				t.Fatalf("proof ends in the empty clause but %v is satisfiable", cls)
			}
			if err := s.CheckProof(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// FuzzIncrementalVsBruteForce interleaves AddClause, Solve under
// assumptions, entailment-vetted AddLearnt, LearntMark/PurgeLearntsSince
// and Clone on one long-lived solver, and holds the solver and its latest
// clone against brute force at every solve.
func FuzzIncrementalVsBruteForce(f *testing.F) {
	f.Add([]byte{4, 0, 0, 2, 128, 5, 2, 1, 3, 4, 0, 1, 5, 128, 3, 0, 4, 128, 2, 1, 0, 4, 2, 0})
	f.Add([]byte{6, 0, 0, 2, 4, 128, 1, 1, 6, 128, 4, 3, 0, 6, 128, 5, 0, 3, 5, 128, 2, 2, 1, 7, 4, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data}
		nVars := 1 + int(r.byte())%12
		s := NewSolver()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		var clone *Solver
		var cls [][]Lit
		mark := -1
		solve := func(assume []Lit) {
			checkAnswer(t, s, nVars, cls, assume)
			if clone != nil {
				checkAnswer(t, clone, nVars, cls, assume)
			}
		}
		for steps := 0; r.more() && steps < 64; steps++ {
			switch r.byte() % 6 {
			case 0, 1:
				c := r.clause(nVars)
				cls = append(cls, c)
				s.AddClause(c...)
				if clone != nil {
					clone.AddClause(c...)
				}
			case 2:
				var assume []Lit
				for n := int(r.byte()) % 3; n > 0; n-- {
					assume = append(assume, r.lit(nVars))
				}
				solve(assume)
			case 3:
				c := r.clause(nVars)
				if len(c) == 0 || !s.Entailed(c...) {
					break
				}
				neg := make([]Lit, len(c))
				for i, l := range c {
					neg[i] = l.Neg()
				}
				if bruteSat(nVars, cls, neg) {
					t.Fatalf("Entailed accepted %v, which %v does not entail", c, cls)
				}
				s.AddLearnt(c...)
			case 4:
				if mark < 0 {
					mark = s.LearntMark()
				} else {
					s.PurgeLearntsSince(mark)
					mark = -1
				}
				checkArena(t, s)
			case 5:
				clone = s.Clone()
				checkArena(t, clone)
			}
		}
		solve(nil)
	})
}

package pb

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/sat"
)

// countModels enumerates all assignments of the first n variables that are
// consistent with the solver's constraints, by adding blocking clauses.
// Only usable for small n; destructive on the solver.
func countModels(s *sat.Solver, vars []sat.Var) int {
	count := 0
	for s.Solve() == sat.Sat {
		count++
		if count > 1<<uint(len(vars)) {
			panic("model explosion: blocking clause bug")
		}
		block := make([]sat.Lit, len(vars))
		for i, v := range vars {
			if s.Value(v) {
				block[i] = sat.NegLit(v)
			} else {
				block[i] = sat.PosLit(v)
			}
		}
		if !s.AddClause(block...) {
			break
		}
	}
	return count
}

func mkVars(s *sat.Solver, n int) ([]sat.Var, []sat.Lit) {
	vars := make([]sat.Var, n)
	lits := make([]sat.Lit, n)
	for i := range vars {
		vars[i] = s.NewVar()
		lits[i] = sat.PosLit(vars[i])
	}
	return vars, lits
}

// choose computes the binomial coefficient C(n, k).
func choose(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
	}
	return r
}

func sumChoose(n, lo, hi int) int {
	total := 0
	for k := lo; k <= hi; k++ {
		total += choose(n, k)
	}
	return total
}

func TestExactlyOneModelCount(t *testing.T) {
	for n := 1; n <= 8; n++ {
		s := sat.NewSolver()
		vars, lits := mkVars(s, n)
		ExactlyOne(s, lits)
		if got := countModels(s, vars); got != n {
			t.Errorf("n=%d: %d models, want %d", n, got, n)
		}
	}
}

func TestAtMostOneModelCount(t *testing.T) {
	for n := 1; n <= 9; n++ {
		s := sat.NewSolver()
		vars, lits := mkVars(s, n)
		AtMostOne(s, lits)
		if got := countModels(s, vars); got != n+1 {
			t.Errorf("n=%d: %d models, want %d", n, got, n+1)
		}
	}
}

func TestAtMostOneCommanderLarge(t *testing.T) {
	s := sat.NewSolver()
	vars, lits := mkVars(s, 25)
	AtMostOneCommander(s, lits)
	// Force two distinct true literals: must be UNSAT.
	s.AddClause(sat.PosLit(vars[3]))
	s.AddClause(sat.PosLit(vars[17]))
	if s.Solve() != sat.Unsat {
		t.Fatal("two true inputs should conflict")
	}
}

func TestAtMostKModelCounts(t *testing.T) {
	for n := 2; n <= 8; n++ {
		for k := 0; k <= n; k++ {
			s := sat.NewSolver()
			vars, lits := mkVars(s, n)
			NewTotalizer(s, lits).AssertAtMost(s, k)
			want := sumChoose(n, 0, k)
			if got := countModels(s, vars); got != want {
				t.Errorf("n=%d k=%d: %d models, want %d", n, k, got, want)
			}
		}
	}
}

func TestAtLeastKModelCounts(t *testing.T) {
	for n := 2; n <= 7; n++ {
		for k := 0; k <= n+1; k++ {
			s := sat.NewSolver()
			vars, lits := mkVars(s, n)
			NewTotalizer(s, lits).AssertAtLeast(s, k)
			want := sumChoose(n, k, n)
			if got := countModels(s, vars); got != want {
				t.Errorf("n=%d k=%d: %d models, want %d", n, k, got, want)
			}
		}
	}
}

func TestExactlyKModelCounts(t *testing.T) {
	for n := 2; n <= 7; n++ {
		for k := 0; k <= n; k++ {
			s := sat.NewSolver()
			vars, lits := mkVars(s, n)
			NewTotalizer(s, lits).AssertExactly(s, k)
			if got := countModels(s, vars); got != choose(n, k) {
				t.Errorf("n=%d k=%d: %d models, want %d", n, k, got, choose(n, k))
			}
		}
	}
}

func TestTotalizerOutputsTrackCount(t *testing.T) {
	// For random forced assignments, outputs must equal the unary count.
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.Intn(10)
		s := sat.NewSolver()
		vars, lits := mkVars(s, n)
		tot := NewTotalizer(s, lits)
		mask := rng.Intn(1 << uint(n))
		for i, v := range vars {
			if mask&(1<<uint(i)) != 0 {
				s.AddClause(sat.PosLit(v))
			} else {
				s.AddClause(sat.NegLit(v))
			}
		}
		if s.Solve() != sat.Sat {
			t.Fatalf("forced assignment should be Sat")
		}
		count := bits.OnesCount(uint(mask))
		for j, o := range tot.Outputs {
			want := count >= j+1
			if got := s.ValueLit(o); got != want {
				t.Fatalf("n=%d mask=%b out[%d]=%v want %v", n, mask, j, got, want)
			}
		}
	}
}

func TestTotalizerAtLeastLiteral(t *testing.T) {
	s := sat.NewSolver()
	_, lits := mkVars(s, 5)
	tot := NewTotalizer(s, lits)
	if _, ok := tot.AtLeast(0); ok {
		t.Error("AtLeast(0) should be trivially true (ok=false)")
	}
	if _, ok := tot.AtLeast(6); ok {
		t.Error("AtLeast(6) should be trivially false (ok=false)")
	}
	l, ok := tot.AtLeast(3)
	if !ok {
		t.Fatal("AtLeast(3) should return a literal")
	}
	// Forcing the literal true must force >= 3 inputs true.
	s.AddClause(l)
	if s.Solve() != sat.Sat {
		t.Fatal("want Sat")
	}
	cnt := 0
	for _, lit := range lits {
		if s.ValueLit(lit) {
			cnt++
		}
	}
	if cnt < 3 {
		t.Fatalf("only %d inputs true, want >= 3", cnt)
	}
}

func TestAtLeastKImpossible(t *testing.T) {
	s := sat.NewSolver()
	_, lits := mkVars(s, 3)
	NewTotalizer(s, lits).AssertAtLeast(s, 4)
	if s.Solve() != sat.Unsat {
		t.Fatal("k > n should be Unsat")
	}
}

func TestExactlyKInvalid(t *testing.T) {
	s := sat.NewSolver()
	_, lits := mkVars(s, 3)
	NewTotalizer(s, lits).AssertExactly(s, 4)
	if s.Solve() != sat.Unsat {
		t.Fatal("k > n should be Unsat")
	}
}

func BenchmarkTotalizer64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sat.NewSolver()
		_, lits := mkVars(s, 64)
		tot := NewTotalizer(s, lits)
		tot.AssertAtMost(s, 32)
		if s.Solve() != sat.Sat {
			b.Fatal("want Sat")
		}
	}
}

// TestMergeTotalizersAssumable checks the incremental building block the
// synthesis sessions use for constraint C6: a chain of register merges
// whose outputs are forced — in both directions — under assumptions only.
func TestMergeTotalizersAssumable(t *testing.T) {
	for n := 2; n <= 5; n++ {
		s := sat.NewSolver()
		_, lits := mkVars(s, n)
		// Chain-merge one input at a time, mirroring the per-step prefix
		// registers of a synthesis session.
		reg := &Totalizer{Outputs: []sat.Lit{lits[0]}}
		for i := 1; i < n; i++ {
			reg = MergeTotalizers(s, reg, &Totalizer{Outputs: []sat.Lit{lits[i]}})
		}
		if len(reg.Outputs) != n {
			t.Fatalf("n=%d: register has %d outputs", n, len(reg.Outputs))
		}
		for k := 0; k <= n; k++ {
			// Assume count == k via the register, then count the models of
			// the inputs: exactly C(n, k) assignments must remain.
			var assumptions []sat.Lit
			if l, ok := reg.AtLeast(k); ok {
				assumptions = append(assumptions, l)
			}
			if l, ok := reg.AtLeast(k + 1); ok {
				assumptions = append(assumptions, l.Neg())
			}
			models := 0
			for s.Solve(assumptions...) == sat.Sat {
				models++
				block := make([]sat.Lit, n)
				for i, l := range lits {
					if s.ValueLit(l) {
						block[i] = l.Neg()
					} else {
						block[i] = l
					}
				}
				if !s.AddClause(block...) {
					break
				}
			}
			if want := choose(n, k); models != want {
				t.Errorf("n=%d k=%d: %d models, want %d", n, k, models, want)
			}
			// Blocking clauses mention only input literals, so drop them by
			// rebuilding for the next k (cheap at these sizes).
			s = sat.NewSolver()
			_, lits = mkVars(s, n)
			reg = &Totalizer{Outputs: []sat.Lit{lits[0]}}
			for i := 1; i < n; i++ {
				reg = MergeTotalizers(s, reg, &Totalizer{Outputs: []sat.Lit{lits[i]}})
			}
		}
	}
}

// TestMergeTotalizersEmptySides covers the degenerate merges.
func TestMergeTotalizersEmptySides(t *testing.T) {
	s := sat.NewSolver()
	_, lits := mkVars(s, 2)
	full := &Totalizer{Outputs: lits}
	if got := MergeTotalizers(s, nil, full); len(got.Outputs) != 2 {
		t.Errorf("nil-left merge lost outputs: %v", got.Outputs)
	}
	if got := MergeTotalizers(s, full, &Totalizer{}); len(got.Outputs) != 2 {
		t.Errorf("empty-right merge lost outputs: %v", got.Outputs)
	}
	if got := MergeTotalizers(s, nil, nil); len(got.Outputs) != 0 {
		t.Errorf("nil merge should be empty: %v", got.Outputs)
	}
}

// TestMergeRegistersCapped checks the capped merge on every sorted
// assignment of two registers of up to three literals and every cap: the
// register has min(len(left)+len(right), cap) outputs, and each is forced
// to exactly [count >= j+1] — the opposite value is Unsat.
func TestMergeRegistersCapped(t *testing.T) {
	for nl := 0; nl <= 3; nl++ {
		for nr := 0; nr <= 3; nr++ {
			for cl := 0; cl <= nl; cl++ {
				for cr := 0; cr <= nr; cr++ {
					for cap := 1; cap <= nl+nr+1; cap++ {
						s := sat.NewSolver()
						_, left := mkVars(s, nl)
						_, right := mkVars(s, nr)
						for i, l := range left {
							if i >= cl {
								l = l.Neg()
							}
							s.AddClause(l)
						}
						for i, l := range right {
							if i >= cr {
								l = l.Neg()
							}
							s.AddClause(l)
						}
						out := mergeRegisters(s, left, right, cap)
						if want := min(nl+nr, cap); len(out) != want {
							t.Fatalf("|left|=%d |right|=%d cap=%d: %d outputs, want %d", nl, nr, cap, len(out), want)
						}
						for j, o := range out {
							if cl+cr < j+1 {
								o = o.Neg()
							}
							if s.Solve(o.Neg()) != sat.Unsat {
								t.Errorf("left %d/%d right %d/%d cap=%d: out[%d] is not forced to count>=%d",
									cl, nl, cr, nr, cap, j, j+1)
							}
						}
						if s.Solve() != sat.Sat {
							t.Errorf("left %d/%d right %d/%d cap=%d: merge is Unsat", cl, nl, cr, nr, cap)
						}
					}
				}
			}
		}
	}
}

package sat

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestLubySequence(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestLitBasics(t *testing.T) {
	v := Var(5)
	p, n := PosLit(v), NegLit(v)
	if p.Var() != v || n.Var() != v {
		t.Fatal("Var roundtrip failed")
	}
	if p.Sign() || !n.Sign() {
		t.Fatal("Sign wrong")
	}
	if p.Neg() != n || n.Neg() != p {
		t.Fatal("Neg wrong")
	}
	if p.String() != "5" || n.String() != "-5" {
		t.Fatalf("String wrong: %s %s", p, n)
	}
}

func TestTrivialSat(t *testing.T) {
	s := NewSolver()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	s.AddClause(NegLit(a))
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want Sat", got)
	}
	if s.Value(a) {
		t.Error("a should be false")
	}
	if !s.Value(b) {
		t.Error("b should be true")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := NewSolver()
	a := s.NewVar()
	s.AddClause(PosLit(a))
	if ok := s.AddClause(NegLit(a)); ok {
		t.Fatal("expected AddClause to detect conflict")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v, want Unsat", got)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := NewSolver()
	s.NewVar()
	if s.AddClause() {
		t.Fatal("empty clause should return false")
	}
	if s.Solve() != Unsat {
		t.Fatal("want Unsat")
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := NewSolver()
	a := s.NewVar()
	if !s.AddClause(PosLit(a), NegLit(a)) {
		t.Fatal("tautology should be accepted")
	}
	if s.Solve() != Sat {
		t.Fatal("want Sat")
	}
}

// pigeonhole(n): n+1 pigeons into n holes — classically UNSAT and
// exercises clause learning heavily.
func pigeonhole(n int) *Solver {
	s := NewSolver()
	// p[i][j]: pigeon i in hole j
	p := make([][]Var, n+1)
	for i := range p {
		p[i] = make([]Var, n)
		for j := range p[i] {
			p[i][j] = s.NewVar()
		}
	}
	for i := 0; i <= n; i++ {
		lits := make([]Lit, n)
		for j := 0; j < n; j++ {
			lits[j] = PosLit(p[i][j])
		}
		s.AddClause(lits...)
	}
	for j := 0; j < n; j++ {
		for i1 := 0; i1 <= n; i1++ {
			for i2 := i1 + 1; i2 <= n; i2++ {
				s.AddClause(NegLit(p[i1][j]), NegLit(p[i2][j]))
			}
		}
	}
	return s
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 7; n++ {
		s := pigeonhole(n)
		if got := s.Solve(); got != Unsat {
			t.Fatalf("PHP(%d) = %v, want Unsat", n, got)
		}
	}
}

func TestPigeonholeSatVariant(t *testing.T) {
	// n pigeons into n holes is SAT.
	n := 6
	s := NewSolver()
	p := make([][]Var, n)
	for i := range p {
		p[i] = make([]Var, n)
		for j := range p[i] {
			p[i][j] = s.NewVar()
		}
	}
	for i := 0; i < n; i++ {
		lits := make([]Lit, n)
		for j := 0; j < n; j++ {
			lits[j] = PosLit(p[i][j])
		}
		s.AddClause(lits...)
	}
	for j := 0; j < n; j++ {
		for i1 := 0; i1 < n; i1++ {
			for i2 := i1 + 1; i2 < n; i2++ {
				s.AddClause(NegLit(p[i1][j]), NegLit(p[i2][j]))
			}
		}
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v, want Sat", got)
	}
	// Verify the model is a valid matching.
	holeUsed := make([]bool, n)
	for i := 0; i < n; i++ {
		cnt := 0
		for j := 0; j < n; j++ {
			if s.Value(p[i][j]) {
				cnt++
				if holeUsed[j] {
					t.Fatalf("hole %d used twice", j)
				}
				holeUsed[j] = true
			}
		}
		if cnt == 0 {
			t.Fatalf("pigeon %d unplaced", i)
		}
	}
}

// randomCNF builds a random 3-CNF instance.
func randomCNF(rng *rand.Rand, nVars, nClauses int) ([][]int, *Solver) {
	s := NewSolver()
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	var cls [][]int
	for i := 0; i < nClauses; i++ {
		var c []int
		var lits []Lit
		for len(c) < 3 {
			v := rng.Intn(nVars) + 1
			neg := rng.Intn(2) == 1
			dup := false
			for _, e := range c {
				if e == v || e == -v {
					dup = true
				}
			}
			if dup {
				continue
			}
			if neg {
				c = append(c, -v)
				lits = append(lits, NegLit(Var(v)))
			} else {
				c = append(c, v)
				lits = append(lits, PosLit(Var(v)))
			}
		}
		cls = append(cls, c)
		s.AddClause(lits...)
	}
	return cls, s
}

func evalCNF(cls [][]int, model func(int) bool) bool {
	for _, c := range cls {
		ok := false
		for _, l := range c {
			v := l
			if v < 0 {
				v = -v
			}
			val := model(v)
			if l < 0 {
				val = !val
			}
			if val {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// bruteForceSat determines satisfiability by enumeration (nVars <= 20).
func bruteForceSat(cls [][]int, nVars int) bool {
	for m := 0; m < 1<<nVars; m++ {
		if evalCNF(cls, func(v int) bool { return m&(1<<(v-1)) != 0 }) {
			return true
		}
	}
	return false
}

func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		nVars := 4 + rng.Intn(9) // 4..12
		nClauses := 5 + rng.Intn(50)
		cls, s := randomCNF(rng, nVars, nClauses)
		got := s.Solve()
		want := bruteForceSat(cls, nVars)
		if (got == Sat) != want {
			t.Fatalf("iter %d: solver=%v brute=%v cls=%v", iter, got, want, cls)
		}
		if got == Sat {
			if !evalCNF(cls, func(v int) bool { return s.Value(Var(v)) }) {
				t.Fatalf("iter %d: model does not satisfy formula", iter)
			}
		}
	}
}

func TestModelsSatisfyFormulaQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := 10 + rng.Intn(30)
		cls, s := randomCNF(rng, nVars, 3*nVars)
		if s.Solve() == Sat {
			return evalCNF(cls, func(v int) bool { return s.Value(Var(v)) })
		}
		return true // UNSAT answers are checked against brute force elsewhere
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAssumptions(t *testing.T) {
	s := NewSolver()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	s.AddClause(NegLit(a), PosLit(c))

	if got := s.Solve(PosLit(a)); got != Sat {
		t.Fatalf("assume a: %v", got)
	}
	if !s.Value(a) || !s.Value(c) {
		t.Error("a and c must hold")
	}
	if got := s.Solve(NegLit(a), NegLit(b)); got != Unsat {
		t.Fatalf("assume ¬a∧¬b: %v, want Unsat", got)
	}
	// Solver remains usable after assumption-unsat.
	if got := s.Solve(); got != Sat {
		t.Fatalf("re-solve: %v", got)
	}
}

func TestIncrementalAddBetweenSolves(t *testing.T) {
	s := NewSolver()
	vars := make([]Var, 10)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	s.AddClause(PosLit(vars[0]), PosLit(vars[1]))
	if s.Solve() != Sat {
		t.Fatal("want Sat")
	}
	// Force a chain of implications.
	for i := 0; i+1 < len(vars); i++ {
		s.AddClause(NegLit(vars[i]), PosLit(vars[i+1]))
	}
	s.AddClause(PosLit(vars[0]))
	if s.Solve() != Sat {
		t.Fatal("want Sat after chain")
	}
	for i := range vars {
		if !s.Value(vars[i]) {
			t.Fatalf("var %d should be true via chain", i)
		}
	}
	s.AddClause(NegLit(vars[9]))
	if s.Solve() != Unsat {
		t.Fatal("want Unsat after closing chain")
	}
}

func TestSolveBudget(t *testing.T) {
	s := pigeonhole(9) // hard enough to exceed a tiny budget
	if got := s.SolveWithBudget(5); got != Unknown {
		t.Fatalf("got %v, want Unknown under 5-conflict budget", got)
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	in := `c sample
p cnf 3 3
1 2 0
-1 3 0
-3 -2 0
`
	s, err := ParseDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVars() != 3 {
		t.Fatalf("NumVars = %d", s.NumVars())
	}
	if s.Solve() != Sat {
		t.Fatal("want Sat")
	}
	var sb strings.Builder
	if err := s.WriteDIMACS(&sb); err != nil {
		t.Fatal(err)
	}
	s2, err := ParseDIMACS(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if s2.Solve() != Sat {
		t.Fatal("round-tripped formula should stay Sat")
	}
}

func TestDIMACSBadToken(t *testing.T) {
	_, err := ParseDIMACS(strings.NewReader("1 x 0\n"))
	if err == nil {
		t.Fatal("expected parse error")
	}
}

func TestStatsPopulated(t *testing.T) {
	s := pigeonhole(6)
	s.Solve()
	st := s.Stats()
	if st.Conflicts == 0 || st.Decisions == 0 || st.Propagations == 0 {
		t.Fatalf("expected non-zero stats, got %+v", st)
	}
}

func TestGraphColoringSATAndUnsat(t *testing.T) {
	// K4 is 4-colorable but not 3-colorable.
	color := func(k int) Status {
		s := NewSolver()
		n := 4
		v := make([][]Var, n)
		for i := range v {
			v[i] = make([]Var, k)
			for j := range v[i] {
				v[i][j] = s.NewVar()
			}
		}
		for i := 0; i < n; i++ {
			lits := make([]Lit, k)
			for j := 0; j < k; j++ {
				lits[j] = PosLit(v[i][j])
			}
			s.AddClause(lits...)
		}
		for i1 := 0; i1 < n; i1++ {
			for i2 := i1 + 1; i2 < n; i2++ {
				for j := 0; j < k; j++ {
					s.AddClause(NegLit(v[i1][j]), NegLit(v[i2][j]))
				}
			}
		}
		return s.Solve()
	}
	if color(3) != Unsat {
		t.Error("K4 should not be 3-colorable")
	}
	if color(4) != Sat {
		t.Error("K4 should be 4-colorable")
	}
}

// benchSolves times Solve alone on the solvers build returns (construction
// runs with the timer stopped) and reports the per-layer rows ROADMAP
// judges the core by: wall and heap allocations per conflict.
func benchSolves(b *testing.B, build func() *Solver) {
	b.ReportAllocs()
	var conflicts int64
	var mallocs uint64
	var ms runtime.MemStats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := build()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		b.StartTimer()
		s.Solve()
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		conflicts += s.Stats().Conflicts
		b.StartTimer()
	}
	if conflicts > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(conflicts), "ns/conflict")
		b.ReportMetric(float64(mallocs)/float64(conflicts), "allocs/conflict")
	}
}

func BenchmarkSolverPigeonhole8(b *testing.B) {
	benchSolves(b, func() *Solver { return pigeonhole(8) })
}

func BenchmarkSolverRandom3SAT(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	benchSolves(b, func() *Solver {
		_, s := randomCNF(rng, 120, 480)
		return s
	})
}

package smt

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sat"
)

func TestIntVarDomain(t *testing.T) {
	c := NewContext()
	x := c.NewIntVar("x", 2, 7)
	if c.Solve() != sat.Sat {
		t.Fatal("want Sat")
	}
	v := c.Value(x)
	if v < 2 || v > 7 {
		t.Fatalf("value %d out of [2,7]", v)
	}
}

func TestAssertEqAllValues(t *testing.T) {
	for k := -1; k <= 6; k++ {
		c := NewContext()
		x := c.NewIntVar("x", 0, 5)
		c.AssertEq(x, k)
		got := c.Solve()
		if k < 0 || k > 5 {
			if got != sat.Unsat {
				t.Errorf("k=%d: want Unsat, got %v", k, got)
			}
			continue
		}
		if got != sat.Sat {
			t.Fatalf("k=%d: want Sat, got %v", k, got)
		}
		if v := c.Value(x); v != k {
			t.Errorf("k=%d: value %d", k, v)
		}
	}
}

func TestGeLeBoundaries(t *testing.T) {
	c := NewContext()
	x := c.NewIntVar("x", 0, 4)
	if _, ok := x.GeLit(0); ok {
		t.Error("x>=0 should be trivial")
	}
	if !x.TriviallyGe(0) {
		t.Error("x>=0 trivially true")
	}
	if _, ok := x.GeLit(5); ok {
		t.Error("x>=5 should be trivial (false)")
	}
	if x.TriviallyGe(5) {
		t.Error("x>=5 should not be trivially true")
	}
	if _, ok := x.LeLit(4); ok {
		t.Error("x<=4 trivial")
	}
	if !x.TriviallyLe(4) {
		t.Error("x<=4 trivially true")
	}
	if l, ok := x.GeLit(3); !ok || l == 0 {
		t.Error("x>=3 should be contingent")
	}
}

func TestImplyLessExhaustive(t *testing.T) {
	// For all domains up to [0,4]x[0,4], forcing cond and specific values
	// must agree with a<b.
	for av := 0; av <= 4; av++ {
		for bv := 0; bv <= 4; bv++ {
			c := NewContext()
			a := c.NewIntVar("a", 0, 4)
			b := c.NewIntVar("b", 0, 4)
			cond := c.BoolVar()
			c.ImplyLess(cond, a, b)
			c.AddClause(cond)
			c.AssertEq(a, av)
			c.AssertEq(b, bv)
			got := c.Solve()
			want := av < bv
			if (got == sat.Sat) != want {
				t.Errorf("a=%d b=%d: got %v, want sat=%v", av, bv, got, want)
			}
		}
	}
}

func TestImplyLessCondFalseUnconstrained(t *testing.T) {
	c := NewContext()
	a := c.NewIntVar("a", 0, 3)
	b := c.NewIntVar("b", 0, 3)
	cond := c.BoolVar()
	c.ImplyLess(cond, a, b)
	c.AddClause(cond.Neg())
	c.AssertEq(a, 3)
	c.AssertEq(b, 0)
	if c.Solve() != sat.Sat {
		t.Fatal("violating a<b must be fine when cond is false")
	}
}

func TestImplyLessMismatchedDomains(t *testing.T) {
	// b's max below a's min: cond must be unsatisfiable.
	c := NewContext()
	a := c.NewIntVar("a", 5, 8)
	b := c.NewIntVar("b", 0, 3)
	cond := c.BoolVar()
	c.ImplyLess(cond, a, b)
	c.AddClause(cond)
	if c.Solve() != sat.Unsat {
		t.Fatal("a in [5,8] < b in [0,3] is impossible")
	}
}

func TestEqLitReification(t *testing.T) {
	for k := 0; k <= 3; k++ {
		c := NewContext()
		x := c.NewIntVar("x", 0, 3)
		eq := c.EqLit(x, k)
		c.AddClause(eq)
		if c.Solve() != sat.Sat {
			t.Fatalf("k=%d: want Sat", k)
		}
		if v := c.Value(x); v != k {
			t.Errorf("k=%d: forced value %d", k, v)
		}
		// Reverse direction: x==k must force eq true.
		c2 := NewContext()
		x2 := c2.NewIntVar("x", 0, 3)
		eq2 := c2.EqLit(x2, k)
		c2.AssertEq(x2, k)
		c2.AddClause(eq2.Neg())
		if c2.Solve() != sat.Unsat {
			t.Errorf("k=%d: ¬eq with x==k should conflict", k)
		}
	}
}

func TestEqLitOutOfDomain(t *testing.T) {
	c := NewContext()
	x := c.NewIntVar("x", 0, 3)
	eq := c.EqLit(x, 9)
	c.AddClause(eq)
	if c.Solve() != sat.Unsat {
		t.Fatal("x==9 impossible for [0,3]")
	}
}

func TestAndLit(t *testing.T) {
	c := NewContext()
	p, q := c.BoolVar(), c.BoolVar()
	r := c.AndLit(p, q)
	c.AddClause(r)
	if c.Solve() != sat.Sat {
		t.Fatal("want Sat")
	}
	if !c.ValueLit(p) || !c.ValueLit(q) {
		t.Fatal("r forces both conjuncts")
	}
	c2 := NewContext()
	p2, q2 := c2.BoolVar(), c2.BoolVar()
	r2 := c2.AndLit(p2, q2)
	c2.AddClause(p2)
	c2.AddClause(q2)
	c2.AddClause(r2.Neg())
	if c2.Solve() != sat.Unsat {
		t.Fatal("both true with ¬r should conflict")
	}
}

func TestSumEquals(t *testing.T) {
	// 3 vars in [1,3], sum must be 6; enumerate models and check.
	c := NewContext()
	vars := []*IntVar{
		c.NewIntVar("a", 1, 3),
		c.NewIntVar("b", 1, 3),
		c.NewIntVar("c", 1, 3),
	}
	c.AssertSumEquals(vars, 6)
	found := 0
	for c.Solve() == sat.Sat {
		vals := make([]int, 3)
		sum := 0
		for i, v := range vars {
			vals[i] = c.Value(v)
			sum += vals[i]
		}
		if sum != 6 {
			t.Fatalf("model sum %d != 6 (%v)", sum, vals)
		}
		found++
		if found > 100 {
			t.Fatal("too many models")
		}
		// Block this assignment.
		var block []sat.Lit
		for i, v := range vars {
			l := c.EqLit(v, vals[i])
			block = append(block, l.Neg())
		}
		c.AddClause(block...)
	}
	// Compositions of 6 into 3 parts of [1,3]: (1,2,3)x6 perms? count:
	// solutions of a+b+c=6, 1<=x<=3: 7 ((1,2,3) perms=6, (2,2,2)=1).
	if found != 7 {
		t.Fatalf("found %d models, want 7", found)
	}
}

func TestSumEqualsInfeasible(t *testing.T) {
	c := NewContext()
	vars := []*IntVar{c.NewIntVar("a", 1, 2), c.NewIntVar("b", 1, 2)}
	c.AssertSumEquals(vars, 9)
	if c.Solve() != sat.Unsat {
		t.Fatal("sum 9 impossible")
	}
}

// TestSumEqualsExhaustive checks C6 against brute force on up to three
// variables over mixed domains (zero and positive lower bounds, fixed
// variables) and every total from below to above the reachable range: the
// models are exactly the value tuples summing to the total.
func TestSumEqualsExhaustive(t *testing.T) {
	domains := [][2]int{{0, 0}, {2, 2}, {0, 2}, {1, 3}, {2, 5}}
	var tuples [][][2]int
	for _, a := range domains {
		tuples = append(tuples, [][2]int{a})
		for _, b := range domains {
			tuples = append(tuples, [][2]int{a, b})
			for _, c := range domains {
				tuples = append(tuples, [][2]int{a, b, c})
			}
		}
	}
	for _, doms := range tuples {
		lo, hi := 0, 0
		for _, d := range doms {
			lo += d[0]
			hi += d[1]
		}
		for total := lo - 2; total <= hi+2; total++ {
			want := 0
			var count func(i, sum int)
			count = func(i, sum int) {
				if i == len(doms) {
					if sum == total {
						want++
					}
					return
				}
				for x := doms[i][0]; x <= doms[i][1]; x++ {
					count(i+1, sum+x)
				}
			}
			count(0, 0)
			c := NewContext()
			vars := make([]*IntVar, len(doms))
			for i, d := range doms {
				vars[i] = c.NewIntVar(fmt.Sprint("x", i), d[0], d[1])
			}
			c.AssertSumEquals(vars, total)
			got := 0
			for c.Solve() == sat.Sat {
				got++
				sum := 0
				var block []sat.Lit
				for _, v := range vars {
					x := c.Value(v)
					sum += x
					block = append(block, c.EqLit(v, x).Neg())
				}
				if sum != total {
					t.Fatalf("%v total %d: model sums to %d", doms, total, sum)
				}
				if got > want || !c.AddClause(block...) {
					break
				}
			}
			if got != want {
				t.Errorf("%v total %d: %d models, want %d", doms, total, got, want)
			}
		}
	}
}

// TestSumEqualsClauseCount pins the size of C6 for the round variables
// of a ring:9 Alltoall (2,8,72) probe: 8 steps over [1,65] summing to 72.
// Capping the merges at R − S + 1 outputs gives 30 925 clauses; the
// uncapped totalizer over all 512 order literals took 274 945.
func TestSumEqualsClauseCount(t *testing.T) {
	c := NewContext()
	vars := make([]*IntVar, 8)
	for i := range vars {
		vars[i] = c.NewIntVar(fmt.Sprint("r_", i), 1, 65)
	}
	before := c.Solver.NumClauses()
	c.AssertSumEquals(vars, 72)
	if got := c.Solver.NumClauses() - before; got > 35000 {
		t.Fatalf("C6 took %d clauses, want <= 35000", got)
	}
	if c.Solve() != sat.Sat {
		t.Fatal("want Sat")
	}
}

func TestCountLeScaledExhaustive(t *testing.T) {
	// count(lits) <= factor * v. For each forced count and v value check
	// satisfiability matches the arithmetic.
	for factor := 1; factor <= 2; factor++ {
		for forcedCount := 0; forcedCount <= 4; forcedCount++ {
			for vVal := 1; vVal <= 3; vVal++ {
				c := NewContext()
				lits := make([]sat.Lit, 4)
				for i := range lits {
					lits[i] = c.BoolVar()
				}
				v := c.NewIntVar("r", 1, 3)
				c.CountLeScaled(lits, factor, v)
				for i, l := range lits {
					if i < forcedCount {
						c.AddClause(l)
					} else {
						c.AddClause(l.Neg())
					}
				}
				c.AssertEq(v, vVal)
				got := c.Solve()
				want := forcedCount <= factor*vVal
				if (got == sat.Sat) != want {
					t.Errorf("factor=%d count=%d v=%d: got %v want sat=%v",
						factor, forcedCount, vVal, got, want)
				}
			}
		}
	}
}

func TestCountLeScaledPushesVarUp(t *testing.T) {
	// Forcing 5 of 6 lits true with factor 2 requires v >= 3.
	c := NewContext()
	lits := make([]sat.Lit, 6)
	for i := range lits {
		lits[i] = c.BoolVar()
	}
	v := c.NewIntVar("r", 1, 4)
	c.CountLeScaled(lits, 2, v)
	for i := 0; i < 5; i++ {
		c.AddClause(lits[i])
	}
	if c.Solve() != sat.Sat {
		t.Fatal("want Sat")
	}
	if got := c.Value(v); got < 3 {
		t.Fatalf("v = %d, want >= 3", got)
	}
}

func TestQuickSumInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		c := NewContext()
		vars := make([]*IntVar, n)
		maxSum, minSum := 0, 0
		for i := range vars {
			lo := rng.Intn(3)
			hi := lo + rng.Intn(4)
			vars[i] = c.NewIntVar("v", lo, hi)
			minSum += lo
			maxSum += hi
		}
		target := minSum + rng.Intn(maxSum-minSum+1)
		c.AssertSumEquals(vars, target)
		if c.Solve() != sat.Sat {
			return false
		}
		sum := 0
		for _, v := range vars {
			sum += c.Value(v)
		}
		return sum == target
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

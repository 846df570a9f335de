// Package smt layers bounded-integer arithmetic on top of the SAT solver
// using the order (unary) encoding, and provides an SMT-LIB2 (QF_LIA)
// script builder plus an external-solver subprocess driver. The SCCL paper
// discharges its encoding to Z3; Go has no maintained Z3 bindings, so
// synthesis always solves with the built-in SAT solver. The script is an
// export for reproducing the Z3 route by hand, and RunExternal lets tests
// use an installed solver as an oracle (see Script and RunExternal).
//
// The fragment supported is exactly what the SCCL encoding (paper §3.4)
// needs: bounded integer variables, comparisons with constants, strict
// inequalities between variables guarded by a Boolean (constraint C4),
// cardinality sums compared against scaled integer variables (C5), and
// fixed-total sums of integer variables (C6), merged from the variables'
// own order registers.
package smt

import (
	"context"
	"fmt"

	"repro/internal/pb"
	"repro/internal/sat"
)

// Context owns the SAT solver and the set of integer variables.
type Context struct {
	Solver *sat.Solver
}

// NewContext returns a Context backed by a fresh solver.
func NewContext() *Context {
	return &Context{Solver: sat.NewSolver()}
}

// NewContextOpts returns a Context backed by a solver with options.
func NewContextOpts(opts sat.Options) *Context {
	return &Context{Solver: sat.NewSolverOpts(opts)}
}

// BoolVar allocates a Boolean variable.
func (c *Context) BoolVar() sat.Lit {
	return sat.PosLit(c.Solver.NewVar())
}

// AddClause forwards a clause to the SAT solver.
func (c *Context) AddClause(lits ...sat.Lit) bool {
	return c.Solver.AddClause(lits...)
}

// IntVar is a bounded integer in [Lo, Hi] with the order encoding:
// ge[i] is a literal equivalent to (x >= Lo+1+i).
type IntVar struct {
	Name   string
	Lo, Hi int
	ge     []sat.Lit
}

// NewIntVar allocates a bounded integer variable.
func (c *Context) NewIntVar(name string, lo, hi int) *IntVar {
	if hi < lo {
		panic(fmt.Sprintf("smt: empty domain [%d,%d] for %s", lo, hi, name))
	}
	iv := &IntVar{Name: name, Lo: lo, Hi: hi}
	iv.ge = make([]sat.Lit, hi-lo)
	for i := range iv.ge {
		iv.ge[i] = sat.PosLit(c.Solver.NewVar())
	}
	// Order: x>=k+1 implies x>=k.
	for i := 1; i < len(iv.ge); i++ {
		c.Solver.AddClause(iv.ge[i].Neg(), iv.ge[i-1])
	}
	return iv
}

// GeLit returns a literal equivalent to (x >= k). The second result
// reports whether the comparison is contingent; if false the constraint is
// trivially true (k <= Lo) or trivially false (k > Hi) — disambiguate with
// TriviallyGe.
func (v *IntVar) GeLit(k int) (sat.Lit, bool) {
	if k <= v.Lo || k > v.Hi {
		return 0, false
	}
	return v.ge[k-v.Lo-1], true
}

// TriviallyGe reports the truth of (x >= k) when GeLit said the comparison
// is not contingent.
func (v *IntVar) TriviallyGe(k int) bool { return k <= v.Lo }

// GeLits returns a copy of the variable's order-encoding literals:
// GeLits()[i] is equivalent to (x >= Lo+1+i). The slice is a valid unary
// register counting x - Lo, so it can feed totalizer merges directly (see
// pb.MergeTotalizers); callers must not assert the literals inconsistently
// with the order chain.
func (v *IntVar) GeLits() []sat.Lit { return append([]sat.Lit(nil), v.ge...) }

// LeLit returns a literal equivalent to (x <= k); same contract as GeLit
// with TriviallyLe for the trivial case.
func (v *IntVar) LeLit(k int) (sat.Lit, bool) {
	l, ok := v.GeLit(k + 1)
	if !ok {
		return 0, false
	}
	return l.Neg(), true
}

// TriviallyLe reports the truth of (x <= k) for non-contingent cases.
func (v *IntVar) TriviallyLe(k int) bool { return k >= v.Hi }

// EqClauses returns literals whose conjunction is (x == k). An empty
// conjunction with ok=true means trivially true; ok=false means trivially
// false.
func (v *IntVar) EqClauses(k int) (conj []sat.Lit, ok bool) {
	if k < v.Lo || k > v.Hi {
		return nil, false
	}
	if l, lok := v.GeLit(k); lok {
		conj = append(conj, l)
	}
	if l, lok := v.LeLit(k); lok {
		conj = append(conj, l)
	}
	return conj, true
}

// AssertGe forces x >= k.
func (c *Context) AssertGe(v *IntVar, k int) {
	if l, ok := v.GeLit(k); ok {
		c.Solver.AddClause(l)
	} else if !v.TriviallyGe(k) {
		c.Solver.AddClause() // unsatisfiable
	}
}

// AssertLe forces x <= k.
func (c *Context) AssertLe(v *IntVar, k int) {
	if l, ok := v.LeLit(k); ok {
		c.Solver.AddClause(l)
	} else if !v.TriviallyLe(k) {
		c.Solver.AddClause()
	}
}

// AssertEq forces x == k.
func (c *Context) AssertEq(v *IntVar, k int) {
	c.AssertGe(v, k)
	c.AssertLe(v, k)
}

// ImplyLe adds cond -> (x <= k).
func (c *Context) ImplyLe(cond sat.Lit, v *IntVar, k int) {
	if l, ok := v.LeLit(k); ok {
		c.Solver.AddClause(cond.Neg(), l)
	} else if !v.TriviallyLe(k) {
		c.Solver.AddClause(cond.Neg())
	}
}

// ImplyGe adds cond -> (x >= k).
func (c *Context) ImplyGe(cond sat.Lit, v *IntVar, k int) {
	if l, ok := v.GeLit(k); ok {
		c.Solver.AddClause(cond.Neg(), l)
	} else if !v.TriviallyGe(k) {
		c.Solver.AddClause(cond.Neg())
	}
}

// ImplyLess adds cond -> (a < b). This is SCCL constraint C4:
// snd(n,c,n') -> time(c,n) < time(c,n').
func (c *Context) ImplyLess(cond sat.Lit, a, b *IntVar) {
	lo := a.Lo
	if b.Lo-1 > lo {
		lo = b.Lo - 1
	}
	for t := lo; t <= a.Hi; t++ {
		// cond ∧ a>=t → b>=t+1
		cl := []sat.Lit{cond.Neg()}
		if la, ok := a.GeLit(t); ok {
			cl = append(cl, la.Neg())
		} else if !a.TriviallyGe(t) {
			continue // a>=t impossible: implication vacuous
		}
		if lb, ok := b.GeLit(t + 1); ok {
			cl = append(cl, lb)
			c.Solver.AddClause(cl...)
		} else if !b.TriviallyGe(t + 1) {
			// b can never reach t+1: then a must stay below t under cond.
			c.Solver.AddClause(cl...)
		}
	}
}

// EqLit returns a literal reified to (x == k) (both directions).
func (c *Context) EqLit(v *IntVar, k int) sat.Lit {
	conj, possible := v.EqClauses(k)
	if !possible {
		f := c.BoolVar()
		c.Solver.AddClause(f.Neg())
		return f
	}
	switch len(conj) {
	case 0:
		tl := c.BoolVar()
		c.Solver.AddClause(tl)
		return tl
	case 1:
		return conj[0]
	}
	return c.AndLit(conj...)
}

// AndLit returns a literal reified to the conjunction of lits.
func (c *Context) AndLit(lits ...sat.Lit) sat.Lit {
	if len(lits) == 1 {
		return lits[0]
	}
	r := c.BoolVar()
	cl := make([]sat.Lit, 0, len(lits)+1)
	for _, l := range lits {
		c.Solver.AddClause(r.Neg(), l)
		cl = append(cl, l.Neg())
	}
	cl = append(cl, r)
	c.Solver.AddClause(cl...)
	return r
}

// AssertSumEquals forces Σ vars = total (SCCL constraint C6: Σ r_s = R).
// Each variable's order literals are already a sorted unary register
// counting x − Lo, so the registers are merged as they are (pb.MergeSorted)
// into one counting Σ (x − Lo), and that count must equal k = total − Σ Lo.
// Only its thresholds k and k+1 are read, so every merge is capped at
// k+1 outputs: the clause count is O(len(vars)·k²) instead of quadratic
// in the total number of order literals.
func (c *Context) AssertSumEquals(vars []*IntVar, total int) {
	k := total
	regs := make([][]sat.Lit, 0, len(vars))
	for _, v := range vars {
		k -= v.Lo
		if len(v.ge) > 0 {
			regs = append(regs, v.ge)
		}
	}
	if k < 0 {
		c.Solver.AddClause()
		return
	}
	pb.MergeSorted(c.Solver, regs, k+1).AssertExactly(c.Solver, k)
}

// CountLeScaled encodes count(lits true) <= factor * v for integer
// variable v. This is SCCL constraint C5 with per-round link bandwidth
// `factor` and round variable v = r_s: whenever the count exceeds
// factor*q, v must exceed q.
func (c *Context) CountLeScaled(lits []sat.Lit, factor int, v *IntVar) {
	if len(lits) == 0 {
		return
	}
	// Counts above factor*Hi are always forbidden, so a capped
	// upper-direction totalizer suffices and keeps the encoding linear in
	// the bandwidth budget instead of the candidate-send count.
	tot := pb.NewUpperTotalizer(c.Solver, lits, factor*v.Hi+1)
	tot.AssertAtMost(c.Solver, factor*v.Hi)
	for q := v.Lo; q < v.Hi; q++ {
		need := factor*q + 1
		if need > len(lits) {
			break
		}
		cntLit, ok := tot.AtLeast(need)
		if !ok {
			continue
		}
		if geLit, gok := v.GeLit(q + 1); gok {
			c.Solver.AddClause(cntLit.Neg(), geLit)
		} else if !v.TriviallyGe(q + 1) {
			c.Solver.AddClause(cntLit.Neg())
		}
	}
}

// Value extracts the integer value of v from the solver model after Sat.
func (c *Context) Value(v *IntVar) int {
	x := v.Lo
	for _, l := range v.ge {
		if c.Solver.ValueLit(l) {
			x++
		} else {
			break
		}
	}
	return x
}

// ValueLit extracts a Boolean literal's model value.
func (c *Context) ValueLit(l sat.Lit) bool { return c.Solver.ValueLit(l) }

// Solve runs the SAT backend.
func (c *Context) Solve(assumptions ...sat.Lit) sat.Status {
	return c.Solver.Solve(assumptions...)
}

// SolveContext runs the SAT backend under a cancellable context; a
// cancelled solve returns Unknown.
func (c *Context) SolveContext(ctx context.Context, assumptions ...sat.Lit) sat.Status {
	return c.Solver.SolveContext(ctx, assumptions...)
}

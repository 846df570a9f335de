// Package pb provides pseudo-Boolean and cardinality constraint encodings
// over the CDCL solver in internal/sat. The SCCL synthesis encoding (paper
// §3.4, constraints C3, C5 and C6) needs exactly-one constraints, bounded
// sums of Booleans compared against (scaled) integer variables, and integer
// sums — all of which this package lowers to CNF.
//
// The workhorse is the totalizer encoding (Bailleux & Boufkhad 2003): it
// produces a unary "output register" o_1 >= o_2 >= ... >= o_n where o_j is
// true iff at least j of the inputs are true. Comparisons against constants
// or order-encoded integers then become single literals or small clause
// sets, which keeps the SCCL bandwidth constraints (C5) compact.
//
// A totalizer is a balanced tree of register merges whose leaves are
// single inputs. MergeSorted builds the same tree over leaves that are
// already sorted registers, such as the order literals of bounded integer
// variables, and caps every merge at a count of interest. A sum compared
// with k then costs O(len·k²) clauses for len registers, however long the
// registers are (C6, the round total).
package pb

import "repro/internal/sat"

// Adder abstracts the subset of the solver used by encoders, easing tests.
type Adder interface {
	NewVar() sat.Var
	AddClause(lits ...sat.Lit) bool
}

// AtMostOnePairwise adds the quadratic at-most-one encoding. Best for small
// n (the SCCL incoming-send constraints have node-degree many literals).
func AtMostOnePairwise(s Adder, lits []sat.Lit) {
	for i := 0; i < len(lits); i++ {
		for j := i + 1; j < len(lits); j++ {
			s.AddClause(lits[i].Neg(), lits[j].Neg())
		}
	}
}

// AtMostOneCommander adds the commander at-most-one encoding, linear in n
// with auxiliary variables; used when n is large.
func AtMostOneCommander(s Adder, lits []sat.Lit) {
	const groupSize = 4
	if len(lits) <= groupSize+1 {
		AtMostOnePairwise(s, lits)
		return
	}
	var commanders []sat.Lit
	for i := 0; i < len(lits); i += groupSize {
		j := i + groupSize
		if j > len(lits) {
			j = len(lits)
		}
		group := lits[i:j]
		c := sat.PosLit(s.NewVar())
		// c is true if any group member is true: member -> c.
		for _, l := range group {
			s.AddClause(l.Neg(), c)
		}
		AtMostOnePairwise(s, group)
		commanders = append(commanders, c)
	}
	AtMostOneCommander(s, commanders)
}

// AtMostOne picks an encoding based on size.
func AtMostOne(s Adder, lits []sat.Lit) {
	if len(lits) <= 6 {
		AtMostOnePairwise(s, lits)
	} else {
		AtMostOneCommander(s, lits)
	}
}

// ExactlyOne constrains exactly one of lits to be true.
func ExactlyOne(s Adder, lits []sat.Lit) {
	s.AddClause(lits...)
	AtMostOne(s, lits)
}

// Totalizer is a unary counter over a set of input literals.
// Outputs[j] (0-based) is true iff at least j+1 inputs are true.
type Totalizer struct {
	Outputs []sat.Lit
}

// NewTotalizer builds a totalizer over lits. Both directions of the
// counting semantics are encoded, so outputs can be used positively
// ("count >= k") and negatively ("count <= k").
func NewTotalizer(s Adder, lits []sat.Lit) *Totalizer {
	regs := make([][]sat.Lit, len(lits))
	for i := range lits {
		regs[i] = lits[i : i+1]
	}
	return MergeSorted(s, regs, len(lits))
}

// MergeSorted builds a totalizer counting the union of presorted unary
// registers — each register[j] true iff at least j+1 of its own inputs are
// — merged pairwise in a balanced tree with every node's outputs capped at
// cap. Outputs[j] (j < cap) is exactly "count >= j+1" in both directions;
// counts past cap are not distinguished, so a caller comparing the count
// against k loses nothing with cap = k+1 (the k-simplified totalizer,
// Büttner & Rintanen 2005). The order-encoding literals of a bounded
// integer variable are such a register, counting its value above its
// lower bound, so a sum of integers needs no re-sorting of its literals.
func MergeSorted(s Adder, regs [][]sat.Lit, cap int) *Totalizer {
	return &Totalizer{Outputs: mergeTree(s, regs, cap)}
}

// MergeTotalizers combines two unary output registers into one totalizer
// counting the union of their inputs, encoding both counting directions
// like NewTotalizer. Either side may be a Totalizer's Outputs or any other
// valid unary register — in particular the order-encoding literals of a
// bounded integer variable, which count its value above its lower bound.
// This is the incremental building block the synthesis sessions use to
// extend a per-step prefix-sum register one step at a time between solver
// calls (constraint C6 discharged under assumptions instead of asserted).
func MergeTotalizers(s Adder, left, right *Totalizer) *Totalizer {
	switch {
	case left == nil || len(left.Outputs) == 0:
		if right == nil {
			return &Totalizer{}
		}
		return &Totalizer{Outputs: append([]sat.Lit(nil), right.Outputs...)}
	case right == nil || len(right.Outputs) == 0:
		return &Totalizer{Outputs: append([]sat.Lit(nil), left.Outputs...)}
	}
	return &Totalizer{Outputs: mergeRegisters(s, left.Outputs, right.Outputs, len(left.Outputs)+len(right.Outputs))}
}

func mergeTree(s Adder, regs [][]sat.Lit, cap int) []sat.Lit {
	switch len(regs) {
	case 0:
		return nil
	case 1:
		return append([]sat.Lit(nil), regs[0][:min(len(regs[0]), cap)]...)
	}
	mid := len(regs) / 2
	left := mergeTree(s, regs[:mid], cap)
	right := mergeTree(s, regs[mid:], cap)
	return mergeRegisters(s, left, right, cap)
}

// mergeRegisters emits the totalizer merge of two unary registers, with
// the output register cut at cap literals. Inputs longer than cap never
// matter: every clause reads left[a-1] or left[a] only for a+b <= cap. A
// cap of len(left)+len(right) is the full, uncapped merge.
func mergeRegisters(s Adder, left, right []sat.Lit, cap int) []sat.Lit {
	n := min(len(left)+len(right), cap)
	out := make([]sat.Lit, n)
	for i := range out {
		out[i] = sat.PosLit(s.NewVar())
	}
	// Monotonicity of the output register: out[j] -> out[j-1].
	for j := 1; j < n; j++ {
		s.AddClause(out[j].Neg(), out[j-1])
	}
	// Merge: for all a in [0..len(left)], b in [0..len(right)], a+b <= n:
	//   left>=a && right>=b -> out>=a+b         (upper direction)
	//   left<a+1 && right<b+1 -> out<a+b+1      (lower direction)
	for a := 0; a <= min(len(left), n); a++ {
		for b := 0; b <= min(len(right), n-a); b++ {
			if a+b > 0 {
				// left>=a ∧ right>=b → out>=a+b
				cl := make([]sat.Lit, 0, 3)
				if a > 0 {
					cl = append(cl, left[a-1].Neg())
				}
				if b > 0 {
					cl = append(cl, right[b-1].Neg())
				}
				cl = append(cl, out[a+b-1])
				s.AddClause(cl...)
			}
			if a+b < n {
				// left<=a ∧ right<=b → out<=a+b, i.e.
				// ¬left[a] ∧ ¬right[b] → ¬out[a+b]
				cl := make([]sat.Lit, 0, 3)
				if a < len(left) {
					cl = append(cl, left[a])
				}
				if b < len(right) {
					cl = append(cl, right[b])
				}
				cl = append(cl, out[a+b].Neg())
				s.AddClause(cl...)
			}
		}
	}
	return out
}

// AtLeast returns a literal that is true iff at least k of the totalizer's
// inputs are true. For k <= 0 the caller should treat the constraint as
// trivially true; ok=false signals that (and for k > n, trivially false).
func (t *Totalizer) AtLeast(k int) (lit sat.Lit, ok bool) {
	if k <= 0 || k > len(t.Outputs) {
		return 0, false
	}
	return t.Outputs[k-1], true
}

// AssertAtMost adds clauses forcing at most k inputs true.
func (t *Totalizer) AssertAtMost(s Adder, k int) {
	if k < 0 {
		k = 0
	}
	if k >= len(t.Outputs) {
		return
	}
	s.AddClause(t.Outputs[k].Neg())
}

// AssertAtLeast adds clauses forcing at least k inputs true.
func (t *Totalizer) AssertAtLeast(s Adder, k int) {
	if k <= 0 {
		return
	}
	if k > len(t.Outputs) {
		// Impossible: force conflict.
		s.AddClause()
		return
	}
	s.AddClause(t.Outputs[k-1])
}

// AssertExactly forces exactly k inputs true.
func (t *Totalizer) AssertExactly(s Adder, k int) {
	t.AssertAtLeast(s, k)
	t.AssertAtMost(s, k)
}

// UpperTotalizer is a totalizer that only encodes the "count >= j forces
// output j" direction, with outputs capped at a maximum count of
// interest. It is sound for use in upper-bound constraints (count <= k,
// count <= k -> x): outputs are forced true when the count reaches them
// but are otherwise free, so asserting an output's negation still forbids
// the count — while the encoding stays linear in the cap instead of the
// input size. For the SCCL bandwidth constraints (C5) the cap is
// b*r_max+1, typically tiny compared to the number of candidate sends.
type UpperTotalizer struct {
	Outputs []sat.Lit // Outputs[j] is forced true iff count >= j+1 (j < cap)
}

// NewUpperTotalizer builds the capped upper-direction totalizer.
func NewUpperTotalizer(s Adder, lits []sat.Lit, cap int) *UpperTotalizer {
	if cap < 1 {
		cap = 1
	}
	return &UpperTotalizer{Outputs: buildUpperTotalizer(s, lits, cap)}
}

func buildUpperTotalizer(s Adder, lits []sat.Lit, cap int) []sat.Lit {
	switch len(lits) {
	case 0:
		return nil
	case 1:
		return []sat.Lit{lits[0]}
	}
	mid := len(lits) / 2
	left := buildUpperTotalizer(s, lits[:mid], cap)
	right := buildUpperTotalizer(s, lits[mid:], cap)
	n := len(left) + len(right)
	if n > cap {
		n = cap
	}
	out := make([]sat.Lit, n)
	for i := range out {
		out[i] = sat.PosLit(s.NewVar())
	}
	for j := 1; j < n; j++ {
		s.AddClause(out[j].Neg(), out[j-1])
	}
	// Upper direction only: left>=a ∧ right>=b → out>=a+b, for a+b <= n.
	for a := 0; a <= len(left); a++ {
		for b := 0; b <= len(right); b++ {
			sum := a + b
			if sum == 0 || sum > n {
				continue
			}
			cl := make([]sat.Lit, 0, 3)
			if a > 0 {
				cl = append(cl, left[a-1].Neg())
			}
			if b > 0 {
				cl = append(cl, right[b-1].Neg())
			}
			cl = append(cl, out[sum-1])
			s.AddClause(cl...)
		}
	}
	return out
}

// AtLeast returns the output literal meaning "count >= k" (forced-true
// direction only); ok=false when k is out of the encoded range.
func (t *UpperTotalizer) AtLeast(k int) (sat.Lit, bool) {
	if k <= 0 || k > len(t.Outputs) {
		return 0, false
	}
	return t.Outputs[k-1], true
}

// AssertAtMost forbids counts above k: with the upper direction encoded,
// negating output k makes any count >= k+1 contradictory.
func (t *UpperTotalizer) AssertAtMost(s Adder, k int) {
	if k < 0 {
		k = 0
	}
	if k >= len(t.Outputs) {
		return
	}
	s.AddClause(t.Outputs[k].Neg())
}

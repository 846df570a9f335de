package synth

import (
	"fmt"

	"repro/internal/sat"
)

// BudgetCore classifies the final conflict of an Unsat mega-base probe by
// which (S, R) budget-assumption groups it involved. The layering (see
// megaEncoding) discharges a probe's budget as assumption literals over a
// budget-independent base formula: post-arrival literals time(c, n) <= S
// (constraint C2) and a two-sided round-total bound sum(r_1..r_S) >= R /
// <= R (constraint C6). A real final-conflict analysis
// (sat.Solver.FailedAssumptions) reports which of those literals the
// conflict actually needed, and the group structure makes whole budget
// regions Unsat for free:
//
//   - post-arrival literals strengthen monotonically as S shrinks, so a
//     core without round literals refutes every cheaper step budget of
//     the family at any round count (DominatesSteps);
//   - the upper round bound strengthens as R shrinks at fixed S, so a
//     core without the lower round bound refutes every cheaper round
//     budget at the same (S, C) (DominatesRounds);
//   - an empty core means the base formula itself is Unsat within the
//     session horizon, refuting everything the probe's budget dominates.
//
// The Pareto scheduler uses these implications to answer dominated
// candidates as synthetic Unsat results without solving them.
type BudgetCore struct {
	// Steps and Rounds are the (S, R) budget the core was extracted at.
	Steps, Rounds int
	// PostArrival reports post-arrival (C2) literals in the core.
	PostArrival bool
	// RoundLower and RoundUpper report the sum >= R and sum <= R sides of
	// the round-total bound (C6) in the core.
	RoundLower, RoundUpper bool
	// Activation reports chunk-activation literals (mega-base family
	// selection, see mega.go) in the core. The activation row is constant
	// for every budget of one family, so it behaves like the base formula
	// for within-family dominance: it weakens nothing.
	Activation bool
	// Empty reports a conflict that needed no budget assumptions at all:
	// the base formula is Unsat for every budget within the horizon.
	Empty bool
}

// DominatesSteps reports that the core refutes every budget (S' <= Steps,
// any R) of the family: the conflict used only assumptions that are
// invariant (activation) or strengthen (post-arrival) as the step budget
// shrinks, and no round assumptions at all.
func (c BudgetCore) DominatesSteps() bool {
	return c.Empty || ((c.PostArrival || c.Activation) && !c.RoundLower && !c.RoundUpper)
}

// DominatesRounds reports that the core refutes every budget
// (S = Steps, R' <= Rounds) of the family: activation and post-arrival
// literals are identical at fixed S and the upper round bound only gets
// stronger as R shrinks, so only the lower round bound (weaker for
// cheaper R) blocks the implication. A pure activation core refutes the
// family at every budget of the probe's step count, rounds included.
func (c BudgetCore) DominatesRounds() bool {
	if c.Empty || (c.RoundUpper && !c.RoundLower) {
		return true
	}
	return c.Activation && !c.PostArrival && !c.RoundLower && !c.RoundUpper
}

func (c BudgetCore) String() string {
	if c.Empty {
		return fmt.Sprintf("core(S=%d,R=%d: empty)", c.Steps, c.Rounds)
	}
	s := fmt.Sprintf("core(S=%d,R=%d:", c.Steps, c.Rounds)
	if c.PostArrival {
		s += " post"
	}
	if c.RoundLower {
		s += " rlo"
	}
	if c.RoundUpper {
		s += " rhi"
	}
	if c.Activation {
		s += " act"
	}
	return s + ")"
}

// assumpMarks records which solver literal played which budget role in
// one probe's assumption set, so the failed-assumption core can be mapped
// back to budget groups.
type assumpMarks struct {
	post map[sat.Lit]bool
	// acts records the assumed chunk-activation literals of a mega-base
	// probe, in the polarity assumed — positive and negated activations
	// can both appear in a failed-assumption core.
	acts         map[sat.Lit]bool
	lower, upper sat.Lit // 0 when the bound is absent (trivial)
}

// classify maps a failed-assumption core onto the budget groups. A core
// literal that matches no recorded assumption (which would indicate a
// bookkeeping bug) yields nil: no dominance is claimed over a core that
// cannot be explained.
//
// The core is the solver's own final conflict, not a minimal one: it may
// drag round bounds along with post-arrival literals, and such a mixed
// core claims no dominance. Shrinking it by re-solving under reduced
// assumption sets does not pay: on the benchmark sweeps nearly every such
// re-solve answers Sat (a full assignment of the mega-base that also
// reshuffles the live solver's phases), and the few upgraded cores prune
// less than the re-solves cost.
func (m assumpMarks) classify(core []sat.Lit, steps, rounds int) *BudgetCore {
	bc := &BudgetCore{Steps: steps, Rounds: rounds, Empty: len(core) == 0}
	for _, l := range core {
		switch {
		case m.lower != 0 && l == m.lower:
			bc.RoundLower = true
		case m.upper != 0 && l == m.upper:
			bc.RoundUpper = true
		case m.post[l]:
			bc.PostArrival = true
		case m.acts[l]:
			bc.Activation = true
		default:
			return nil
		}
	}
	return bc
}

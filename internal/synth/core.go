package synth

import (
	"context"
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
	// symOn/symOff are the node-symmetry selector guards of a mega probe,
	// split by whether the family's activation row is invariant under the
	// generator. They are consumed by solveSymPhased, not classify: the
	// phased solve guarantees the final failed-assumption core never
	// contains a symmetry literal.
	symOn, symOff []sat.Lit
}

// classify maps a failed-assumption core onto the budget groups. A core
// literal that matches no recorded assumption (which would indicate a
// bookkeeping bug) yields nil: no dominance is claimed over a core that
// cannot be explained.
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

// minimizeConflictBudget bounds each deletion probe of the core
// minimization: a re-solve that cannot re-derive the conflict within
// this many conflicts keeps the unminimized core rather than paying for
// a hard search the probe already answered.
const minimizeConflictBudget = 256

// classifyCore maps the solver's failed-assumption core of an Unsat
// session probe onto the budget groups, then applies deletion-based
// minimization. The final-conflict analysis returns implication-graph
// ancestors, not a minimal core, so a conflict that truly needs only
// the post-arrival literals often drags the round bounds along — and a
// mixed post+round core claims no dominance at all. Re-solving without
// each budget group under a small conflict budget upgrades:
//
//   - mixed cores whose post literals alone stay Unsat to pure
//     post-arrival cores — the much stronger steps dominance, pruning
//     every cheaper step budget of the family;
//   - mixed cores whose round bounds alone stay Unsat to pure round
//     cores — rounds dominance at this step when the lower bound drops
//     out too.
//
// Every upgrade is sound by construction: the deletion probe is a real
// solve of the live session formula under the reduced assumption set,
// so the refined core is itself a failed-assumption core.
func (e *megaEncoding) classifyCore(ctx context.Context, marks assumpMarks, steps, rounds int) *BudgetCore {
	failed := e.ctx.Solver.FailedAssumptions()
	bc := marks.classify(failed, steps, rounds)
	if bc == nil || bc.Empty {
		// Unexplainable or base-level: nothing to minimize.
		return bc
	}
	hasArrival := bc.PostArrival || bc.Activation
	hasRound := bc.RoundLower || bc.RoundUpper
	if !hasArrival || !(hasRound || (bc.PostArrival && bc.Activation)) {
		// Already pure (single group): no deletion can improve it.
		return bc
	}
	core := append([]sat.Lit(nil), failed...)
	// Deletion 1: drop the round bounds. If the post-arrival and activation
	// literals alone still refute the formula, the
	// re-solve's own final conflict is a round-free core with steps
	// dominance. Activation literals ride along in both reduced sets:
	// they select the family, so dropping them would refute a different
	// question.
	var postOnly []sat.Lit
	for _, l := range core {
		if marks.post[l] || marks.acts[l] {
			postOnly = append(postOnly, l)
		}
	}
	if len(postOnly) < len(core) && e.refutes(ctx, postOnly) {
		if min := marks.classify(e.ctx.Solver.FailedAssumptions(), steps, rounds); min != nil {
			return min
		}
	}
	// Deletion 2: drop the post literals (activation literals stay). A
	// surviving conflict is a bandwidth shortfall over the round bounds —
	// or a family Unsat at this step count outright.
	var roundOnly []sat.Lit
	for _, l := range core {
		if !marks.post[l] {
			roundOnly = append(roundOnly, l)
		}
	}
	if len(roundOnly) < len(core) && e.refutes(ctx, roundOnly) {
		if min := marks.classify(e.ctx.Solver.FailedAssumptions(), steps, rounds); min != nil {
			return min
		}
	}
	return bc
}

// refutes re-solves the live session formula under a reduced assumption
// set with a small conflict budget; only a definite Unsat counts.
func (e *megaEncoding) refutes(ctx context.Context, assumptions []sat.Lit) bool {
	return e.ctx.Solver.SolveWithBudgetContext(ctx, minimizeConflictBudget, assumptions...) == sat.Unsat
}

package sat

import (
	"bufio"
	"fmt"
	"io"
)

// Proof records the clauses a solver run learns, in order, ending with
// the empty clause on an Unsat answer. The SCCL synthesis procedure's
// optimality claims rest on UNSAT results (e.g. "no 2-step Allgather with
// R/C < 3/2 exists"), so proofs make those claims independently checkable
// via reverse unit propagation (CheckRUP) or an external DRAT checker
// (WriteDRAT).
//
// Deletions are not recorded; RUP checking without deletion information
// remains sound (it only makes checking slower).
type Proof struct {
	problem [][]Lit // original clauses as added (pre-normalization)
	steps   [][]Lit
	done    bool // empty clause recorded
}

// Steps returns the recorded derivation (last step empty on Unsat).
func (p *Proof) Steps() [][]Lit { return p.steps }

// Problem returns the original clauses recorded at AddClause time — the
// axioms the RUP check starts from.
func (p *Proof) Problem() [][]Lit { return p.problem }

// Complete reports whether the proof ends in the empty clause.
func (p *Proof) Complete() bool { return p.done }

// WriteDRAT emits the proof in DRAT format (one learnt clause per line,
// terminated by 0; the final empty clause is the line "0").
func (p *Proof) WriteDRAT(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, c := range p.steps {
		for _, l := range c {
			if l.Sign() {
				fmt.Fprintf(bw, "-%d ", l.Var())
			} else {
				fmt.Fprintf(bw, "%d ", l.Var())
			}
		}
		fmt.Fprintln(bw, "0")
	}
	return bw.Flush()
}

// StartProof enables proof recording on the solver. Must be called before
// clauses are added so top-level simplifications are captured too.
// Recording costs memory proportional to the number of learnt clauses.
func (s *Solver) StartProof() *Proof {
	s.proof = &Proof{}
	return s.proof
}

func (s *Solver) recordProof(lits []Lit) {
	if s.proof == nil || s.proof.done {
		return
	}
	cp := append([]Lit(nil), lits...)
	s.proof.steps = append(s.proof.steps, cp)
	if len(cp) == 0 {
		s.proof.done = true
	}
}

// CheckRUP verifies that every step of the proof is a reverse-unit-
// propagation (RUP) consequence of the original formula plus earlier
// steps, and that the proof ends with the empty clause. originalClauses
// holds the problem clauses (as added, before solving). The checker is a
// simple quadratic propagator — intended for the moderate-size UNSAT
// certificates of synthesis probes, not industrial DRAT checking.
func CheckRUP(originalClauses [][]Lit, proof *Proof) error {
	if proof == nil {
		return fmt.Errorf("sat: nil proof")
	}
	if !proof.Complete() {
		return fmt.Errorf("sat: proof does not end with the empty clause")
	}
	db := make([][]Lit, 0, len(originalClauses)+len(proof.steps))
	for _, c := range originalClauses {
		db = append(db, c)
	}
	for i, step := range proof.steps {
		if err := rupCheckOne(db, step); err != nil {
			return fmt.Errorf("sat: proof step %d (%v) not RUP: %w", i, step, err)
		}
		db = append(db, step)
	}
	return nil
}

// rupCheckOne asserts the negation of clause and unit-propagates over db;
// success means a conflict was derived (clause is a RUP consequence).
func rupCheckOne(db [][]Lit, clause []Lit) error {
	assign := map[Lit]bool{} // literal -> true (its negation false)
	setLit := func(l Lit) bool {
		if assign[l.Neg()] {
			return false // conflict
		}
		assign[l] = true
		return true
	}
	// Assume the negation of every literal in the clause.
	for _, l := range clause {
		if !setLit(l.Neg()) {
			return nil // immediate conflict
		}
	}
	for {
		progress := false
		for _, c := range db {
			var unit Lit = -1
			satisfied := false
			unassigned := 0
			for _, l := range c {
				if assign[l] {
					satisfied = true
					break
				}
				if !assign[l.Neg()] && l != unit {
					// Problem clauses are recorded as added, repeats and
					// all; comparing with the last one counted makes the
					// count 1 exactly when one distinct literal is
					// unassigned, so (a ∨ b ∨ b) with a false is a unit.
					unassigned++
					unit = l
				}
			}
			if satisfied {
				continue
			}
			switch unassigned {
			case 0:
				return nil // conflict found: RUP holds
			case 1:
				if !setLit(unit) {
					return nil
				}
				progress = true
			}
		}
		if !progress {
			return fmt.Errorf("unit propagation saturated without conflict")
		}
	}
}

// CheckProof verifies the solver's recorded proof against the clauses it
// recorded at AddClause time. Only meaningful after an Unsat answer that
// was not caused solely by assumptions.
func (s *Solver) CheckProof() error {
	if s.proof == nil {
		return fmt.Errorf("sat: proof recording was not enabled")
	}
	return CheckRUP(s.proof.Problem(), s.proof)
}

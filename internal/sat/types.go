// Package sat implements a from-scratch CDCL (conflict-driven clause
// learning) Boolean satisfiability solver. It is the solver substrate this
// repository uses in place of Z3: the SCCL synthesis encoding (paper §3.4)
// only needs Booleans, bounded integers and pseudo-Boolean sums, all of
// which lower to propositional logic (see internal/pb and internal/smt).
//
// The solver implements two-watched-literal propagation, VSIDS branching
// with phase saving, first-UIP clause learning, Luby restarts and activity
// based learnt-clause deletion. It supports incremental solving under
// assumptions.
package sat

import "fmt"

// Var identifies a Boolean variable. Valid variables are >= 1; use
// (*Solver).NewVar to allocate them.
type Var int32

// Lit is a literal: a variable or its negation. The encoding is
// 2*v for the positive literal of v and 2*v+1 for the negation, which lets
// a literal index arrays directly. Literals are 32-bit words so a clause
// sits in the solver's arena as a run of them (see arena.go).
type Lit int32

// PosLit returns the positive literal of v.
func PosLit(v Var) Lit { return Lit(v << 1) }

// NegLit returns the negative literal of v.
func NegLit(v Var) Lit { return Lit(v<<1 | 1) }

// MkLit returns the literal of v with the given sign. sign=false means the
// positive literal.
func MkLit(v Var, negated bool) Lit {
	if negated {
		return NegLit(v)
	}
	return PosLit(v)
}

// Var returns the variable underlying l.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg returns the negation of l.
func (l Lit) Neg() Lit { return l ^ 1 }

// Sign reports whether l is a negated literal.
func (l Lit) Sign() bool { return l&1 == 1 }

// String renders the literal in DIMACS-like form, e.g. "3" or "-3".
func (l Lit) String() string {
	if l.Sign() {
		return fmt.Sprintf("-%d", l.Var())
	}
	return fmt.Sprintf("%d", l.Var())
}

// lbool is a lifted Boolean: true, false or undefined. The values are
// chosen so a literal's value is its variable's value XOR its sign bit
// (see Solver.value): XOR maps lTrue and lFalse onto each other and
// lUndef onto 3, so a literal's value is compared against lTrue and
// lFalse only — anything else is undefined.
type lbool uint8

const (
	lTrue lbool = iota
	lFalse
	lUndef
)

// Status is the result of a Solve call.
type Status int

const (
	// Unknown means the solver was interrupted (budget exhausted).
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula (under the given assumptions) is
	// unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	}
	return "UNKNOWN"
}

// clauseRef locates a clause in the solver's arena: the offset of its
// header word (see arena.go). Compaction moves clauses, so a ref is only
// stable between two reductions of the learnt database.
type clauseRef int32

const nilClause clauseRef = -1

// watcher pairs a watching clause with a blocker literal: if the blocker is
// already true the clause cannot be falsified and the watch list entry can
// be skipped without touching the clause memory. A two-literal clause is
// watched by the complement of its ref (always < nilClause, as no clause
// sits at offset 0) and its blocker is its other literal, so propagation
// resolves it from the watch entry alone.
type watcher struct {
	ref     clauseRef
	blocker Lit
}

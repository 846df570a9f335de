// Package collective specifies collective communication primitives as
// SynColl instances in the style of the SCCL paper (§3.2): a global chunk
// count G and pre/post relations over (chunk, node) pairs built from a
// small library of relations (paper Tables 1 and 2).
//
// Combining collectives (Reduce, Reducescatter, Allreduce) are not
// synthesized directly; each maps to a non-combining dual (paper §3.5):
// Reduce inverts Broadcast, Reducescatter inverts Allgather, and Allreduce
// composes Reducescatter with Allgather.
package collective

import (
	"fmt"
	"sync/atomic"

	"repro/internal/topology"
)

// Kind enumerates the supported collectives.
type Kind int

const (
	Gather Kind = iota
	Allgather
	Alltoall
	Broadcast
	Scatter
	Reduce
	Reducescatter
	Allreduce
)

var kindNames = map[Kind]string{
	Gather:        "Gather",
	Allgather:     "Allgather",
	Alltoall:      "Alltoall",
	Broadcast:     "Broadcast",
	Scatter:       "Scatter",
	Reduce:        "Reduce",
	Reducescatter: "Reducescatter",
	Allreduce:     "Allreduce",
}

func (k Kind) String() string {
	if k == CustomKind {
		return "Custom"
	}
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind resolves a collective name (case-sensitive, as printed by
// String). It scans the stable Kinds() order rather than the name map,
// so error behavior and any future first-match logic are deterministic.
func ParseKind(name string) (Kind, error) {
	for _, k := range Kinds() {
		if kindNames[k] == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("collective: unknown kind %q", name)
}

// Kinds returns all supported collective kinds in a stable order.
func Kinds() []Kind {
	return []Kind{Gather, Allgather, Alltoall, Broadcast, Scatter, Reduce, Reducescatter, Allreduce}
}

// IsCombining reports whether the collective combines chunks through
// computation (reductions) rather than only moving data.
func (k Kind) IsCombining() bool {
	switch k {
	case Reduce, Reducescatter, Allreduce:
		return true
	}
	return false
}

// IsRooted reports whether the collective's relations depend on its
// root: Gather, Scatter, Broadcast and Reduce. New builds every other
// kind at root 0, whatever root it is given.
func (k Kind) IsRooted() bool {
	switch k {
	case Gather, Scatter, Broadcast, Reduce:
		return true
	}
	return false
}

// Rel is a relation over (chunk, node) pairs, indexed rel[chunk][node].
type Rel [][]bool

// NewRel allocates an empty GxP relation.
func NewRel(g, p int) Rel {
	r := make(Rel, g)
	for i := range r {
		r[i] = make([]bool, p)
	}
	return r
}

// Nodes returns the nodes related to chunk c.
func (r Rel) Nodes(c int) []topology.Node {
	var out []topology.Node
	for n, ok := range r[c] {
		if ok {
			out = append(out, topology.Node(n))
		}
	}
	return out
}

// Count returns the number of related pairs.
func (r Rel) Count() int {
	total := 0
	for _, row := range r {
		for _, ok := range row {
			if ok {
				total++
			}
		}
	}
	return total
}

// ScatteredRel is the paper's Scattered relation: chunk c resides at node
// c mod P.
func ScatteredRel(g, p int) Rel {
	r := NewRel(g, p)
	for c := 0; c < g; c++ {
		r[c][c%p] = true
	}
	return r
}

// AllRel relates every chunk to every node.
func AllRel(g, p int) Rel {
	r := NewRel(g, p)
	for c := 0; c < g; c++ {
		for n := 0; n < p; n++ {
			r[c][n] = true
		}
	}
	return r
}

// RootRel relates every chunk to the single root node.
func RootRel(g, p int, root topology.Node) Rel {
	r := NewRel(g, p)
	for c := 0; c < g; c++ {
		r[c][root] = true
	}
	return r
}

// TransposeRel is the paper's Transpose relation: chunk c belongs at node
// floor(c/P) mod P.
func TransposeRel(g, p int) Rel {
	r := NewRel(g, p)
	for c := 0; c < g; c++ {
		r[c][(c/p)%p] = true
	}
	return r
}

// Spec is a fully instantiated collective: the SynColl specification parts
// (G, pre, post) plus bookkeeping linking global chunks back to the
// per-node count C used in the paper's cost model. A Spec is immutable
// once fingerprinted: Fingerprint memoizes its digest, so build a new
// Spec instead of editing one in use.
type Spec struct {
	Kind Kind
	P    int
	// C is the per-node chunk count from the paper's tables. For rooted
	// scatter/gather collectives the physical chunk count at the root is
	// C*P (the tables' "multiply by 8" footnote).
	C    int
	Root topology.Node
	G    int
	Pre  Rel
	Post Rel

	// fp memoizes Fingerprint. It also makes a Spec unsafe to copy by
	// value once in use; pass *Spec.
	fp atomic.Pointer[fingerprint]
}

// ToGlobal converts a per-node chunk count C to the global chunk count G
// for the given collective kind (paper §3.2.2).
func ToGlobal(kind Kind, p, c int) (int, error) {
	switch kind {
	case Broadcast, Reduce:
		return c, nil
	case Gather, Allgather, Alltoall, Scatter, Reducescatter:
		return p * c, nil
	case Allreduce:
		// Allreduce is synthesized as Reducescatter∘Allgather over an
		// Allgather instance with per-node count C/P; its own per-node
		// count is C = G of that instance.
		if c%p != 0 {
			return 0, fmt.Errorf("collective: Allreduce needs C divisible by P (C=%d, P=%d)", c, p)
		}
		return c, nil
	}
	return 0, fmt.Errorf("collective: unknown kind %v", kind)
}

// New builds the Spec for a collective on p nodes with per-node chunk
// count c. root is used by rooted collectives (Gather, Scatter, Broadcast,
// Reduce); every other kind is built at root 0 (it must still be in
// range).
//
// For combining collectives the returned Spec carries the pre/post of the
// collective itself (used by verifiers); synthesis goes through Dual.
func New(kind Kind, p, c int, root topology.Node) (*Spec, error) {
	if p <= 0 || c <= 0 {
		return nil, fmt.Errorf("collective: need positive P and C (got P=%d C=%d)", p, c)
	}
	if int(root) < 0 || int(root) >= p {
		return nil, fmt.Errorf("collective: root %d out of range [0,%d)", root, p)
	}
	g, err := ToGlobal(kind, p, c)
	if err != nil {
		return nil, err
	}
	if !kind.IsRooted() {
		root = 0
	}
	s := &Spec{Kind: kind, P: p, C: c, Root: root, G: g}
	switch kind {
	case Gather:
		s.Pre, s.Post = ScatteredRel(g, p), RootRel(g, p, root)
	case Allgather:
		s.Pre, s.Post = ScatteredRel(g, p), AllRel(g, p)
	case Alltoall:
		s.Pre, s.Post = ScatteredRel(g, p), TransposeRel(g, p)
	case Broadcast:
		s.Pre, s.Post = RootRel(g, p, root), AllRel(g, p)
	case Scatter:
		s.Pre, s.Post = RootRel(g, p, root), ScatteredRel(g, p)
	case Reduce:
		// Data starts everywhere (each node holds a contribution for every
		// chunk) and the reduced chunks end at the root.
		s.Pre, s.Post = AllRel(g, p), RootRel(g, p, root)
	case Reducescatter:
		s.Pre, s.Post = AllRel(g, p), ScatteredRel(g, p)
	case Allreduce:
		s.Pre, s.Post = AllRel(g, p), AllRel(g, p)
	default:
		return nil, fmt.Errorf("collective: unknown kind %v", kind)
	}
	return s, nil
}

// Dual returns the non-combining collective whose synthesis yields this
// collective's algorithm (paper §3.5), plus how to derive it:
// inverted=true means invert the dual's algorithm on the reversed
// topology; composed=true (Allreduce) means compose the inverse of the
// dual with the dual itself.
func (s *Spec) Dual() (dual Kind, inverted, composed bool, err error) {
	switch s.Kind {
	case Reduce:
		return Broadcast, true, false, nil
	case Reducescatter:
		return Allgather, true, false, nil
	case Allreduce:
		return Allgather, false, true, nil
	case Gather, Allgather, Alltoall, Broadcast, Scatter:
		return s.Kind, false, false, nil
	}
	return 0, false, false, fmt.Errorf("collective: no dual for %v", s.Kind)
}

// DualPerNodeCount returns the per-node chunk count of the dual instance.
// For Allreduce with per-node count C the underlying Allgather uses C/P.
func (s *Spec) DualPerNodeCount() int {
	if s.Kind == Allreduce {
		return s.C / s.P
	}
	return s.C
}

// Implies reports whether every algorithm for s is also one for t: both
// are non-combining, they share P, G and the precondition, and t's
// postcondition is contained in s's. Allgather implies Gather at any
// root and Alltoall at the same C; algorithm.Project prunes an
// algorithm for s down to the sends t needs.
func (s *Spec) Implies(t *Spec) bool {
	if s.Kind.IsCombining() || t.Kind.IsCombining() || s.P != t.P || s.G != t.G {
		return false
	}
	for c := 0; c < s.G; c++ {
		for n := 0; n < s.P; n++ {
			if s.Pre[c][n] != t.Pre[c][n] || (t.Post[c][n] && !s.Post[c][n]) {
				return false
			}
		}
	}
	return true
}

// String renders a short description.
func (s *Spec) String() string {
	return fmt.Sprintf("%s(P=%d, C=%d, G=%d)", s.Kind, s.P, s.C, s.G)
}

package algorithm

import (
	"fmt"

	"repro/internal/collective"
)

// Project derives an algorithm for coll from a, an algorithm for a
// collective that implies coll (collective.Spec.Implies): the same P, G
// and precondition, and a postcondition that contains coll's. It keeps
// a's per-step rounds, so (C, S, R) stay a's, and of a's sends only those
// on the earliest delivery path of a (chunk, node) pair coll requires:
// the first send that delivers the chunk to the node, then the first one
// that delivered it to that send's source, and so on back to a
// precondition node. a must validate, and so does the result.
func Project(a *Algorithm, coll *collective.Spec) (*Algorithm, error) {
	if !a.Coll.Implies(coll) {
		return nil, fmt.Errorf("algorithm: %v does not imply %v", a.Coll, coll)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	var sends []Send
	for _, group := range a.stepSends() {
		sends = append(sends, group...)
	}
	// first[c][n] indexes the earliest send delivering chunk c to node n
	// (-1: none, or n holds c from the start).
	first := make([][]int, a.G)
	for c := range first {
		first[c] = make([]int, a.P)
		for n := range first[c] {
			first[c][n] = -1
		}
	}
	for i, snd := range sends {
		if !coll.Pre[snd.Chunk][snd.To] && first[snd.Chunk][snd.To] < 0 {
			first[snd.Chunk][snd.To] = i
		}
	}
	keep := make([]bool, len(sends))
	for c := 0; c < coll.G; c++ {
		for n := 0; n < coll.P; n++ {
			if !coll.Post[c][n] {
				continue
			}
			// Walk back until a precondition node or a path already kept.
			for at := n; !coll.Pre[c][at]; {
				i := first[c][at]
				if i < 0 {
					return nil, fmt.Errorf("algorithm: %q never delivers chunk %d to node %d", a.Name, c, at)
				}
				if keep[i] {
					break
				}
				keep[i] = true
				at = int(sends[i].From)
			}
		}
	}
	var kept []Send
	for i, snd := range sends {
		if keep[i] {
			kept = append(kept, snd)
		}
	}
	p := New(a.Name+"-projected", coll, a.Topo, a.Rounds, kept)
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("algorithm: projected algorithm invalid: %w", err)
	}
	return p, nil
}

package algorithm

import (
	"reflect"
	"testing"

	"repro/internal/collective"
	"repro/internal/topology"
)

// TestProjectRingAllgather: the ring Allgather on 5 nodes projected onto
// Gather at each root keeps, for each chunk, the hops from its owner to
// the root — 1 + 2 + 3 + 4 = 10 of the 20 sends — and its rounds; onto
// Alltoall (at C = 1 every chunk belongs at node 0) chunk 0 never leaves
// its owner. A spec the Allgather does not imply, or an Allgather that
// does not validate, is refused.
func TestProjectRingAllgather(t *testing.T) {
	const n = 5
	ag := ringAllgather(t, n)
	for root := 0; root < n; root++ {
		ga, err := collective.New(collective.Gather, n, 1, topology.Node(root))
		if err != nil {
			t.Fatal(err)
		}
		p, err := Project(ag, ga)
		if err != nil {
			t.Fatalf("Gather at root %d: %v", root, err)
		}
		if len(p.Sends) != 10 || !reflect.DeepEqual(p.Rounds, ag.Rounds) || p.Coll != ga {
			t.Errorf("Gather at root %d: %d sends, rounds %v; want 10 sends, rounds %v", root, len(p.Sends), p.Rounds, ag.Rounds)
		}
		for _, snd := range p.Sends {
			if snd.From == topology.Node(root) {
				t.Errorf("Gather at root %d keeps %v, which leaves the root", root, snd)
			}
		}
	}
	aa, _ := collective.New(collective.Alltoall, n, 1, 0)
	p, err := Project(ag, aa)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Run(); !reflect.DeepEqual(got[0], []bool{true, false, false, false, false}) {
		t.Errorf("Alltoall chunk 0 ends at %v, want only node 0", got[0])
	}
	bc, _ := collective.New(collective.Broadcast, n, n, 0)
	if _, err := Project(ag, bc); err == nil {
		t.Error("projected an Allgather onto a Broadcast")
	}
	ag.Sends = ag.Sends[1:]
	ga, _ := collective.New(collective.Gather, n, 1, 0)
	if _, err := Project(ag, ga); err == nil {
		t.Error("projected an Allgather that fails validation")
	}
}

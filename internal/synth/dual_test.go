package synth

import (
	"fmt"
	"testing"

	"repro/internal/algorithm"
	"repro/internal/collective"
	"repro/internal/sat"
	"repro/internal/topology"
)

// asymmetricRing is a bidirectional 4-ring whose clockwise links carry
// twice the bandwidth of the counter-clockwise ones: the same links as
// its reverse, but not the same fabric.
func asymmetricRing() *topology.Topology {
	t := &topology.Topology{Name: "asym-ring:4", P: 4}
	for i := 0; i < 4; i++ {
		a, b := topology.Node(i), topology.Node((i+1)%4)
		t.Relations = append(t.Relations,
			topology.Relation{Links: []topology.Link{{Src: a, Dst: b}}, Bandwidth: 2},
			topology.Relation{Links: []topology.Link{{Src: b, Dst: a}}, Bandwidth: 1})
	}
	return t
}

// TestDualInstancesAndDuality: Reduce, Reducescatter and Allreduce on one
// fabric of every builder family with P <= 8 (all but dgx2; each equal to
// its reverse except the one-way ring), and on a ring with asymmetric
// bandwidth, are
// answered through DualInstances — one instance on topo itself exactly
// when the fabric is self-reverse — and the assembled answer validates
// with the dual's budget: (C, S, R) for the inverses, (P·C, 2S, 2R) for
// Allreduce.
func TestDualInstancesAndDuality(t *testing.T) {
	rows := []struct {
		spec     string
		selfRev  bool
		bcS, bcR int // a Sat Broadcast budget at C = 1
		agS, agR int // a Sat Allgather budget at C = 1
	}{
		{"dgx1", true, 2, 2, 2, 2},
		{"amd", true, 4, 4, 4, 4},
		{"bidir-ring:8", true, 4, 4, 4, 4},
		{"line:8", true, 7, 7, 7, 7},
		{"fc:8", true, 1, 1, 1, 1},
		{"star:8", true, 1, 1, 3, 7},
		{"hypercube:3", true, 3, 3, 3, 3},
		{"torus:2x4", true, 3, 3, 3, 3},
		{"torus3d:2x2x2", true, 3, 3, 3, 3},
		{"fat-tree:2:2:1:1", true, 1, 3, 1, 4},
		{"dragonfly:4:2:1", true, 3, 3, 3, 4},
		{"bus:4:1", true, 1, 3, 1, 12},
		{"multinode:bidir-ring:4:2:1:1", true, 3, 3, 5, 6},
		{"ring:4", false, 3, 3, 3, 3},
		{"", false, 2, 2, 2, 2}, // asymmetricRing
	}
	for _, row := range rows {
		topo := asymmetricRing()
		if row.spec != "" {
			spec, err := topology.ParseSpec(row.spec)
			if err != nil {
				t.Fatal(err)
			}
			if topo, err = spec.Build(); err != nil {
				t.Fatal(err)
			}
		}
		if got := topo.Reverse().Fingerprint() == topo.Fingerprint(); got != row.selfRev {
			t.Fatalf("%s: self-reverse %v, want %v", topo.Name, got, row.selfRev)
		}
		for _, kind := range []collective.Kind{collective.Reduce, collective.Reducescatter, collective.Allreduce} {
			s, r := row.agS, row.agR
			if kind == collective.Reduce {
				s, r = row.bcS, row.bcR
			}
			name := fmt.Sprintf("%v on %s (1,%d,%d)", kind, topo.Name, s, r)
			ins, err := DualInstances(kind, topo, 0, 1, s, r)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			wantLen := 1
			if kind == collective.Allreduce && !row.selfRev {
				wantLen = 2
			}
			if len(ins) != wantLen || (ins[0].Topo == topo) != row.selfRev || ins[len(ins)-1].Coll.Kind.IsCombining() {
				t.Fatalf("%s: %d dual instances, first on topo %v", name, len(ins), ins[0].Topo == topo)
			}
			alg, status, err := SynthesizeCollective(kind, topo, 0, 1, s, r, Options{})
			if err != nil || status != sat.Sat {
				t.Fatalf("%s: %v %v", name, status, err)
			}
			if err := alg.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := fmt.Sprintf("(1,%d,%d)", s, r)
			if kind == collective.Allreduce {
				want = fmt.Sprintf("(%d,%d,%d)", topo.P, 2*s, 2*r)
			}
			if alg.Coll.Kind != kind || alg.Topo != topo || alg.CSR() != want {
				t.Errorf("%s: %v %s on %s, want %s on the caller's topology", name, alg.Coll.Kind, alg.CSR(), alg.Topo.Name, want)
			}
		}
	}
}

// TestDualInstancesNonCombining: a non-combining kind is its own single
// instance on topo, and AssembleDuals hands its algorithm back.
func TestDualInstancesNonCombining(t *testing.T) {
	topo := topology.Ring(4)
	ins, err := DualInstances(collective.Allgather, topo, 0, 1, 3, 3)
	if err != nil || len(ins) != 1 || ins[0].Topo != topo || ins[0].Coll.Kind != collective.Allgather {
		t.Fatalf("Allgather dual instances %+v, %v", ins, err)
	}
	res, err := Synthesize(ins[0], Options{})
	if err != nil || res.Status != sat.Sat {
		t.Fatal(res.Status, err)
	}
	if alg, err := AssembleDuals(collective.Allgather, topo, nil); err == nil {
		t.Fatalf("assembled %v from no algorithms", alg)
	}
	if alg, err := AssembleDuals(collective.Allgather, topo, []*algorithm.Algorithm{res.Algorithm}); err != nil || alg != res.Algorithm {
		t.Fatalf("AssembleDuals = %v, %v", alg, err)
	}
}

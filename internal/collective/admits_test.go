package collective

import (
	"math/big"
	"testing"

	"repro/internal/topology"
)

// smallFabrics is one or two fabrics of every builder family with at most
// nine nodes (every family but dgx2).
var smallFabrics = []string{
	"dgx1", "amd", "ring:2", "ring:5", "bidir-ring:9", "line:9", "fc:9",
	"star:9", "hypercube:3", "torus:3x3", "torus:2x4", "torus3d:2x2x2",
	"fat-tree:2:4:1:2", "dragonfly:3:3:1", "bus:4:1", "bus:9:2",
	"multinode:bidir-ring:4:2:1:1", "multinode:ring:3:3:1:2",
}

// TestAdmitsSound: on every small builder fabric, for Allgather, Gather,
// Alltoall and Broadcast over a grid of budgets around their bounds,
// Admits' latency check is the exact one, and it rejects some budget.
// That every rejected budget is Unsat is checked against the solver in
// internal/synth (TestAdmitsRejectsOnlyUnsat): the arrival window
// rejects budgets the budget-free latency and R/C bounds allow.
func TestAdmitsSound(t *testing.T) {
	rejected := 0
	for _, name := range smallFabrics {
		spec, err := topology.ParseSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []Kind{Allgather, Gather, Alltoall, Broadcast} {
			for c := 1; c <= 2; c++ {
				s, err := New(kind, topo.P, c, topology.Node(topo.P-1))
				if err != nil {
					t.Fatal(err)
				}
				lat := LatencyLowerBound(s, topo)
				bw := BandwidthLowerBound(s, topo)
				minR := new(big.Rat).Mul(bw, big.NewRat(int64(c), 1))
				for steps := 1; steps <= lat+1 || steps <= 2; steps++ {
					for rounds := steps; rounds <= steps+int(minR.Num().Int64()/minR.Denom().Int64())+2; rounds++ {
						admits := Admits(s, topo, steps, rounds)
						if !admits {
							rejected++
						}
						if (lat < 0 || steps < lat) && admits {
							t.Errorf("%s %v C=%d (S=%d, R=%d): Admits allows a budget below the latency bound %d", name, kind, c, steps, rounds, lat)
						}
					}
				}
			}
		}
	}
	if rejected == 0 {
		t.Fatal("Admits rejected no budget on the grid")
	}
}

// TestAdmitsArrivalWindow pins the window arithmetic on two fabrics.
// On multinode:dgx1:4:2:2, 20 of node 6's Allgather chunks (C=1) start
// at least 4 hops away, and its ingress cut carries 6 chunks a round:
// at (S, R) = (6, 6) steps 4..6 hold at most 3 rounds, room for 18, so
// the budget is rejected, while (7, 7) leaves 4 rounds, room for 24.
// On a one-way ring:8 the node 7 hops past the Broadcast root must
// receive all C chunks in steps 7..S, so (7, R) is admitted exactly
// when R − 6 ≥ C.
func TestAdmitsArrivalWindow(t *testing.T) {
	build := func(name string) *topology.Topology {
		spec, err := topology.ParseSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	mn := build("multinode:dgx1:4:2:2")
	ag, _ := New(Allgather, mn.P, 1, 0)
	const node, a = 6, 4
	far := 0
	for c := 0; c < ag.G; c++ {
		if !ag.Post[c][node] || ag.Pre[c][node] {
			continue
		}
		distant := true
		for m := 0; m < ag.P; m++ {
			if ag.Pre[c][m] && mn.Distance(topology.Node(m), node) < a {
				distant = false
			}
		}
		if distant {
			far++
		}
	}
	if in := mn.InBandwidth(node); far != 20 || in != 6 {
		t.Fatalf("node %d: %d chunks at least %d hops away, ingress %d; want 20 and 6", node, far, a, in)
	}
	if Admits(ag, mn, 6, 6) {
		t.Error("multinode:dgx1:4:2:2 Allgather (1,6,6) admitted; 20 chunks exceed 6 per round over 3 rounds")
	}
	if !Admits(ag, mn, 7, 7) {
		t.Error("multinode:dgx1:4:2:2 Allgather (1,7,7) rejected")
	}

	ring := build("ring:8")
	for c := 1; c <= 4; c++ {
		bc, _ := New(Broadcast, ring.P, c, 0)
		for rounds := 7; rounds <= 12; rounds++ {
			if got, want := Admits(bc, ring, 7, rounds), rounds >= c+6; got != want {
				t.Errorf("ring:8 Broadcast C=%d (S=7, R=%d): Admits %v, want %v", c, rounds, got, want)
			}
		}
	}
}

// TestImplies: Allgather implies Gather at every root and Alltoall at the
// same C, neither implies it back, and no spec with another
// precondition, chunk count or a combining kind is implied.
func TestImplies(t *testing.T) {
	const p, c = 4, 2
	ag, _ := New(Allgather, p, c, 0)
	for root := 0; root < p; root++ {
		ga, _ := New(Gather, p, c, topology.Node(root))
		if !ag.Implies(ga) || ga.Implies(ag) {
			t.Errorf("Gather at root %d: Allgather implies it %v, it implies Allgather %v", root, ag.Implies(ga), ga.Implies(ag))
		}
	}
	aa, _ := New(Alltoall, p, c, 0)
	if !ag.Implies(aa) || aa.Implies(ag) || !ag.Implies(ag) {
		t.Error("Allgather should imply Alltoall and itself, and Alltoall not Allgather")
	}
	other := func(k Kind, cc int) *Spec { s, _ := New(k, p, cc, 0); return s }
	for _, s := range []*Spec{other(Broadcast, c*p), other(Scatter, c), other(Gather, c+1), other(Reducescatter, c)} {
		if ag.Implies(s) {
			t.Errorf("Allgather implies %v", s)
		}
	}
	if other(Allreduce, p).Implies(other(Reduce, p)) {
		t.Error("a combining spec implies another")
	}
	if !Gather.IsRooted() || !Reduce.IsRooted() || Allgather.IsRooted() || Allreduce.IsRooted() {
		t.Error("IsRooted: want Gather and Reduce rooted, Allgather and Allreduce not")
	}
}

var admitsSink bool

// BenchmarkAdmits times the filter on the Allgather of the largest
// Table 4 budget and on the largest fabric the benchmark sweeps.
func BenchmarkAdmits(b *testing.B) {
	for _, row := range []struct {
		fabric         string
		c, steps, rnds int
	}{{"dgx1", 6, 7, 7}, {"torus:6x6", 1, 6, 35}} {
		spec, err := topology.ParseSpec(row.fabric)
		if err != nil {
			b.Fatal(err)
		}
		topo, err := spec.Build()
		if err != nil {
			b.Fatal(err)
		}
		s, _ := New(Allgather, topo.P, row.c, 0)
		b.Run(row.fabric, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				admitsSink = Admits(s, topo, row.steps, row.rnds)
			}
		})
	}
}

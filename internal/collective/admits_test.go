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
// every budget Admits rejects is rejected by the exact bounds too (S
// below the latency bound, or R/C below the bandwidth bound over all
// 2^P cuts), and Admits' latency check is the exact one.
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
						exact := lat >= 0 && steps >= lat && big.NewRat(int64(rounds), int64(c)).Cmp(bw) >= 0
						if !admits {
							rejected++
						}
						if !admits && exact {
							t.Errorf("%s %v C=%d (S=%d, R=%d): Admits rejects a budget the exact bounds allow", name, kind, c, steps, rounds)
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

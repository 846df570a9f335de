package synth

import (
	"math/big"
	"testing"

	"repro/internal/collective"
	"repro/internal/sat"
	"repro/internal/topology"
)

// admitsFabrics is one or two fabrics of every builder family with at
// most nine nodes (every family but dgx2), as in collective's Admits
// tests.
var admitsFabrics = []string{
	"dgx1", "amd", "ring:2", "ring:5", "bidir-ring:9", "line:9", "fc:9",
	"star:9", "hypercube:3", "torus:3x3", "torus:2x4", "torus3d:2x2x2",
	"fat-tree:2:4:1:2", "dragonfly:3:3:1", "bus:4:1", "bus:9:2",
	"multinode:bidir-ring:4:2:1:1", "multinode:ring:3:3:1:2",
}

// TestAdmitsRejectsOnlyUnsat is the solver oracle for collective.Admits:
// on every small builder fabric, for Allgather, Gather, Alltoall and
// Broadcast at C ≤ 2, the first budget an upward walk from the latency
// bound L tries, (S, R) = (L, L), is Unsat with a proof sat.CheckRUP
// accepts whenever Admits rejects it. ProveUnsat skips the Admits check
// in the pipeline, so the solver decides each of them. Some rejected
// budget lies at or above the exact R/C bound: the arrival window
// refutes what the budget-free bounds cannot. (Budgets with more rounds
// or steps are left out because the quadratic RUP checker takes seconds
// on their proofs.)
func TestAdmitsRejectsOnlyUnsat(t *testing.T) {
	rejected, aboveRC := 0, 0
	for _, name := range admitsFabrics {
		spec, err := topology.ParseSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []collective.Kind{collective.Allgather, collective.Gather, collective.Alltoall, collective.Broadcast} {
			for c := 1; c <= 2; c++ {
				coll, err := collective.New(kind, topo.P, c, topology.Node(topo.P-1))
				if err != nil {
					t.Fatal(err)
				}
				lat := collective.LatencyLowerBound(coll, topo)
				if collective.Admits(coll, topo, lat, lat) {
					continue
				}
				rejected++
				if big.NewRat(int64(lat), int64(c)).Cmp(collective.BandwidthLowerBound(coll, topo)) >= 0 {
					aboveRC++
				}
				res, err := Synthesize(Instance{Coll: coll, Topo: topo, Steps: lat, Round: lat}, Options{ProveUnsat: true})
				if err != nil {
					t.Fatal(err)
				}
				if res.Status != sat.Unsat || res.Proof == nil {
					t.Errorf("%s %v C=%d (S=R=%d): Admits rejects it, the solver answers %v (proof %v)", name, kind, c, lat, res.Status, res.Proof != nil)
					continue
				}
				if err := sat.CheckRUP(res.Proof.Problem(), res.Proof); err != nil {
					t.Errorf("%s %v C=%d (S=R=%d): proof rejected: %v", name, kind, c, lat, err)
				}
			}
		}
	}
	if aboveRC == 0 {
		t.Errorf("none of the %d rejected budgets lies at or above the exact R/C bound", rejected)
	}
}

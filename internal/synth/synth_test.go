package synth

import (
	"context"
	"math/big"
	"strings"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/sat"
	"repro/internal/topology"
)

func mustSpec(t *testing.T, kind collective.Kind, p, c int, root topology.Node) *collective.Spec {
	t.Helper()
	s, err := collective.New(kind, p, c, root)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustFabric builds the topology a spec string such as "torus:2x2" names.
func mustFabric(t *testing.T, name string) *topology.Topology {
	t.Helper()
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

func synth(t *testing.T, kind collective.Kind, topo *topology.Topology, c, s, r int) (*Result, error) {
	t.Helper()
	coll := mustSpec(t, kind, topo.P, c, 0)
	res, err := Synthesize(Instance{Coll: coll, Topo: topo, Steps: s, Round: r},
		Options{Timeout: 120 * time.Second})
	return &res, err
}

func TestSynthesizeRingAllgather(t *testing.T) {
	// Allgather on a 4-ring: needs exactly 3 steps with C=1.
	res, err := synth(t, collective.Allgather, topology.Ring(4), 1, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Sat {
		t.Fatalf("status %v", res.Status)
	}
	if res.Algorithm.Steps() != 3 || res.Algorithm.TotalRounds() != 3 {
		t.Fatalf("got %s", res.Algorithm.CSR())
	}
}

func TestSynthesizeRingAllgatherTooFewStepsUnsat(t *testing.T) {
	// 2 steps cannot cover a diameter-3 ring.
	res, err := synth(t, collective.Allgather, topology.Ring(4), 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Unsat {
		t.Fatalf("status %v, want Unsat", res.Status)
	}
}

func TestSynthesizeFigure2Shape(t *testing.T) {
	// Paper Figure 2: bidirectional 4-ring admits a (C=1, S=2, R=3)
	// 1-synchronous Allgather.
	res, err := synth(t, collective.Allgather, topology.BidirRing(4), 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Sat {
		t.Fatalf("status %v", res.Status)
	}
	if k := res.Algorithm.KSync(); k != 1 {
		t.Errorf("k = %d, want 1", k)
	}
	// (S=2, R=2) is also satisfiable (everyone sends its chunk both ways,
	// then one relay per node) — recursive doubling is not Pareto-optimal
	// here. S=1, however, is impossible: the ring has diameter 2.
	res2, err := synth(t, collective.Allgather, topology.BidirRing(4), 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Status != sat.Sat {
		t.Fatalf("S=2,R=2 should be Sat, got %v", res2.Status)
	}
	res3, err := synth(t, collective.Allgather, topology.BidirRing(4), 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Status != sat.Unsat {
		t.Fatalf("S=1 should be Unsat (diameter 2), got %v", res3.Status)
	}
}

func TestSynthesizeBroadcastLine(t *testing.T) {
	res, err := synth(t, collective.Broadcast, topology.Line(4), 1, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Sat {
		t.Fatalf("status %v", res.Status)
	}
}

func TestSynthesizeAlltoallFullyConnected(t *testing.T) {
	// 4 nodes fully connected, C=4 (one chunk per peer): 1 step suffices
	// with R=... each node sends 3 foreign chunks over 3 links: R >= 1.
	res, err := synth(t, collective.Alltoall, topology.FullyConnected(4), 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Sat {
		t.Fatalf("status %v", res.Status)
	}
}

func TestUnreachablePostIsUnsat(t *testing.T) {
	// Broadcast root 0 on a topology where node 2 is unreachable.
	tp := &topology.Topology{Name: "partial", P: 3, Relations: []topology.Relation{
		{Links: []topology.Link{{Src: 0, Dst: 1}}, Bandwidth: 1},
	}}
	coll := mustSpec(t, collective.Broadcast, 3, 1, 0)
	res, err := Synthesize(Instance{Coll: coll, Topo: tp, Steps: 3, Round: 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Unsat {
		t.Fatalf("status %v, want Unsat (node 2 unreachable)", res.Status)
	}
}

func TestInstanceValidation(t *testing.T) {
	coll := mustSpec(t, collective.Allgather, 4, 1, 0)
	topo := topology.Ring(4)
	if _, err := Synthesize(Instance{Coll: coll, Topo: topo, Steps: 0, Round: 0}, Options{}); err == nil {
		t.Error("zero steps should fail")
	}
	if _, err := Synthesize(Instance{Coll: coll, Topo: topo, Steps: 3, Round: 2}, Options{}); err == nil {
		t.Error("R < S should fail")
	}
	coll8 := mustSpec(t, collective.Allgather, 8, 1, 0)
	if _, err := Synthesize(Instance{Coll: coll8, Topo: topo, Steps: 3, Round: 3}, Options{}); err == nil {
		t.Error("P mismatch should fail")
	}
	rs := mustSpec(t, collective.Reducescatter, 4, 1, 0)
	if _, err := Synthesize(Instance{Coll: rs, Topo: topo, Steps: 3, Round: 3}, Options{}); err == nil {
		t.Error("combining collective should be rejected by Synthesize")
	}
}

// TestDirectEncodingAgreesWithPaperEncoding: the staged encoding and the
// paper's direct encoding (the oracle) agree on Sat/Unsat for every
// builder fabric family with P <= 5, five non-combining kinds, and budgets
// around the fabric's eccentricity from node 0, where the Sat/Unsat
// boundary lies. Alltoall runs at C = P: at C = 1 its transpose sends
// every chunk to node 0, the same spec as the Gather beside it. The
// hand-picked cases before the grid are kept as they were.
func TestDirectEncodingAgreesWithPaperEncoding(t *testing.T) {
	cases, sats := 0, 0
	check := func(topo *topology.Topology, kind collective.Kind, c, s, r int) {
		t.Helper()
		inst := Instance{Coll: mustSpec(t, kind, topo.P, c, 0), Topo: topo, Steps: s, Round: r}
		p, err := Synthesize(inst, Options{})
		if err != nil {
			t.Fatalf("%v on %s: %v", kind, topo.Name, err)
		}
		d, err := synthesizeDirect(context.Background(), inst, Options{})
		if err != nil {
			t.Fatalf("%v on %s (direct): %v", kind, topo.Name, err)
		}
		if p.Status != d.Status {
			t.Errorf("%v on %s (C=%d,S=%d,R=%d): staged=%v direct=%v", kind, topo.Name, c, s, r, p.Status, d.Status)
		}
		cases++
		if p.Status == sat.Sat {
			sats++
		}
	}
	check(topology.Ring(4), collective.Allgather, 1, 3, 3)
	check(topology.Ring(4), collective.Allgather, 1, 2, 2)
	check(topology.BidirRing(4), collective.Allgather, 1, 2, 3)
	check(topology.BidirRing(4), collective.Allgather, 1, 2, 2)
	check(topology.Line(4), collective.Broadcast, 1, 3, 3)
	check(topology.Line(4), collective.Broadcast, 1, 2, 2)
	check(topology.FullyConnected(3), collective.Alltoall, 3, 1, 1)

	fabrics := []string{
		"ring:3", "ring:4", "ring:5", "bidir-ring:4", "bidir-ring:5",
		"line:4", "line:5", "fc:3", "fc:4", "star:4", "star:5",
		"hypercube:2", "torus:2x2", "bus:4:1", "fat-tree:2:2:1:1",
	}
	kinds := []collective.Kind{collective.Allgather, collective.Broadcast, collective.Gather, collective.Scatter, collective.Alltoall}
	for _, name := range fabrics {
		topo := mustFabric(t, name)
		if topo.P > 5 {
			t.Fatalf("%s has %d nodes, want P <= 5", name, topo.P)
		}
		ecc := topo.Eccentricity(0)
		for _, kind := range kinds {
			c := 1
			if kind == collective.Alltoall {
				c = topo.P
			}
			for s := max(ecc-1, 1); s <= ecc+1; s++ {
				for r := s; r <= s+1; r++ {
					check(topo, kind, c, s, r)
				}
			}
		}
	}
	if sats == 0 || sats == cases {
		t.Errorf("%d of %d cases Sat: the budgets miss the Sat/Unsat boundary", sats, cases)
	}
}

func TestSynthesizedAlgorithmsAlwaysValidate(t *testing.T) {
	// Synthesize is documented to return only validated algorithms; stress
	// it across a family of instances.
	topos := []*topology.Topology{
		topology.Ring(5), topology.BidirRing(5), topology.Line(5),
		topology.Star(5), topology.FullyConnected(4), topology.Hypercube(3),
	}
	for _, tp := range topos {
		for _, kind := range []collective.Kind{collective.Allgather, collective.Broadcast, collective.Gather} {
			bounds, err := collective.EffectiveLowerBounds(kind, tp.P, 1, 0, tp)
			if err != nil {
				t.Fatal(err)
			}
			S := bounds.Steps + 1
			coll := mustSpec(t, kind, tp.P, 1, 0)
			res, err := Synthesize(Instance{Coll: coll, Topo: tp, Steps: S, Round: S + 1}, Options{})
			if err != nil {
				t.Fatalf("%v on %s: %v", kind, tp.Name, err)
			}
			if res.Status == sat.Sat && res.Algorithm == nil {
				t.Fatalf("%v on %s: Sat without algorithm", kind, tp.Name)
			}
		}
	}
}

func TestParetoSynthesizeRing(t *testing.T) {
	// Unidirectional 4-ring Allgather with k=0: single Pareto point
	// (C=1,S=3,R=3)... and bandwidth bound 3/1? In-bandwidth is 1, demand
	// 3: R/C >= 3, so (1,3,3) is simultaneously latency and bandwidth
	// optimal.
	pts, err := ParetoSynthesize(collective.Allgather, topology.Ring(4), 0,
		ParetoOptions{K: 0, MaxSteps: 6, MaxChunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("points: %v", pts)
	}
	p := pts[0]
	if p.C != 1 || p.S != 3 || p.R != 3 {
		t.Errorf("point %v, want (1,3,3)", p)
	}
	if !p.LatencyOptimal || !p.BandwidthOptimal {
		t.Errorf("optimality: %+v", p)
	}
}

func TestParetoSynthesizeBidirRing(t *testing.T) {
	// Bidirectional 4-ring, k=1: frontier should include the
	// latency-optimal (S=2) point and reach the bandwidth bound R/C=3/2.
	pts, err := ParetoSynthesize(collective.Allgather, topology.BidirRing(4), 0,
		ParetoOptions{K: 1, MaxSteps: 6, MaxChunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	first := pts[0]
	if first.S != 2 || !first.LatencyOptimal {
		t.Errorf("first point %v should be latency-optimal S=2", first)
	}
	last := pts[len(pts)-1]
	if !last.BandwidthOptimal {
		t.Errorf("last point %v should be bandwidth-optimal", last)
	}
	want := big.NewRat(3, 2)
	got := big.NewRat(int64(last.R), int64(last.C))
	if got.Cmp(want) != 0 {
		t.Errorf("final bandwidth cost %v, want 3/2", got)
	}
}

func TestSynthesizeCollectiveReducescatter(t *testing.T) {
	alg, status, err := SynthesizeCollectiveContext(context.Background(), collective.Reducescatter,
		topology.Ring(4), 0, 1, 3, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if status != sat.Sat {
		t.Fatalf("status %v", status)
	}
	if alg.Coll.Kind != collective.Reducescatter {
		t.Fatalf("kind %v", alg.Coll.Kind)
	}
	if err := alg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSynthesizeCollectiveReduce(t *testing.T) {
	alg, status, err := SynthesizeCollectiveContext(context.Background(), collective.Reduce,
		topology.BidirRing(4), 0, 1, 2, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if status != sat.Sat {
		t.Fatalf("status %v", status)
	}
	if alg.Coll.Kind != collective.Reduce || alg.Steps() != 2 {
		t.Fatalf("got %v %s", alg.Coll.Kind, alg.CSR())
	}
}

func TestSynthesizeCollectiveAllreduce(t *testing.T) {
	alg, status, err := SynthesizeCollectiveContext(context.Background(), collective.Allreduce,
		topology.BidirRing(4), 0, 1, 2, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if status != sat.Sat {
		t.Fatalf("status %v", status)
	}
	if alg.Coll.Kind != collective.Allreduce {
		t.Fatalf("kind %v", alg.Coll.Kind)
	}
	// Composition doubles steps and rounds.
	if alg.Steps() != 4 || alg.TotalRounds() != 6 {
		t.Fatalf("S=%d R=%d, want 4, 6", alg.Steps(), alg.TotalRounds())
	}
	if err := alg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEmitSMTLIBStructure(t *testing.T) {
	coll := mustSpec(t, collective.Allgather, 4, 1, 0)
	inst := Instance{Coll: coll, Topo: topology.Ring(4), Steps: 3, Round: 3}
	script, err := EmitSMTLIB(inst)
	if err != nil {
		t.Fatal(err)
	}
	text := script.String()
	for _, want := range []string{
		"(set-logic QF_LIA)",
		"(declare-const time_c0_n0 Int)",
		"(declare-const snd_n0_c0_n1 Bool)",
		"(declare-const r_0 Int)",
		"(= time_c0_n0 0)",  // C1
		"(<= time_c0_n1 3)", // C2
		"(check-sat)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("script missing %q", want)
		}
	}
}

func TestEncodingStatsPopulated(t *testing.T) {
	res, err := synth(t, collective.Allgather, topology.Ring(4), 1, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Vars == 0 || res.Clauses == 0 {
		t.Errorf("stats not populated: vars=%d clauses=%d", res.Vars, res.Clauses)
	}
}

package sccl_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	sccl "repro"
)

func TestParseTopology(t *testing.T) {
	cases := []struct {
		spec string
		p    int
	}{
		{"dgx1", 8}, {"dgx2", 16}, {"amd", 8}, {"z52", 8},
		{"ring:5", 5}, {"bidir-ring:6", 6}, {"line:3", 3},
		{"fc:4", 4}, {"star:7", 7}, {"hypercube:3", 8},
		{"torus:2x3", 6}, {"bus:4:2", 4},
		{"multinode:dgx1:2:1:1", 16}, {"multinode:ring:4:2:1:1", 8},
	}
	for _, tc := range cases {
		topo, err := sccl.ParseTopology(tc.spec)
		if err != nil {
			t.Errorf("%s: %v", tc.spec, err)
			continue
		}
		if topo.P != tc.p {
			t.Errorf("%s: P = %d, want %d", tc.spec, topo.P, tc.p)
		}
		if err := topo.Validate(); err != nil {
			t.Errorf("%s: %v", tc.spec, err)
		}
	}
	for _, bad := range []string{
		"", "nope", "ring", "ring:x", "torus:5", "bus:3",
		"multinode:dgx1:2:1", "multinode:dgx1:1:1:1", "multinode:nope:2:1:1",
	} {
		if _, err := sccl.ParseTopology(bad); err == nil {
			t.Errorf("%q should fail", bad)
		}
	}
}

// TestParseTopologyRoundTrip checks that every topology constructor the
// package exports is reachable through ParseTopology and parses to the
// exact structure the constructor builds.
func TestParseTopologyRoundTrip(t *testing.T) {
	multi := func(base *sccl.Topology, count, nics, bw int) *sccl.Topology {
		t.Helper()
		topo, err := sccl.MultiNode(base, count, nics, bw)
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	cases := []struct {
		spec string
		want *sccl.Topology
	}{
		{"dgx1", sccl.DGX1()},
		{"dgx-1", sccl.DGX1()},
		{"dgx2", sccl.DGX2()},
		{"amd", sccl.AMDZ52()},
		{"z52", sccl.AMDZ52()},
		{"ring:5", sccl.Ring(5)},
		{"bidir-ring:6", sccl.BidirRing(6)},
		{"bring:6", sccl.BidirRing(6)},
		{"line:3", sccl.Line(3)},
		{"path:3", sccl.Line(3)},
		{"fc:4", sccl.FullyConnected(4)},
		{"fully-connected:4", sccl.FullyConnected(4)},
		{"star:7", sccl.Star(7)},
		{"hypercube:3", sccl.Hypercube(3)},
		{"cube:3", sccl.Hypercube(3)},
		{"torus:2x3", sccl.Torus2D(2, 3)},
		{"bus:4:2", sccl.SharedBus(4, 2)},
		{"multinode:dgx1:2:1:1", multi(sccl.DGX1(), 2, 1, 1)},
		{"multinode:ring:4:2:2:3", multi(sccl.Ring(4), 2, 2, 3)},
		{"mn:bus:4:2:3:1:2", multi(sccl.SharedBus(4, 2), 3, 1, 2)},
	}
	for _, tc := range cases {
		got, err := sccl.ParseTopology(tc.spec)
		if err != nil {
			t.Errorf("%s: %v", tc.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: parsed topology differs from constructor output", tc.spec)
		}
	}
}

func TestParseKindAndLowering(t *testing.T) {
	k, err := sccl.ParseKind("Allreduce")
	if err != nil || k != sccl.Allreduce {
		t.Fatalf("ParseKind: %v %v", k, err)
	}
	if _, err := sccl.ParseKind("Foo"); err == nil {
		t.Error("bad kind should fail")
	}
	l, err := sccl.ParseLowering("cudamemcpy")
	if err != nil || l != sccl.LowerCudaMemcpy {
		t.Fatalf("ParseLowering: %v %v", l, err)
	}
	if _, err := sccl.ParseLowering("warp-drive"); err == nil {
		t.Error("bad lowering should fail")
	}
}

// synthesize answers one request on a fresh engine.
func synthesize(t *testing.T, kind sccl.Kind, topo *sccl.Topology, c, s, r int) (*sccl.Algorithm, sccl.Status) {
	t.Helper()
	res, err := sccl.NewEngine(sccl.EngineOptions{}).Synthesize(context.Background(), sccl.Request{
		Kind: kind, Topo: topo, Budget: sccl.Budget{C: c, S: s, R: r},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Algorithm, res.Status
}

func TestFacadeSynthesisRoundTrip(t *testing.T) {
	alg, status := synthesize(t, sccl.Allgather, sccl.BidirRing(4), 1, 2, 3)
	if status != sccl.Sat || alg == nil {
		t.Fatalf("status %v", status)
	}
	if err := sccl.Execute(alg, 32); err != nil {
		t.Fatal(err)
	}
	src, err := sccl.GenerateCUDA(alg, sccl.LowerFusedPush)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "__global__") {
		t.Error("missing kernel in generated source")
	}
}

func TestFacadeLowerBounds(t *testing.T) {
	steps, bw, err := sccl.LowerBounds(sccl.Allgather, sccl.DGX1(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 2 || bw.RatString() != "7/6" {
		t.Fatalf("bounds: %d, %s", steps, bw.RatString())
	}
}

func TestFacadeInvertAndCompose(t *testing.T) {
	ag, status := synthesize(t, sccl.Allgather, sccl.Ring(4), 1, 3, 3)
	if status != sccl.Sat {
		t.Fatal(status)
	}
	rs, err := sccl.Invert(ag)
	if err != nil {
		t.Fatal(err)
	}
	// rs runs on the reversed ring; compose needs an Allgather on the
	// same (reversed) topology.
	ag2, status := synthesize(t, sccl.Allgather, rs.Topo, 1, 3, 3)
	if status != sccl.Sat {
		t.Fatal(status)
	}
	ar, err := sccl.ComposeAllreduce(rs, ag2)
	if err != nil {
		t.Fatal(err)
	}
	if ar.Steps() != 6 {
		t.Fatalf("composed steps = %d", ar.Steps())
	}
	if err := sccl.Execute(ar, 16); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeBaselines(t *testing.T) {
	for name, f := range map[string]func() (*sccl.Algorithm, error){
		"nccl-ag": sccl.NCCLAllgather,
		"nccl-ar": sccl.NCCLAllreduce,
		"rccl-ag": sccl.RCCLAllgather,
		"rccl-ar": sccl.RCCLAllreduce,
	} {
		alg, err := f()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if alg.P != 8 {
			t.Errorf("%s: P = %d", name, alg.P)
		}
	}
	bc, err := sccl.NCCLBroadcast(3, 2)
	if err != nil || bc.C != 12 {
		t.Errorf("broadcast: %v %v", bc, err)
	}
}

func TestFacadeEmitSMTLIB(t *testing.T) {
	topo := sccl.Ring(3)
	coll, err := sccl.NewCollective(sccl.Allgather, 3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	script, err := sccl.EmitSMTLIB(sccl.Instance{Coll: coll, Topo: topo, Steps: 2, Round: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(script.String(), "QF_LIA") {
		t.Error("script missing logic")
	}
}

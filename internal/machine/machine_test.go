package machine

import (
	"context"
	"strings"
	"testing"

	"repro/internal/algorithm"
	"repro/internal/collective"
	"repro/internal/nccl"
	"repro/internal/synth"
	"repro/internal/topology"
)

func synthesize(t *testing.T, kind collective.Kind, topo *topology.Topology, c, s, r int) *algorithm.Algorithm {
	t.Helper()
	alg, status, err := synth.SynthesizeCollectiveContext(context.Background(), kind, topo, 0, c, s, r, synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if alg == nil {
		t.Fatalf("synthesis not SAT: %v", status)
	}
	return alg
}

func TestExecuteRingAllgather(t *testing.T) {
	alg := synthesize(t, collective.Allgather, topology.Ring(4), 1, 3, 3)
	if err := ExecuteAndVerify(alg, 16); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteBroadcast(t *testing.T) {
	alg := synthesize(t, collective.Broadcast, topology.Line(5), 1, 4, 4)
	if err := ExecuteAndVerify(alg, 8); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteReducescatterSumsContributions(t *testing.T) {
	alg := synthesize(t, collective.Reducescatter, topology.Ring(4), 1, 3, 3)
	ex, err := NewExecutor(alg)
	if err != nil {
		t.Fatal(err)
	}
	in := MakeInputs(alg, 4)
	out, err := ex.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(alg, in, out); err != nil {
		t.Fatal(err)
	}
	// Chunk 0 ends at node 0 with the sum of contributions c*1000+n+1 for
	// n in 0..3: 4*(0+1) + (1+2+3) = 10 with c=0.
	want := Elem(1 + 2 + 3 + 4)
	if got := out[0][0][0]; got != want {
		t.Fatalf("reduced chunk 0 = %v, want %v", got, want)
	}
}

func TestExecuteAllreduce(t *testing.T) {
	alg := synthesize(t, collective.Allreduce, topology.BidirRing(4), 1, 3, 3)
	if err := ExecuteAndVerify(alg, 32); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteNCCLBaselines(t *testing.T) {
	ag, err := nccl.Allgather()
	if err != nil {
		t.Fatal(err)
	}
	if err := ExecuteAndVerify(ag, 4); err != nil {
		t.Fatalf("nccl allgather: %v", err)
	}
	ar, err := nccl.Allreduce()
	if err != nil {
		t.Fatal(err)
	}
	if err := ExecuteAndVerify(ar, 2); err != nil {
		t.Fatalf("nccl allreduce: %v", err)
	}
	bc, err := nccl.Broadcast(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ExecuteAndVerify(bc, 4); err != nil {
		t.Fatalf("nccl broadcast: %v", err)
	}
	rd, err := nccl.Reduce(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ExecuteAndVerify(rd, 4); err != nil {
		t.Fatalf("nccl reduce: %v", err)
	}
}

func TestExecutorRejectsInvalidAlgorithm(t *testing.T) {
	topo := topology.Ring(3)
	coll, _ := collective.New(collective.Allgather, 3, 1, 0)
	bad := algorithm.New("bad", coll, topo, []int{1}, nil)
	if _, err := NewExecutor(bad); err == nil {
		t.Fatal("invalid algorithm must be rejected")
	}
}

func TestRunRejectsMissingPreInput(t *testing.T) {
	alg := synthesize(t, collective.Allgather, topology.Ring(3), 1, 2, 2)
	ex, err := NewExecutor(alg)
	if err != nil {
		t.Fatal(err)
	}
	in := NewBuffers(alg.P, alg.G) // all nil
	if _, err := ex.Run(in); err == nil || !strings.Contains(err.Error(), "precondition") {
		t.Fatalf("want precondition error, got %v", err)
	}
}

func TestRunIsRepeatable(t *testing.T) {
	alg := synthesize(t, collective.Allgather, topology.BidirRing(4), 1, 2, 3)
	ex, err := NewExecutor(alg)
	if err != nil {
		t.Fatal(err)
	}
	in := MakeInputs(alg, 8)
	for i := 0; i < 10; i++ {
		out, err := ex.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(alg, in, out); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

func TestRunDoesNotMutateInput(t *testing.T) {
	alg := synthesize(t, collective.Reducescatter, topology.Ring(4), 1, 3, 3)
	ex, err := NewExecutor(alg)
	if err != nil {
		t.Fatal(err)
	}
	in := MakeInputs(alg, 4)
	snapshot := make([]Elem, 4)
	copy(snapshot, in[1][1])
	if _, err := ex.Run(in); err != nil {
		t.Fatal(err)
	}
	for i, v := range in[1][1] {
		if v != snapshot[i] {
			t.Fatal("input mutated by Run")
		}
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	alg := synthesize(t, collective.Allgather, topology.Ring(4), 1, 3, 3)
	ex, _ := NewExecutor(alg)
	in := MakeInputs(alg, 4)
	out, err := ex.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	out[2][1][0] += 1 // corrupt one element
	if err := Verify(alg, in, out); err == nil {
		t.Fatal("verification should catch corruption")
	}
}

func TestLargerChunksAndTopologies(t *testing.T) {
	for _, tc := range []struct {
		topo    *topology.Topology
		kind    collective.Kind
		c, s, r int
	}{
		{topology.Hypercube(3), collective.Allgather, 1, 3, 4},
		{topology.Star(5), collective.Gather, 1, 2, 2},
		{topology.FullyConnected(4), collective.Alltoall, 4, 1, 1},
		{topology.BidirRing(6), collective.Reduce, 1, 3, 4},
	} {
		alg := synthesize(t, tc.kind, tc.topo, tc.c, tc.s, tc.r)
		if err := ExecuteAndVerify(alg, 64); err != nil {
			t.Errorf("%v on %s: %v", tc.kind, tc.topo.Name, err)
		}
	}
}

func BenchmarkExecutorNCCLAllgather(b *testing.B) {
	ag, err := nccl.Allgather()
	if err != nil {
		b.Fatal(err)
	}
	ex, err := NewExecutor(ag)
	if err != nil {
		b.Fatal(err)
	}
	in := MakeInputs(ag, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Run(in); err != nil {
			b.Fatal(err)
		}
	}
}

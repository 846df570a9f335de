package codegen

import (
	"context"
	"strings"
	"testing"

	"repro/internal/algorithm"
	"repro/internal/collective"
	"repro/internal/cost"
	"repro/internal/nccl"
	"repro/internal/synth"
	"repro/internal/topology"
)

func testAlg(t *testing.T) *algorithm.Algorithm {
	t.Helper()
	alg, _, err := synth.SynthesizeCollectiveContext(context.Background(), collective.Allgather, topology.Ring(4), 0, 1, 3, 3, synth.Options{})
	if err != nil || alg == nil {
		t.Fatalf("synthesis failed: %v", err)
	}
	return alg
}

func TestFusedKernelStructure(t *testing.T) {
	src, err := CUDA(testAlg(t), Options{Lowering: cost.LowerFusedPush})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"#include <cuda_runtime.h>",
		"struct ScclContext",
		"__device__ void sccl_copy",
		"__device__ void sccl_signal",
		"__threadfence()",
		"__global__ void",
		"switch (rank)",
		"case 0:",
		"case 3:",
		"sccl_wait",
		"float4", // 128-bit tiled copies
	} {
		if !strings.Contains(src, want) {
			t.Errorf("fused source missing %q", want)
		}
	}
	// Every node must have a case.
	for n := 0; n < 4; n++ {
		if !strings.Contains(src, "case "+string(rune('0'+n))) {
			t.Errorf("missing case %d", n)
		}
	}
}

func TestMultiKernelStructure(t *testing.T) {
	src, err := CUDA(testAlg(t), Options{Lowering: cost.LowerMultiKernel})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"_step0(", "_step1(", "_step2(",
		"cudaStreamSynchronize(stream); // global barrier between steps",
		"<<<1, 512, 0, stream>>>",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("multi-kernel source missing %q", want)
		}
	}
	// No flag machinery in the barrier-synchronized variant.
	if strings.Contains(src, "sccl_wait") {
		t.Error("multi-kernel lowering should not use flags")
	}
}

func TestMemcpyStructure(t *testing.T) {
	src, err := CUDA(testAlg(t), Options{Lowering: cost.LowerCudaMemcpy})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "cudaMemcpyPeerAsync") {
		t.Error("memcpy lowering must use cudaMemcpyPeerAsync")
	}
	if strings.Contains(src, "__global__") {
		t.Error("memcpy lowering should not emit kernels")
	}
}

func TestReduceOpsEmitted(t *testing.T) {
	rs, _, err := synth.SynthesizeCollectiveContext(context.Background(), collective.Reducescatter, topology.Ring(4), 0, 1, 3, 3, synth.Options{})
	if err != nil || rs == nil {
		t.Fatalf("synthesis failed: %v", err)
	}
	src, err := CUDA(rs, Options{Lowering: cost.LowerFusedPush})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "sccl_reduce(") {
		t.Error("reducescatter lowering must emit reduce calls")
	}
}

func TestElemTypeOverride(t *testing.T) {
	src, err := CUDA(testAlg(t), Options{Lowering: cost.LowerFusedPush, ElemType: "half"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "half* buf[SCCL_NODES]") {
		t.Error("elem type override not honored")
	}
}

func TestInvalidAlgorithmRejected(t *testing.T) {
	topo := topology.Ring(3)
	coll, _ := collective.New(collective.Allgather, 3, 1, 0)
	bad := algorithm.New("bad", coll, topo, []int{1}, nil)
	if _, err := CUDA(bad, Options{}); err == nil {
		t.Fatal("want error for invalid algorithm")
	}
}

func TestDefinesMatchAlgorithm(t *testing.T) {
	ag, err := nccl.Allgather()
	if err != nil {
		t.Fatal(err)
	}
	src, err := CUDA(ag, Options{Lowering: cost.LowerFusedPush})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"#define SCCL_NODES 8",
		"#define SCCL_CHUNKS 48",
		"#define SCCL_STEPS 7",
		"(C,S,R) = (6,7,7)",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("source missing %q", want)
		}
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("sccl-Allgather-c6.s7"); got != "sccl_Allgather_c6_s7" {
		t.Errorf("sanitize = %q", got)
	}
}

func TestGeneratedSourceDeterministic(t *testing.T) {
	alg := testAlg(t)
	a, _ := CUDA(alg, Options{Lowering: cost.LowerFusedPush})
	b, _ := CUDA(alg, Options{Lowering: cost.LowerFusedPush})
	if a != b {
		t.Error("codegen must be deterministic")
	}
}

// newInvalid builds a deliberately invalid algorithm for rejection tests.
func newInvalid(coll *collective.Spec) *algorithm.Algorithm {
	return algorithm.New("bad", coll, topology.Ring(coll.P), []int{1}, nil)
}

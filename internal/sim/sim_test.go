package sim

import (
	"context"
	"math"
	"testing"

	"repro/internal/algorithm"
	"repro/internal/collective"
	"repro/internal/cost"
	"repro/internal/nccl"
	"repro/internal/synth"
	"repro/internal/topology"
)

func ncclAllgather(t testing.TB) *algorithm.Algorithm {
	t.Helper()
	ag, err := nccl.Allgather()
	if err != nil {
		t.Fatal(err)
	}
	return ag
}

func TestBarrierModeMatchesCostModel(t *testing.T) {
	// NCCL ring allgather saturates every link each step, so the barrier
	// simulation must equal S*alphaLaunch + alphaBase + (R/C)*L*beta.
	ag := ncclAllgather(t)
	p := cost.DGX1Profile()
	L := float64(64 << 20)
	cfg := Config{Profile: p, Lowering: cost.LowerMultiKernel, Bytes: L}
	res, err := Simulate(ag, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := p.Time(ag.Steps(), ag.TotalRounds(), ag.C, cost.LowerMultiKernel, L)
	if math.Abs(res.Time-want)/want > 1e-9 {
		t.Fatalf("sim %.6e vs model %.6e", res.Time, want)
	}
	if len(res.PerStep) != 7 || res.Transfers != 6*8*7 {
		t.Fatalf("steps=%d transfers=%d", len(res.PerStep), res.Transfers)
	}
}

func TestFlagModePipelinesAcrossSteps(t *testing.T) {
	// The fused lowering must beat the multi-kernel lowering at every
	// size: same transfers, less synchronization.
	ag := ncclAllgather(t)
	p := cost.DGX1Profile()
	for _, L := range []float64{1 << 10, 1 << 20, 1 << 28} {
		fused, err := Simulate(ag, Config{Profile: p, Lowering: cost.LowerFusedPush, Bytes: L})
		if err != nil {
			t.Fatal(err)
		}
		multi, err := Simulate(ag, Config{Profile: p, Lowering: cost.LowerMultiKernel, Bytes: L})
		if err != nil {
			t.Fatal(err)
		}
		if fused.Time >= multi.Time {
			t.Errorf("L=%v: fused %.3e >= multi %.3e", L, fused.Time, multi.Time)
		}
	}
}

func TestLatencyOptimalWinsSmallSizes(t *testing.T) {
	// SCCL's 2-step DGX-1 Allgather must beat NCCL's 7-step ring at small
	// sizes in the simulator too, and lose at huge sizes (R/C 2 vs 7/6).
	lat, status, err := synth.SynthesizeCollectiveContext(context.Background(), collective.Allgather, topology.DGX1(), 0, 1, 2, 2, synth.Options{})
	if err != nil || lat == nil {
		t.Fatalf("synthesis failed: %v %v", status, err)
	}
	nccl := ncclAllgather(t)
	p := cost.DGX1Profile()
	small := 1024.0
	tLat, err := Simulate(lat, Config{Profile: p, Lowering: cost.LowerFusedPush, Bytes: small})
	if err != nil {
		t.Fatal(err)
	}
	tNccl, err := Simulate(nccl, Config{Profile: p, Lowering: cost.LowerBaseline, Bytes: small})
	if err != nil {
		t.Fatal(err)
	}
	if tLat.Time >= tNccl.Time {
		t.Errorf("small: sccl %.3e >= nccl %.3e", tLat.Time, tNccl.Time)
	}
	big := float64(512 << 20)
	tLatB, _ := Simulate(lat, Config{Profile: p, Lowering: cost.LowerFusedPush, Bytes: big})
	tNcclB, _ := Simulate(nccl, Config{Profile: p, Lowering: cost.LowerBaseline, Bytes: big})
	if tLatB.Time <= tNcclB.Time {
		t.Errorf("large: sccl latency-optimal %.3e <= nccl %.3e (R/C 2 vs 7/6)", tLatB.Time, tNcclB.Time)
	}
}

func TestSimulateRejectsInvalid(t *testing.T) {
	topo := topology.Ring(3)
	coll, _ := collective.New(collective.Allgather, 3, 1, 0)
	bad := algorithm.New("bad", coll, topo, []int{1}, nil)
	if _, err := Simulate(bad, Config{Profile: cost.DGX1Profile(), Bytes: 1}); err == nil {
		t.Fatal("want error")
	}
}

func TestSimulateNegativeSize(t *testing.T) {
	ag := ncclAllgather(t)
	if _, err := Simulate(ag, Config{Profile: cost.DGX1Profile(), Bytes: -5}); err == nil {
		t.Fatal("want error")
	}
}

func TestSweepMonotoneInSize(t *testing.T) {
	ag := ncclAllgather(t)
	p := cost.DGX1Profile()
	sizes := cost.SizeSweep(1024, 1<<26, 4)
	times, err := Sweep(ag, Config{Profile: p, Lowering: cost.LowerFusedPush}, sizes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("time not monotone at %d: %v", i, times)
		}
	}
}

func TestBarrierVsFlagOnAllreduce(t *testing.T) {
	ar, err := nccl.Allreduce()
	if err != nil {
		t.Fatal(err)
	}
	p := cost.DGX1Profile()
	L := float64(4 << 20)
	flag, err := Simulate(ar, Config{Profile: p, Lowering: cost.LowerFusedPush, Bytes: L})
	if err != nil {
		t.Fatal(err)
	}
	barrier, err := Simulate(ar, Config{Profile: p, Lowering: cost.LowerMultiKernel, Bytes: L})
	if err != nil {
		t.Fatal(err)
	}
	if flag.Time >= barrier.Time {
		t.Errorf("fused should pipeline the 14-step allreduce: %.3e vs %.3e", flag.Time, barrier.Time)
	}
}

func TestDMALoweringTradesAlphaForBandwidth(t *testing.T) {
	ag := ncclAllgather(t)
	p := cost.DGX1Profile()
	smallDMA, _ := Simulate(ag, Config{Profile: p, Lowering: cost.LowerCudaMemcpy, Bytes: 4096})
	smallBase, _ := Simulate(ag, Config{Profile: p, Lowering: cost.LowerBaseline, Bytes: 4096})
	if smallDMA.Time <= smallBase.Time {
		t.Error("DMA should lose at small sizes (launch alpha)")
	}
	bigDMA, _ := Simulate(ag, Config{Profile: p, Lowering: cost.LowerCudaMemcpy, Bytes: 1 << 30})
	bigBase, _ := Simulate(ag, Config{Profile: p, Lowering: cost.LowerBaseline, Bytes: 1 << 30})
	if bigDMA.Time >= bigBase.Time {
		t.Error("DMA should win at 1 GB (bandwidth)")
	}
}

func BenchmarkSimulateNCCLAllgather(b *testing.B) {
	ag := ncclAllgather(b)
	cfg := Config{Profile: cost.DGX1Profile(), Lowering: cost.LowerFusedPush, Bytes: 1 << 20}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(ag, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Benchmarks regenerating every table and figure of the SCCL paper's
// evaluation (§5), plus the ablations DESIGN.md calls out. Run:
//
//	go test -bench=. -benchmem            # default set
//	SCCL_SLOW=1 go test -bench=Table4     # include the minutes-long rows
//
// The same rows/series print from cmd/scclbench; here each experiment is
// timed and its key numbers are attached as benchmark metrics. The
// repository benchmark proper is bench/ (bash bench/run.sh).
package sccl_test

import (
	"context"
	"os"
	"testing"
	"time"

	sccl "repro"
	"repro/internal/eval"
)

func includeSlow() bool { return os.Getenv("SCCL_SLOW") != "" }

// BenchmarkTable3 builds the NCCL baseline algorithms behind Table 3 and
// validates their (C,S,R) against the paper.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Table3()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// tableEngine builds one iteration's engine: a fresh one each time, so
// every iteration solves instead of timing cache hits.
func tableEngine() *sccl.Engine {
	return sccl.NewEngine(sccl.EngineOptions{Timeout: 20 * time.Minute})
}

// table4Rows synthesizes the Table 4 rows for one collective.
func table4Rows(b *testing.B, kinds map[string]bool) {
	b.Helper()
	opts := eval.Options{IncludeSlow: includeSlow()}
	for i := 0; i < b.N; i++ {
		eng := tableEngine()
		rows, err := eval.Table4(context.Background(), eng, opts)
		eng.Close()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if kinds != nil && !kinds[r.Collective] {
				continue
			}
			if !r.Skipped && r.Status != "SAT" {
				b.Fatalf("row %+v", r)
			}
			if i == 0 {
				b.Logf("%s", r.Format())
			}
		}
	}
}

// BenchmarkTable4 regenerates the full DGX-1 synthesis table (paper
// Table 4). The 24-chunk 8-step Alltoall is included only with
// SCCL_SLOW=1, mirroring the paper's own 134 s outlier.
func BenchmarkTable4(b *testing.B) { table4Rows(b, nil) }

// BenchmarkTable5 regenerates the AMD Z52 synthesis table (paper Table 5).
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := tableEngine()
		rows, err := eval.Table5(context.Background(), eng, eval.Options{})
		eng.Close()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Status != "SAT" {
				b.Fatalf("row %+v", r)
			}
			if i == 0 {
				b.Logf("%s", r.Format())
			}
		}
	}
}

// figureBench regenerates a speedup figure and reports its extremes.
func figureBench(b *testing.B, f func() eval.Figure, firstLabel string) {
	var fig eval.Figure
	for i := 0; i < b.N; i++ {
		fig = f()
	}
	if len(fig.Series) == 0 || fig.Series[0].Label != firstLabel {
		b.Fatalf("unexpected series: %+v", fig.Series)
	}
	first := fig.Series[0].Speedups
	b.ReportMetric(first[0], "speedup-small")
	b.ReportMetric(first[len(first)-1], "speedup-large")
	b.Logf("\n%s", fig.Format())
}

// BenchmarkFigure4 regenerates the DGX-1 Allgather speedup series.
func BenchmarkFigure4(b *testing.B) { figureBench(b, eval.Figure4, "(1,2,2)") }

// BenchmarkFigure5 regenerates the DGX-1 Allreduce speedup series.
func BenchmarkFigure5(b *testing.B) { figureBench(b, eval.Figure5, "(1,2,2)") }

// BenchmarkFigure6 regenerates the Z52 Allgather speedup series.
func BenchmarkFigure6(b *testing.B) { figureBench(b, eval.Figure6, "(1,4,4)") }

// BenchmarkFigure4Simulated cross-checks Figure 4's first and last points
// with the discrete-event simulator instead of the closed-form model.
func BenchmarkFigure4Simulated(b *testing.B) {
	eng := sccl.NewEngine(sccl.EngineOptions{})
	defer eng.Close()
	res, err := eng.Synthesize(context.Background(), sccl.Request{
		Kind: sccl.Allgather, Topo: sccl.DGX1(), Budget: sccl.Budget{C: 1, S: 2, R: 2},
	})
	if err != nil || res.Algorithm == nil {
		b.Fatal(err)
	}
	lat := res.Algorithm
	baseline, err := sccl.NCCLAllgather()
	if err != nil {
		b.Fatal(err)
	}
	profile := sccl.DGX1Profile()
	b.ResetTimer()
	var small, large float64
	for i := 0; i < b.N; i++ {
		for _, sz := range []float64{960, 251658240} {
			tN, err := sccl.Simulate(baseline, sccl.SimConfig{Profile: profile, Lowering: sccl.LowerBaseline, Bytes: sz})
			if err != nil {
				b.Fatal(err)
			}
			tL, err := sccl.Simulate(lat, sccl.SimConfig{Profile: profile, Lowering: sccl.LowerFusedPush, Bytes: sz})
			if err != nil {
				b.Fatal(err)
			}
			if sz < 1e6 {
				small = tN.Time / tL.Time
			} else {
				large = tN.Time / tL.Time
			}
		}
	}
	b.ReportMetric(small, "speedup-small")
	b.ReportMetric(large, "speedup-large")
}

// BenchmarkSymmetryAblation measures chunk-symmetry breaking on the
// bandwidth-optimal 3-step Allgather (6,3,7). The engine's cache is off,
// so every iteration solves. The encoding ablation (§5.4.3) lives beside
// its direct-encoding oracle in internal/synth.
func BenchmarkSymmetryAblation(b *testing.B) {
	eng := sccl.NewEngine(sccl.EngineOptions{DisableCache: true})
	defer eng.Close()
	coll, err := sccl.NewCollective(sccl.Allgather, 8, 6, 0)
	if err != nil {
		b.Fatal(err)
	}
	inst := sccl.Instance{Coll: coll, Topo: sccl.DGX1(), Steps: 3, Round: 7}
	for _, v := range []struct {
		name string
		opts sccl.SynthOptions
	}{
		{"with-symmetry-breaking", sccl.SynthOptions{}},
		{"without", sccl.SynthOptions{NoSymmetryBreak: true}},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := eng.SynthesizeInstance(context.Background(), inst, &v.opts)
				if err != nil || res.Algorithm == nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoweringAblation evaluates the §4 lowering choices (push/pull,
// DMA, fused/multi-kernel) on the bandwidth-optimal Allgather at 64 MB.
func BenchmarkLoweringAblation(b *testing.B) {
	ag, err := sccl.NCCLAllgather()
	if err != nil {
		b.Fatal(err)
	}
	profile := sccl.DGX1Profile()
	for _, low := range []sccl.Lowering{
		sccl.LowerBaseline, sccl.LowerFusedPush, sccl.LowerFusedPull,
		sccl.LowerMultiKernel, sccl.LowerCudaMemcpy,
	} {
		b.Run(low.String(), func(b *testing.B) {
			var t float64
			for i := 0; i < b.N; i++ {
				res, err := sccl.Simulate(ag, sccl.SimConfig{
					Profile: profile, Lowering: low, Bytes: 64 << 20,
				})
				if err != nil {
					b.Fatal(err)
				}
				t = res.Time
			}
			b.ReportMetric(t*1e6, "model-us")
		})
	}
}

// BenchmarkParetoAllgatherDGX1 runs the full Pareto-Synthesize procedure
// (Algorithm 1) with k=1 on the DGX-1, on one worker. The engine's cache
// is off, so every iteration sweeps.
func BenchmarkParetoAllgatherDGX1(b *testing.B) {
	eng := sccl.NewEngine(sccl.EngineOptions{DisableCache: true})
	defer eng.Close()
	req := sccl.ParetoRequest{
		Kind: sccl.Allgather, Topo: sccl.DGX1(), K: 1, MaxSteps: 7, Workers: 1,
		Options: &sccl.SynthOptions{Timeout: 10 * time.Minute},
	}
	for i := 0; i < b.N; i++ {
		res, err := eng.Pareto(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if pts := res.Points; len(pts) == 0 || !pts[len(pts)-1].BandwidthOptimal {
			b.Fatalf("frontier incomplete: %v", pts)
		}
	}
}

// BenchmarkExecuteDGX1Allgather measures the goroutine-per-GPU executor
// end to end on the NCCL schedule.
func BenchmarkExecuteDGX1Allgather(b *testing.B) {
	ag, err := sccl.NCCLAllgather()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sccl.Execute(ag, 128); err != nil {
			b.Fatal(err)
		}
	}
}

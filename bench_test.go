// Benchmarks regenerating every table and figure of the SCCL paper's
// evaluation (§5), plus the ablations DESIGN.md calls out. Run:
//
//	go test -bench=. -benchmem            # default set
//	SCCL_SLOW=1 go test -bench=Table4     # include the minutes-long rows
//
// The same rows/series print from cmd/scclbench; here each experiment is
// timed and its key numbers are attached as benchmark metrics. BENCH_*.json
// artifacts land in the current directory unless SCCL_BENCH_DIR redirects
// them (CI sets it so benchmark runs never dirty the checkout).
package sccl_test

import (
	"os"
	"testing"
	"time"

	sccl "repro"
	"repro/internal/eval"
	"repro/internal/synth"
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

// table4Rows synthesizes the Table 4 rows for one collective.
func table4Rows(b *testing.B, kinds map[string]bool) {
	b.Helper()
	opts := eval.Options{Timeout: 20 * time.Minute, IncludeSlow: includeSlow()}
	for i := 0; i < b.N; i++ {
		rows, err := eval.Table4(opts)
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
	opts := eval.Options{Timeout: 20 * time.Minute}
	for i := 0; i < b.N; i++ {
		rows, err := eval.Table5(opts)
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
	topo := sccl.DGX1()
	lat, _, err := sccl.Synthesize(sccl.Allgather, topo, 0, 1, 2, 2, sccl.SynthOptions{})
	if err != nil || lat == nil {
		b.Fatal(err)
	}
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

// BenchmarkEncodingAblation compares the paper's encoding (§3.4) against
// the direct per-(c,n,n',s) Boolean encoding on a DGX-1 Broadcast
// instance — the paper's §5.4.3 reports >30x between these.
func BenchmarkEncodingAblation(b *testing.B) {
	topo := sccl.DGX1()
	coll, err := sccl.NewCollective(sccl.Broadcast, 8, 6, 0)
	if err != nil {
		b.Fatal(err)
	}
	inst := sccl.Instance{Coll: coll, Topo: topo, Steps: 3, Round: 3}
	b.Run("paper", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			alg, status, err := sccl.SynthesizeInstance(inst, sccl.SynthOptions{})
			if err != nil || alg == nil {
				b.Fatal(status, err)
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			alg, status, err := sccl.SynthesizeInstance(inst,
				sccl.SynthOptions{Encoding: synth.EncodingDirect})
			if err != nil || alg == nil {
				b.Fatal(status, err)
			}
		}
	})
}

// BenchmarkSymmetryAblation measures chunk-symmetry breaking on the
// bandwidth-optimal 3-step Allgather (6,3,7).
func BenchmarkSymmetryAblation(b *testing.B) {
	topo := sccl.DGX1()
	coll, err := sccl.NewCollective(sccl.Allgather, 8, 6, 0)
	if err != nil {
		b.Fatal(err)
	}
	inst := sccl.Instance{Coll: coll, Topo: topo, Steps: 3, Round: 7}
	b.Run("with-symmetry-breaking", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			alg, status, err := sccl.SynthesizeInstance(inst, sccl.SynthOptions{})
			if err != nil || alg == nil {
				b.Fatal(status, err)
			}
		}
	})
	b.Run("without", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			alg, status, err := sccl.SynthesizeInstance(inst,
				sccl.SynthOptions{NoSymmetryBreak: true})
			if err != nil || alg == nil {
				b.Fatal(status, err)
			}
		}
	})
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

// BenchmarkSessionSweeps runs the one-shot vs default-path Pareto sweep
// suite (the synthesis hot path this repository optimizes) and writes the
// rows to BENCH_sessions.json — the machine-readable artifact CI uploads
// so the performance trajectory is tracked over time. The headline metric
// is the summed solver wall: a sweep that adopts the mega-base carries
// learnt clauses across its closely related (S, R) probes and prunes by
// unsat cores, so the bidir-ring Broadcast sweep's Unsat chains refute
// measurably faster.
func BenchmarkSessionSweeps(b *testing.B) {
	var rows []eval.SweepRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = eval.RunSessionSweeps(eval.SessionSweeps(), nil, 1, 10*time.Minute, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	var oneShotSolve, sessionSolve, oneShotWall, sessionWall time.Duration
	for _, r := range rows {
		if r.Sessions {
			sessionSolve += time.Duration(r.SolveWallNs)
			sessionWall += time.Duration(r.WallNs)
		} else {
			oneShotSolve += time.Duration(r.SolveWallNs)
			oneShotWall += time.Duration(r.WallNs)
		}
	}
	b.ReportMetric(oneShotSolve.Seconds(), "oneshot-solve-s")
	b.ReportMetric(sessionSolve.Seconds(), "session-solve-s")
	if sessionWall > 0 {
		b.ReportMetric(oneShotWall.Seconds()/sessionWall.Seconds(), "sweep-speedup")
	}
	if err := eval.WriteBenchJSON("BENCH_sessions.json", rows); err != nil {
		b.Fatal(err)
	}
	b.Logf("wrote BENCH_sessions.json (%d rows)", len(rows))
}

// BenchmarkParetoAllgatherDGX1 runs the full Pareto-Synthesize procedure
// (Algorithm 1) with k=1 on the DGX-1.
func BenchmarkParetoAllgatherDGX1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := sccl.Pareto(sccl.Allgather, sccl.DGX1(), 0, sccl.ParetoOptions{
			K: 1, MaxSteps: 7,
			Instance: sccl.SynthOptions{Timeout: 10 * time.Minute},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) == 0 || !pts[len(pts)-1].BandwidthOptimal {
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

// Package eval regenerates the SCCL paper's evaluation artifacts — Tables
// 3, 4 and 5 and Figures 4, 5 and 6 (§5) — from this repository's
// synthesis engine, baselines and cost model. Both cmd/scclbench and the
// top-level benchmarks drive these entry points, so the printed rows and
// series come from one place.
package eval

import (
	"context"
	"fmt"
	"math/big"
	"strings"
	"sync"
	"time"

	"repro/internal/algorithm"
	"repro/internal/collective"
	"repro/internal/cost"
	"repro/internal/nccl"
	"repro/internal/sat"
	"repro/internal/synth"
	"repro/internal/topology"
)

// Options tunes a table regeneration run.
type Options struct {
	// Timeout bounds each synthesis call.
	Timeout time.Duration
	// IncludeSlow enables the instances the paper itself reports as
	// minutes-long (the 24-chunk 8-step Alltoall).
	IncludeSlow bool
	// Progress, if non-nil, receives one line per synthesized row. Calls
	// are serialized under a mutex when Workers > 1.
	Progress func(format string, args ...any)
	// Workers synthesizes table rows concurrently; the printed row order
	// is unchanged. Values <= 1 keep the sequential sweep.
	Workers int
	// Synthesize, if non-nil, replaces the direct call to
	// synth.SynthesizeCollectiveContext for every row. cmd/scclbench
	// injects the facade engine here so repeated budgets across tables
	// are served from its algorithm cache.
	Synthesize SynthesizeFunc
}

// SynthesizeFunc matches synth.SynthesizeCollectiveContext; Options
// carries one so callers can route rows through a caching engine.
type SynthesizeFunc func(ctx context.Context, kind collective.Kind, topo *topology.Topology, root topology.Node, c, s, r int, opts synth.Options) (*algorithm.Algorithm, sat.Status, error)

func (o *Options) defaults() {
	if o.Timeout == 0 {
		o.Timeout = 10 * time.Minute
	}
	if o.Progress == nil {
		o.Progress = func(string, ...any) {}
	}
}

// TableRow is one synthesized row of Table 4 or 5.
type TableRow struct {
	Collective string
	C, S, R    int
	Optimality string
	Status     string
	Time       time.Duration
	Skipped    bool
}

// Format renders the row like the paper's tables.
func (r TableRow) Format() string {
	if r.Skipped {
		return fmt.Sprintf("%-28s %3d %3d %3d  %-10s (skipped; enable slow instances)", r.Collective, r.C, r.S, r.R, r.Optimality)
	}
	return fmt.Sprintf("%-28s %3d %3d %3d  %-10s %6.1fs  %s", r.Collective, r.C, r.S, r.R, r.Optimality, r.Time.Seconds(), r.Status)
}

// rowSpec describes one table row to synthesize. For Allreduce the triple
// refers to the underlying Allgather phase (the printed row shows the
// composed C, S, R as the paper does).
type rowSpec struct {
	kind    collective.Kind
	c, s, r int
	slow    bool
}

// paperTable4 lists the DGX-1 rows of Table 4 (triples as printed; the
// Allreduce rows are converted to their Allgather-phase budgets).
var paperTable4 = []rowSpec{
	{collective.Allgather, 1, 2, 2, false},
	{collective.Allgather, 2, 3, 3, false},
	{collective.Allgather, 3, 4, 4, false},
	{collective.Allgather, 4, 5, 5, false},
	{collective.Allgather, 5, 6, 6, false},
	{collective.Allgather, 6, 7, 7, false},
	{collective.Allgather, 6, 3, 7, false},
	{collective.Allgather, 2, 2, 3, false},
	{collective.Allreduce, 8, 4, 4, false},
	{collective.Allreduce, 16, 6, 6, false},
	{collective.Allreduce, 24, 8, 8, false},
	{collective.Allreduce, 32, 10, 10, false},
	{collective.Allreduce, 40, 12, 12, false},
	{collective.Allreduce, 48, 14, 14, false},
	{collective.Allreduce, 48, 6, 14, false},
	{collective.Allreduce, 16, 4, 6, false},
	{collective.Broadcast, 2, 2, 2, false},
	{collective.Broadcast, 6, 3, 3, false},
	{collective.Broadcast, 12, 4, 4, false},
	{collective.Broadcast, 18, 5, 5, false},
	{collective.Broadcast, 6, 3, 5, false},
	{collective.Gather, 1, 2, 2, false},
	{collective.Gather, 2, 3, 3, false},
	{collective.Gather, 3, 4, 4, false},
	{collective.Gather, 4, 5, 5, false},
	{collective.Gather, 5, 6, 6, false},
	{collective.Gather, 6, 7, 7, false},
	{collective.Gather, 6, 3, 7, false},
	{collective.Gather, 2, 2, 3, false},
	{collective.Alltoall, 8, 3, 3, false},
	{collective.Alltoall, 8, 2, 3, false},
	{collective.Alltoall, 24, 8, 8, true},
	{collective.Alltoall, 24, 2, 8, false},
}

// paperTable5 lists the AMD Z52 rows of Table 5.
var paperTable5 = []rowSpec{
	{collective.Allgather, 1, 4, 4, false},
	{collective.Allgather, 2, 7, 7, false},
	{collective.Allgather, 2, 4, 7, false},
	{collective.Allreduce, 8, 8, 8, false},
	{collective.Allreduce, 16, 14, 14, false},
	{collective.Allreduce, 16, 8, 14, false},
	{collective.Broadcast, 2, 4, 4, false},
	{collective.Broadcast, 4, 5, 5, false},
	{collective.Broadcast, 6, 6, 6, false},
	{collective.Broadcast, 8, 7, 7, false},
	{collective.Broadcast, 10, 8, 8, false},
	{collective.Gather, 1, 4, 4, false},
	{collective.Gather, 2, 4, 7, false},
	{collective.Alltoall, 8, 4, 8, false},
}

// synthesisTable regenerates Table 4 (topo = DGX1) or Table 5 (topo =
// AMDZ52): every row is synthesized, verified, and labeled with computed
// (not hard-coded) optimality against the lower bounds. With Workers > 1
// the independent rows are synthesized concurrently; the returned order is
// the table order regardless.
func synthesisTable(topo *topology.Topology, rows []rowSpec, opts Options) ([]TableRow, error) {
	opts.defaults()
	// One Stage-0 template BFS serves every row's optimality label; the
	// per-row bound computation used to re-walk the topology per
	// (pre, post) pair.
	dist := synth.NewStage0Template(topo).Dist
	workers := opts.Workers
	if workers > len(rows) {
		workers = len(rows)
	}
	if workers <= 1 {
		// Sequential sweep: rows synthesized in table order, failing fast
		// on the first error.
		var out []TableRow
		for _, spec := range rows {
			row, err := synthesizeRow(context.Background(), topo, dist, spec, opts, opts.Progress)
			if err != nil {
				return out, err
			}
			out = append(out, row)
		}
		return out, nil
	}
	progress := synth.SerializedProgress(opts.Progress)
	type slot struct {
		row TableRow
		err error
	}
	slots := make([]slot, len(rows))
	// The first error cancels the context so in-flight and queued rows
	// abort promptly instead of synthesizing to completion; firstErr
	// preserves the chronologically first cause rather than a knock-on
	// cancellation error from an earlier table index.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	var firstErr error
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					// A prior row already failed; don't pay for the
					// remaining rows' encodes against a dead context.
					slots[i].err = ctx.Err()
					continue
				}
				slots[i].row, slots[i].err = synthesizeRow(ctx, topo, dist, rows[i], opts, progress)
				if slots[i].err != nil {
					once.Do(func() {
						firstErr = slots[i].err
						cancel()
					})
				}
			}
		}()
	}
	for i := range rows {
		idx <- i
	}
	close(idx)
	wg.Wait()
	var out []TableRow
	for _, s := range slots {
		if s.err != nil {
			return out, firstErr
		}
		out = append(out, s.row)
	}
	return out, nil
}

// synthesizeRow produces one verified table row.
func synthesizeRow(ctx context.Context, topo *topology.Topology, dist [][]int, spec rowSpec, opts Options, progress func(format string, args ...any)) (TableRow, error) {
	row := TableRow{Collective: spec.kind.String()}
	row.C, row.S, row.R = spec.c, spec.s, spec.r
	opt, err := optimalityLabel(spec, topo, dist)
	if err != nil {
		return row, err
	}
	row.Optimality = opt
	if spec.slow && !opts.IncludeSlow {
		row.Skipped = true
		progress("%s", row.Format())
		return row, nil
	}
	c, s, r := spec.c, spec.s, spec.r
	if spec.kind == collective.Allreduce {
		// Convert the printed composed triple to the Allgather phase.
		c, s, r = spec.c/topo.P, spec.s/2, spec.r/2
	}
	synthesize := opts.Synthesize
	if synthesize == nil {
		synthesize = synth.SynthesizeCollectiveContext
	}
	t0 := time.Now()
	alg, status, err := synthesize(ctx, spec.kind, topo, 0, c, s, r,
		synth.Options{Timeout: opts.Timeout})
	row.Time = time.Since(t0)
	row.Status = status.String()
	if err != nil {
		return row, fmt.Errorf("eval: %v (%d,%d,%d): %w", spec.kind, spec.c, spec.s, spec.r, err)
	}
	if status != sat.Sat {
		return row, fmt.Errorf("eval: %v (%d,%d,%d) unexpectedly %v", spec.kind, spec.c, spec.s, spec.r, status)
	}
	if alg.C != row.C || alg.Steps() != row.S || alg.TotalRounds() != row.R {
		return row, fmt.Errorf("eval: %v synthesized %s, want (%d,%d,%d)",
			spec.kind, alg.CSR(), row.C, row.S, row.R)
	}
	progress("%s", row.Format())
	return row, nil
}

// Table4 regenerates the paper's Table 4 on the DGX-1 model.
func Table4(opts Options) ([]TableRow, error) {
	return synthesisTable(topology.DGX1(), paperTable4, opts)
}

// Table5 regenerates the paper's Table 5 on the Z52 model.
func Table5(opts Options) ([]TableRow, error) {
	return synthesisTable(topology.AMDZ52(), paperTable5, opts)
}

// optimalityLabel computes the paper's Optimality column from lower
// bounds rather than hard-coding it.
// dist optionally carries topo's precomputed all-pairs BFS matrix (a
// Stage-0 template's); nil re-derives distances per pair.
func optimalityLabel(spec rowSpec, topo *topology.Topology, dist [][]int) (string, error) {
	bounds, err := collective.EffectiveLowerBoundsDist(spec.kind, topo.P, refChunks(spec.kind, topo.P), 0, topo, dist)
	if err != nil {
		return "", err
	}
	latOpt := spec.s == bounds.Steps
	cost := big.NewRat(int64(spec.r), int64(spec.c))
	bwOpt := bounds.Bandwidth.Sign() > 0 && cost.Cmp(bounds.Bandwidth) == 0
	switch {
	case latOpt && bwOpt:
		return "Both", nil
	case latOpt:
		return "Latency", nil
	case bwOpt:
		return "Bandwidth", nil
	}
	return "", nil
}

// refChunks picks a reference per-node chunk count for bound computation
// (bounds are per-C rationals, so any valid C works; Allreduce needs C
// divisible by P, Alltoall is conventionally P).
func refChunks(kind collective.Kind, p int) int {
	switch kind {
	case collective.Allreduce:
		return p
	case collective.Alltoall:
		return p
	default:
		return 1
	}
}

// Table3 reproduces the NCCL baseline table.
func Table3() ([]nccl.Table3Row, error) { return nccl.Table3() }

// FormatTable renders rows with a header, matching the paper's layout.
func FormatTable(title string, rows []TableRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-28s %3s %3s %3s  %-10s %7s  %s\n", "Collective", "C", "S", "R", "Optimality", "Time", "Status")
	for _, r := range rows {
		fmt.Fprintln(&b, r.Format())
	}
	return b.String()
}

// Series is one line of a speedup figure.
type Series struct {
	Label    string
	Point    cost.Point
	Speedups []float64
}

// Figure is a full speedup-vs-size plot in tabular form.
type Figure struct {
	Name     string
	Baseline cost.Point
	Profile  cost.Profile
	Sizes    []float64
	Series   []Series
}

// Format renders the figure as aligned columns (sizes down, series
// across) — the textual equivalent of the paper's plots.
func (f Figure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — speedup over %s\n", f.Name, f.Baseline.Name)
	fmt.Fprintf(&b, "%-12s", "bytes")
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %14s", s.Label)
	}
	fmt.Fprintln(&b)
	for i, sz := range f.Sizes {
		fmt.Fprintf(&b, "%-12.0f", sz)
		for _, s := range f.Series {
			fmt.Fprintf(&b, " %14.2f", s.Speedups[i])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

func makeFigure(name string, profile cost.Profile, baseline cost.Point, sizes []float64, pts []cost.Point) Figure {
	fig := Figure{Name: name, Baseline: baseline, Profile: profile, Sizes: sizes}
	for _, pt := range pts {
		s := Series{Label: pt.Name, Point: pt, Speedups: make([]float64, len(sizes))}
		for i, sz := range sizes {
			s.Speedups[i] = cost.Speedup(profile, baseline, pt, sz)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Figure4 regenerates the DGX-1 Allgather speedup-vs-NCCL plot: the
// paper's send-buffer sizes (960 B to 240 MB, x8) and algorithm lines
// (1,2,2), (2,2,3), (5,6,6), (6,7,7) push-copy plus (6,7,7) cudaMemcpy.
func Figure4() Figure {
	p := cost.DGX1Profile()
	baseline := cost.Point{Name: "NCCL ring (6,7,7)", S: 7, R: 7, C: 6, Low: cost.LowerBaseline}
	sizes := cost.SizeSweep(960, 251658240, 8)
	pts := []cost.Point{
		{Name: "(1,2,2)", S: 2, R: 2, C: 1, Low: cost.LowerFusedPush},
		{Name: "(2,2,3)", S: 2, R: 3, C: 2, Low: cost.LowerFusedPush},
		{Name: "(5,6,6)", S: 6, R: 6, C: 5, Low: cost.LowerFusedPush},
		{Name: "(6,7,7)", S: 7, R: 7, C: 6, Low: cost.LowerFusedPush},
		{Name: "(6,7,7) memcpy", S: 7, R: 7, C: 6, Low: cost.LowerCudaMemcpy},
	}
	return makeFigure("Figure 4: DGX-1 Allgather", p, baseline, sizes, pts)
}

// Figure5 regenerates the DGX-1 Allreduce plot. Lines are labeled by
// their Allgather-phase triple as in the paper; each composes to an
// Allreduce with (8c, 2s, 2r). SCCL's Allreduce lowering is the
// multi-kernel variant — the paper attributes the mid-size dip to its
// synchronization cost.
func Figure5() Figure {
	p := cost.DGX1Profile()
	baseline := cost.Point{Name: "NCCL ring (48,14,14)", S: 14, R: 14, C: 48, Low: cost.LowerBaseline}
	sizes := cost.SizeSweep(7860, 2.06e9, 8)
	mk := func(label string, c, s, r int) cost.Point {
		return cost.Point{Name: label, S: 2 * s, R: 2 * r, C: 8 * c, Low: cost.LowerMultiKernel}
	}
	pts := []cost.Point{
		mk("(1,2,2)", 1, 2, 2),
		mk("(4,5,5)", 4, 5, 5),
		mk("(5,6,6)", 5, 6, 6),
		mk("(6,7,7)", 6, 7, 7),
	}
	return makeFigure("Figure 5: DGX-1 Allreduce", p, baseline, sizes, pts)
}

// Figure6 regenerates the Z52 Allgather speedup-vs-RCCL plot with the
// paper's lines (1,4,4) and (2,7,7); the SCCL lowering on ROCm is the
// multi-kernel variant, so RCCL wins small/medium sizes while SCCL's
// bandwidth-optimal schedule wins large ones.
func Figure6() Figure {
	p := cost.AMDProfile()
	baseline := cost.Point{Name: "RCCL ring (2,7,7)", S: 7, R: 7, C: 2, Low: cost.LowerBaseline}
	sizes := cost.SizeSweep(512, 1.074e9, 8)
	pts := []cost.Point{
		{Name: "(1,4,4)", S: 4, R: 4, C: 1, Low: cost.LowerMultiKernel},
		{Name: "(2,7,7)", S: 7, R: 7, C: 2, Low: cost.LowerMultiKernel},
	}
	return makeFigure("Figure 6: Z52 Allgather", p, baseline, sizes, pts)
}

// Command benchguard is the CI benchmark regression gate: it parses a
// fresh BENCH_sessions.json (the session sweep suite written by
// BenchmarkSessionSweeps or `scclbench -sweeps -json`) and compares every
// row against the committed baseline, failing when solve wall or encode
// wall regresses beyond the allowed percentage on any recorded suite row.
//
// Usage:
//
//	benchguard -baseline ci/BENCH_sessions_baseline.json \
//	           -fresh bench-out/BENCH_sessions.json \
//	           -max-regress-pct 25 -max-encode-regress-pct 35 -min-wall 25ms
//
// Rows are matched by their sweep identity (topology, collective,
// backend, k, maxSteps, maxChunks, workers, sessions, symmetry,
// quotient). Rows whose metric sits under -min-wall in both files are
// reported but never fail the gate: at that scale scheduler noise
// outweighs solver work. A
// baseline row missing from the fresh run fails the gate — the suite
// changed and the baseline needs regenerating alongside it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/eval"
)

func rowKey(r eval.SweepRow) string {
	return fmt.Sprintf("%s|%s|%s|k%d|s%d|c%d|w%d|sessions=%v|symmetry=%v|quotient=%v",
		r.Topology, r.Collective, r.Backend, r.K, r.MaxSteps, r.MaxChunks, r.Workers, r.Sessions, r.Symmetry, r.Quotient)
}

func loadRows(path string) (map[string]eval.SweepRow, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []eval.SweepRow
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]eval.SweepRow, len(rows))
	for _, r := range rows {
		out[rowKey(r)] = r
	}
	return out, nil
}

// metric is one gated wall-clock column of a SweepRow.
type metric struct {
	name          string
	value         func(eval.SweepRow) int64
	maxRegressPct float64
}

// calibration derives the machine-speed scale of one metric from the
// one-shot rows: they never route through sessions, template sharing or
// unsat-core pruning, so their aggregate moves only with machine speed —
// the anchor that lets an absolute-time baseline travel between
// developer machines and CI runners.
func calibration(m metric, baseline, fresh map[string]eval.SweepRow) float64 {
	var baseAnchor, freshAnchor int64
	for key, b := range baseline {
		f, ok := fresh[key]
		if !ok || b.Sessions {
			continue
		}
		baseAnchor += m.value(b)
		freshAnchor += m.value(f)
	}
	if baseAnchor <= 0 || freshAnchor <= 0 {
		return 1.0
	}
	scale := float64(baseAnchor) / float64(freshAnchor)
	fmt.Printf("calibration (%s): machine speed scale %.3f (one-shot anchor %s baseline vs %s fresh)\n",
		m.name, scale, fmtNs(baseAnchor), fmtNs(freshAnchor))
	return scale
}

// gate compares one metric across every baseline row, printing the table
// and returning the number of failing rows.
func gate(m metric, baseline, fresh map[string]eval.SweepRow, scale float64, minWall time.Duration) int {
	failures := 0
	fmt.Printf("\n%-70s %12s %12s %8s\n", m.name+" row", "baseline", "fresh", "delta")
	for _, key := range sortedKeys(baseline) {
		base := baseline[key]
		got, ok := fresh[key]
		if !ok {
			fmt.Printf("%-70s %12s %12s %8s\n", key, fmtNs(m.value(base)), "missing", "FAIL")
			failures++
			continue
		}
		baseNs := m.value(base)
		scaled := int64(float64(m.value(got)) * scale)
		deltaPct := 0.0
		if baseNs > 0 {
			deltaPct = 100 * float64(scaled-baseNs) / float64(baseNs)
		}
		verdict := fmt.Sprintf("%+.0f%%", deltaPct)
		tiny := baseNs < int64(minWall) && scaled < int64(minWall)
		if deltaPct > m.maxRegressPct && !tiny {
			verdict += " FAIL"
			failures++
		} else if tiny {
			verdict += " (tiny)"
		}
		fmt.Printf("%-70s %12s %12s %8s\n", key, fmtNs(baseNs), fmtNs(scaled), verdict)
	}
	for _, key := range sortedKeys(fresh) {
		if _, ok := baseline[key]; !ok {
			fmt.Printf("%-70s %12s %12s %8s\n", key, "-", fmtNs(m.value(fresh[key])), "new")
		}
	}
	return failures
}

// symmetryGate checks the node-orbit symmetry-breaking win fresh-vs-fresh:
// for every symmetry-off row (emitted only by Symmetry specs, as the
// paired baseline), the symmetry-on row with the same sweep identity must
// beat it by at least minGainPct on solve wall — and, because breaking is
// satisfiability-preserving, the two frontiers must agree on every
// (C, S, R) point. Both rows come from one process on one machine, so no
// calibration is involved.
func symmetryGate(fresh map[string]eval.SweepRow, minGainPct float64) int {
	failures := 0
	for _, key := range sortedKeys(fresh) {
		row := fresh[key]
		if row.Symmetry {
			continue
		}
		on := row
		on.Symmetry = true
		counterpart, ok := fresh[rowKey(on)]
		if !ok {
			fmt.Printf("symmetry-gain %-56s %12s FAIL (no symmetry-on counterpart row)\n", key, fmtNs(row.SolveWallNs))
			failures++
			continue
		}
		if !samePoints(row.Points, counterpart.Points) {
			fmt.Printf("symmetry-gain %-56s FAIL (frontier cost parity broken: off %v vs on %v)\n",
				key, row.Points, counterpart.Points)
			failures++
			continue
		}
		gainPct := 0.0
		if row.SolveWallNs > 0 {
			gainPct = 100 * float64(row.SolveWallNs-counterpart.SolveWallNs) / float64(row.SolveWallNs)
		}
		verdict := "ok"
		if gainPct < minGainPct {
			verdict = "FAIL"
			failures++
		}
		fmt.Printf("symmetry-gain %-56s off %s -> on %s (%d perms): %+.0f%% (need >= %.0f%%) %s\n",
			key, fmtNs(row.SolveWallNs), fmtNs(counterpart.SolveWallNs), counterpart.SymmetryPerms, gainPct, minGainPct, verdict)
	}
	return failures
}

// quotientGate checks the chunk-orbit quotient encoding's win
// fresh-vs-fresh: for every quotient-off row of a Quotient spec pair
// (symmetry on, quotient off), the quotient-on row with the same sweep
// identity must beat it by at least minGainPct on encode+solve wall —
// and, because answers never depend on the quotient (Sat lifts
// re-validate, everything else falls back to the full formula), the two
// frontiers must agree on every (C, S, R) point. Symmetry-off rows are
// skipped: they belong to the symmetry gate's pairs, which keep
// quotienting off on both sides. A quotient-off row without a
// quotient-on counterpart is a symmetry pair's on-side riding the same
// key shape, not a broken pair — it is skipped too, but at least one
// genuine pair must gate or the whole check fails (a baseline
// regeneration must not silently drop the quotient specs).
func quotientGate(fresh map[string]eval.SweepRow, minGainPct float64) int {
	failures := 0
	gated := 0
	for _, key := range sortedKeys(fresh) {
		row := fresh[key]
		if row.Quotient || !row.Symmetry {
			continue
		}
		on := row
		on.Quotient = true
		counterpart, ok := fresh[rowKey(on)]
		if !ok {
			continue
		}
		gated++
		if !samePoints(row.Points, counterpart.Points) {
			fmt.Printf("quotient-gain %-56s FAIL (frontier cost parity broken: off %v vs on %v)\n",
				key, row.Points, counterpart.Points)
			failures++
			continue
		}
		offWall := row.EncodeWallNs + row.SolveWallNs
		onWall := counterpart.EncodeWallNs + counterpart.SolveWallNs
		gainPct := 0.0
		if offWall > 0 {
			gainPct = 100 * float64(offWall-onWall) / float64(offWall)
		}
		verdict := "ok"
		if gainPct < minGainPct {
			verdict = "FAIL"
			failures++
		}
		fmt.Printf("quotient-gain %-56s off %s -> on %s (%d probes, %d fallbacks): %+.0f%% (need >= %.0f%%) %s\n",
			key, fmtNs(offWall), fmtNs(onWall), counterpart.QuotientProbes, counterpart.QuotientFallbacks, gainPct, minGainPct, verdict)
	}
	if gated == 0 {
		fmt.Println("quotient-gain FAIL (no quotient on/off pair in the fresh rows)")
		failures++
	}
	return failures
}

func samePoints(a, b []eval.SweepPoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func main() {
	baselinePath := flag.String("baseline", "ci/BENCH_sessions_baseline.json", "committed baseline rows")
	freshPath := flag.String("fresh", "BENCH_sessions.json", "freshly generated rows")
	maxRegressPct := flag.Float64("max-regress-pct", 25, "allowed solve-wall regression per row, percent")
	maxEncodePct := flag.Float64("max-encode-regress-pct", 35, "allowed encode-wall regression per row, percent (encode walls are smaller and noisier than solve walls)")
	minWall := flag.Duration("min-wall", 25*time.Millisecond, "rows faster than this in both files never fail the gate")
	calibrate := flag.Bool("calibrate", false, "scale fresh rows by the one-shot rows' aggregate speed ratio, so a slower/faster machine than the baseline's does not trip the gate")
	minSymmetryGain := flag.Float64("min-symmetry-gain-pct", 25, "required solve-wall improvement of each fresh symmetry-on row over its same-run symmetry-off counterpart, percent (cost parity of the paired frontiers is enforced alongside)")
	minQuotientGain := flag.Float64("min-quotient-gain-pct", 25, "required encode+solve wall improvement of each fresh quotient-on row over its same-run quotient-off counterpart, percent (cost parity of the paired frontiers is enforced alongside)")
	flag.Parse()

	baseline, err := loadRows(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
	fresh, err := loadRows(*freshPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}

	metrics := []metric{
		{name: "solve-wall", value: func(r eval.SweepRow) int64 { return r.SolveWallNs }, maxRegressPct: *maxRegressPct},
		{name: "encode-wall", value: func(r eval.SweepRow) int64 { return r.EncodeWallNs }, maxRegressPct: *maxEncodePct},
	}
	failures := 0
	for _, m := range metrics {
		scale := 1.0
		if *calibrate {
			scale = calibration(m, baseline, fresh)
		}
		failures += gate(m, baseline, fresh, scale, *minWall)
	}
	fmt.Println()
	failures += symmetryGate(fresh, *minSymmetryGain)
	failures += quotientGate(fresh, *minQuotientGain)
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %d row-metric(s) regressed beyond their allowance (or went missing); "+
			"if intentional, regenerate the baseline with `SCCL_BENCH_DIR= go test -bench=SessionSweeps -benchtime=1x -run '^$' .` "+
			"and copy BENCH_sessions.json over %s\n", failures, *baselinePath)
		os.Exit(1)
	}
	fmt.Printf("\nbenchguard: %d rows within allowance on %d metrics\n", len(baseline), len(metrics))
}

func fmtNs(ns int64) string { return time.Duration(ns).Round(time.Microsecond).String() }

func sortedKeys(rows map[string]eval.SweepRow) []string {
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

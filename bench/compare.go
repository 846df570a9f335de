package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of the compare tool.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict applies one end-to-end metric's direction and bound to the
// values of two sets of runs, a the baseline and b the candidate. The
// candidate regressed when its median is worse than the baseline's by
// more than the bound. When either side's own run-to-run spread is wider
// than the bound the comparison cannot resolve a difference that small:
// the verdict is then "unresolved", unless every candidate run reads
// better than every baseline run.
func verdict(m metricSpec, a, b []float64) (v string, ratio float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		ratio = mb / ma
	}
	worse := (mb - ma) / ma // share of the baseline's median
	if m.Better == "higher" {
		worse = -worse
	}
	if spread(a) > m.Bound || spread(b) > m.Bound {
		if allBetter(m, a, b) {
			return verdictOK, ratio
		}
		return verdictUnresolved, ratio
	}
	if worse > m.Bound {
		return verdictRegressed, ratio
	}
	return verdictOK, ratio
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(m metricSpec, a, b []float64) bool {
	sa, sb := sorted(a), sorted(b)
	if len(sa) == 0 || len(sb) == 0 {
		return false
	}
	if m.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

func readResults(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// runSet is the untraced runs of one workload in one file.
type runSet struct {
	values            map[string][]float64
	attempted, failed int
}

func collect(f resultFile) map[string]*runSet {
	out := map[string]*runSet{}
	for _, r := range f.Runs {
		if r.Trace != 0 {
			continue
		}
		rs := out[r.Workload]
		if rs == nil {
			rs = &runSet{values: map[string][]float64{}}
			out[r.Workload] = rs
		}
		rs.attempted += r.Attempted
		rs.failed += r.Failed
		for name, v := range r.Metrics {
			rs.values[name] = append(rs.values[name], v.Value)
		}
	}
	return out
}

// compareFiles prints one row per workload and end-to-end metric and
// reports whether the candidate file B holds up against the baseline A:
// no metric regressed and no workload failed a larger share of its
// operations.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) (bool, error) {
	fa, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	fb, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	a, b := collect(fa), collect(fb)
	ok := true
	fmt.Fprintf(w, "%-15s %-12s %5s  %12s %12s %12s  %12s %12s %12s  %9s  %s\n",
		"workload", "metric", "unit", "A.q1", "A.median", "A.q3", "B.q1", "B.median", "B.q3", "B/A", "verdict")
	for _, wl := range spec.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if ra == nil || rb == nil {
			missing := pathB
			if ra == nil {
				missing = pathA
			}
			fmt.Fprintf(w, "%-15s missing from %s\n", wl.Name, missing)
			ok = false
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := ra.values[m.Name], rb.values[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-15s %-12s missing\n", wl.Name, m.Name)
				ok = false
				continue
			}
			v, ratio := verdict(m, va, vb)
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			fmt.Fprintf(w, "%-15s %-12s %5s  %12.6g %12.6g %12.6g  %12.6g %12.6g %12.6g  %9.4f  %s (bound %g%%, n=%d/%d)\n",
				wl.Name, m.Name, m.Unit, a1, median(va), a3, b1, median(vb), b3, ratio, v, m.Bound*100, len(va), len(vb))
			if v == verdictRegressed {
				ok = false
			}
		}
		sa := ratioOf(ra.failed, ra.attempted)
		sb := ratioOf(rb.failed, rb.attempted)
		v := verdictOK
		if sb > sa {
			v, ok = verdictRegressed, false
		}
		fmt.Fprintf(w, "%-15s %-12s %5s  %12s %12.6g %12s  %12s %12.6g %12s  %9s  %s (%d/%d vs %d/%d operations failed)\n",
			wl.Name, "failed_share", "ratio", "", sa, "", "", sb, "", "", v, ra.failed, ra.attempted, rb.failed, rb.attempted)
	}
	return ok, nil
}

func ratioOf(a, b int) float64 { return ratio(float64(a), float64(b)) }

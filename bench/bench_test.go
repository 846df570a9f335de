package main

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	sccl "repro"
)

// These tests cover the harness's own arithmetic and its checker. None
// runs a workload.

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v, want 0", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v, want 1, 4", q1, q3)
	}
	if q1, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("quartiles of one = %v, %v, want 7, 7", q1, q3)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 90); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 with ten samples beyond", v, ok)
	}
	if v, ok := percentile(xs, 91); v != 91 || ok {
		t.Errorf("p91 of 1..100 = %v, %v; want 91 with only nine samples beyond", v, ok)
	}
	if _, ok := percentile(xs[:64], 80); !ok {
		t.Error("p80 of 64 samples has twelve beyond it and should be supported")
	}
}

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "request", Start: ms(0), End: ms(100)},
		// Two children that overlap each other (20-50 and 40-70): they
		// cover 50 ms of the parent, not 60.
		{ID: 2, Parent: 1, Name: "encode", Start: ms(20), End: ms(50)},
		{ID: 3, Parent: 1, Name: "solve", Start: ms(40), End: ms(70)},
		// A grandchild counts against its own parent only.
		{ID: 4, Parent: 3, Name: "propagate", Start: ms(45), End: ms(55)},
		// A child that sticks out of the parent is clipped to it.
		{ID: 5, Parent: 1, Name: "late", Start: ms(90), End: ms(120)},
		// A span that was never closed is ignored.
		{ID: 6, Parent: 1, Name: "open", Start: ms(10), End: -1},
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	want := map[string]time.Duration{"request": ms(40), "encode": ms(30), "solve": ms(20), "propagate": ms(10), "late": ms(30)}
	for name, self := range want {
		if got[name].Self != self {
			t.Errorf("self time of %s = %v, want %v", name, got[name].Self, self)
		}
	}
	if _, ok := got["open"]; ok {
		t.Error("an unclosed span was reported")
	}
	if got["request"].Total != ms(100) {
		t.Errorf("total of request = %v, want 100ms", got["request"].Total)
	}
}

func TestTracerSplitAndChromeFile(t *testing.T) {
	var nilTracer *tracer
	if id := nilTracer.begin("x", 0, 0, 0); id != 0 {
		t.Fatalf("nil tracer handed out span %d", id)
	}
	nilTracer.end(0) // must not panic

	tr := newTracer()
	req := tr.newReq()
	id := tr.begin("engine.pareto", 0, req, 0)
	time.Sleep(3 * time.Millisecond)
	tr.end(id)
	tr.split(id, part{"synth.encode", time.Millisecond}, part{"sat.solve", time.Hour})
	if len(tr.spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(tr.spans))
	}
	parent, solve := tr.spans[0], tr.spans[2]
	if solve.End != parent.End || solve.Req != req || solve.Parent != id {
		t.Errorf("split child %+v is not clipped to and tied to its parent %+v", solve, parent)
	}
	var buf bytes.Buffer
	if err := writeChrome(&buf, "w", tr.spans); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if len(f.TraceEvents) != 3 || f.TraceEvents[0]["ph"] != "X" || f.TraceEvents[1]["cat"] != "synth" {
		t.Errorf("unexpected trace events: %v", f.TraceEvents)
	}
}

func TestFailureCounting(t *testing.T) {
	var c opCount
	c.ok()
	c.record(nil)
	c.fail("first")
	c.record(errFake("second"))
	var total opCount
	total.add(c)
	total.add(opCount{attempted: 6})
	if total.attempted != 10 || total.failed != 2 || total.firstErr != "first" {
		t.Errorf("got %+v, want 10 attempted, 2 failed, first failure kept", total)
	}
	if total.share() != 0.2 {
		t.Errorf("share = %v, want 0.2", total.share())
	}
	if (opCount{}).share() != 0 {
		t.Error("share of nothing attempted should be 0")
	}
}

type errFake string

func (e errFake) Error() string { return string(e) }

func TestZipfDrawsAreSeeded(t *testing.T) {
	a, b, c := zipfDraws(7, 13, 6000), zipfDraws(7, 13, 6000), zipfDraws(8, 13, 6000)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed drew different requests")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds drew the same requests")
	}
	counts := make([]int, 13)
	for _, i := range a {
		if i < 0 || i >= 13 {
			t.Fatalf("draw %d out of range", i)
		}
		counts[i]++
	}
	most, seen := 0, 0
	for _, n := range counts {
		if n > most {
			most = n
		}
		if n > 0 {
			seen++
		}
	}
	// Zipf(1.1) over 13 ranks puts about 36% of the draws on the first.
	if most < 6000/4 || most > 6000/2 || seen != 13 {
		t.Errorf("draws do not look Zipf(1.1) over 13 ranks: %v", counts)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "pass_wall_s", Better: "lower", Bound: 0.05}
	higher := metricSpec{Name: "hit_rps", Better: "higher", Bound: 0.15}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.01}
	cases := []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, verdictOK},
		{"4% slower is inside a 5% bound", lower, steady, scale(steady, 1.04), verdictOK},
		{"10% slower", lower, steady, scale(steady, 1.10), verdictRegressed},
		{"faster", lower, steady, scale(steady, 0.80), verdictOK},
		{"20% fewer requests a second", higher, steady, scale(steady, 0.80), verdictRegressed},
		{"10% fewer is inside a 15% bound", higher, steady, scale(steady, 0.90), verdictOK},
		{"spread wider than the bound", lower, []float64{0.8, 1.0, 1.2, 0.9, 1.1}, []float64{0.85, 1.05, 1.25, 0.95, 1.15}, verdictUnresolved},
		{"wide spread, yet every run better", lower, []float64{0.8, 1.0, 1.2, 0.9, 1.1}, []float64{0.5, 0.6, 0.7, 0.55, 0.65}, verdictOK},
		{"single runs", lower, []float64{1}, []float64{1.2}, verdictRegressed},
	}
	for _, c := range cases {
		if got, _ := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestCompareFilesExitsOnRegressionAndFailures(t *testing.T) {
	spec := &benchSpec{
		Workloads: []workloadSpec{{Name: "w"}},
		EndToEnd:  []metricSpec{{Name: "pass_wall_s", Unit: "s", Better: "lower", Bound: 0.05}},
	}
	file := func(wall float64, failed int) string {
		path := t.TempDir() + "/r.json"
		rec := runRecord{Workload: "w", runResult: runResult{Correct: failed == 0, Attempted: 100, Failed: failed,
			Metrics: map[string]value{"pass_wall_s": {Value: wall, Unit: "s"}}}}
		if err := writeResults(path, []runRecord{rec, rec, rec}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, c := range []struct {
		name   string
		a, b   string
		wantOK bool
		want   string
	}{
		{"agree", file(1, 0), file(1.01, 0), true, verdictOK},
		{"slower", file(1, 0), file(1.2, 0), false, verdictRegressed},
		{"more failures", file(1, 0), file(1, 3), false, "9/300"},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, spec, c.a, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.wantOK || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: ok=%v, output:\n%s", c.name, ok, out.String())
		}
	}
}

// nccl returns a hand-built valid algorithm to feed the checker, so the
// negative tests need no synthesis.
func nccl(t *testing.T) *sccl.Algorithm {
	t.Helper()
	a, err := sccl.NCCLAllgather()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestCheckerRejectsWrongAnswers(t *testing.T) {
	a := nccl(t)
	c, s, r := a.C, a.Steps(), a.TotalRounds()
	if err := checkWitness(a, c, s, r); err != nil {
		t.Fatalf("valid algorithm rejected: %v", err)
	}
	if err := checkWitness(a, c, s, r+1); err == nil {
		t.Error("an algorithm of another cost than requested was accepted")
	}
	if err := checkWitness(nil, c, s, r); err == nil {
		t.Error("a missing algorithm was accepted")
	}
	// An invalid algorithm: drop a send, so some chunk never arrives.
	broken := *a
	broken.Sends = broken.Sends[1:]
	if err := checkWitness(&broken, c, s, r); err == nil {
		t.Error("an algorithm that does not implement its collective was accepted")
	}

	row := budgetRow{Topology: "dgx1", Collective: "Allgather", C: c, S: s, R: r, Status: "SAT"}
	if err := checkAnswer(row, sccl.Sat, a); err != nil {
		t.Errorf("right answer rejected: %v", err)
	}
	if err := checkAnswer(row, sccl.Unsat, nil); err == nil {
		t.Error("UNSAT accepted where the reference says SAT")
	}
	if err := checkAnswer(row, sccl.Unknown, nil); err == nil {
		t.Error("a timeout was accepted")
	}
	if err := checkAnswer(row, sccl.Sat, &broken); err == nil {
		t.Error("SAT with an invalid witness accepted")
	}
}

func TestCheckerRejectsCorruptedGolden(t *testing.T) {
	a := nccl(t)
	got := []sccl.ParetoPoint{{Algorithm: a, C: a.C, S: a.Steps(), R: a.TotalRounds(), BandwidthOptimal: true}}
	golden := []point{{C: a.C, S: a.Steps(), R: a.TotalRounds(), Optimality: "Bandwidth"}}
	if err := checkFrontier("k", got, golden); err != nil {
		t.Fatalf("matching frontier rejected: %v", err)
	}
	for name, bad := range map[string][]point{
		"cost changed":     {{C: a.C, S: a.Steps(), R: a.TotalRounds() + 1, Optimality: "Bandwidth"}},
		"label changed":    {{C: a.C, S: a.Steps(), R: a.TotalRounds()}},
		"point added":      append(append([]point(nil), golden...), point{C: 1, S: 1, R: 1}),
		"frontier missing": nil,
	} {
		if err := checkFrontier("k", got, bad); err == nil {
			t.Errorf("golden with %s was accepted", name)
		}
	}
	broken := *a
	broken.Sends = broken.Sends[1:]
	got[0].Algorithm = &broken
	if err := checkFrontier("k", got, golden); err == nil {
		t.Error("a frontier point with an invalid witness was accepted")
	}
}

// TestSpecMatchesHarness ties BENCHMARK.json to the code: every workload
// it names is implemented, every sweep has a golden, and the committed
// inputs have the shape the workloads rely on.
func TestSpecMatchesHarness(t *testing.T) {
	spec, err := loadSpec("")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != 5 {
		t.Errorf("%d workloads, want 5", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if newWorkload(w.Name) == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	var setup metricSpec
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" {
			setup = m
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s missing or misdeclared: %+v", setup)
	}
	for _, m := range spec.EndToEnd {
		if m.Bound > setup.Bound || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, setup_s's %g]", m.Name, m.Bound, setup.Bound)
		}
	}
	layer := map[string]bool{}
	for _, m := range spec.PerLayer {
		layer[m.Name] = true
	}
	for _, ps := range samplePercentiles {
		for _, p := range ps {
			if !layer[p.metric] {
				t.Errorf("percentile metric %s is not in BENCHMARK.json", p.metric)
			}
		}
	}

	var ff frontierFile
	if err := loadJSON("frontiers.json", &ff); err != nil {
		t.Fatal(err)
	}
	n := 0
	for name, ss := range sweeps {
		if _, ok := spec.workload(name); !ok {
			t.Errorf("sweeps of unknown workload %s", name)
		}
		for _, s := range ss {
			n++
			if len(ff.Frontiers[s.key()]) == 0 {
				t.Errorf("no golden frontier for %s", s.key())
			}
		}
	}
	if len(ff.Frontiers) != n {
		t.Errorf("%d golden frontiers for %d sweeps", len(ff.Frontiers), n)
	}

	var t4 table4File
	if err := loadJSON("table4_dgx1.json", &t4); err != nil {
		t.Fatal(err)
	}
	if len(t4.Rows) != 32 {
		t.Errorf("%d Table 4 rows, want 32", len(t4.Rows))
	}
	var sf serveFile
	if err := loadJSON("serve_requests.json", &sf); err != nil {
		t.Fatal(err)
	}
	perTopo, unsat := map[string]int{}, 0
	for _, r := range sf.Misses {
		perTopo[r.Topology]++
		if r.Status == "UNSAT" {
			unsat++
		}
	}
	if len(sf.Misses) != 12 || len(perTopo) != 6 || unsat != 2 || perTopo[sf.Herd.Topology] != 0 {
		t.Errorf("serve requests: %d misses on %d topologies, %d UNSAT, herd on %s", len(sf.Misses), len(perTopo), unsat, sf.Herd.Topology)
	}
	for topo, k := range perTopo {
		if k != 2 { // a third miss on one topology would start the daemon's mega-base warmer
			t.Errorf("%d misses on %s, want 2", k, topo)
		}
	}
}

func TestParseMetrics(t *testing.T) {
	got := parseMetrics("# HELP x y\n# TYPE x counter\nsccl_serve_solves_total 13\nsccl_serve_requests_total{endpoint=\"synthesize\"} 6028\nsccl_serve_queue_wait_seconds_sum 0.25\n")
	want := map[string]float64{
		"sccl_serve_solves_total":                            13,
		"sccl_serve_requests_total{endpoint=\"synthesize\"}": 6028,
		"sccl_serve_queue_wait_seconds_sum":                  0.25,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseMetrics = %v, want %v", got, want)
	}
}

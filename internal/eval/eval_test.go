package eval

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	sccl "repro"
	"repro/internal/collective"
	"repro/internal/topology"
)

// TestTable4OptimalityLabelsMatchPaper verifies the computed optimality
// of the one Table 4 row bench/testdata/table4_dgx1.json leaves out, the
// slow Alltoall; TestTable4MatchesBenchRows checks every other row.
func TestTable4OptimalityLabelsMatchPaper(t *testing.T) {
	got, err := optimalityLabel(rowSpec{collective.Alltoall, 24, 8, 8, true}, topology.DGX1(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != "Bandwidth" {
		t.Errorf("Alltoall (24,8,8): label %q, want %q", got, "Bandwidth")
	}
}

// TestTable4MatchesBenchRows checks that the benchmark's hand-entered copy
// of Table 4 (bench/testdata/table4_dgx1.json) lists exactly the requests
// of Table4Requests, in the same order, and that its Optimality column
// (the paper's) equals the computed label of every row.
func TestTable4MatchesBenchRows(t *testing.T) {
	data, err := os.ReadFile("../../bench/testdata/table4_dgx1.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Rows []struct {
			Collective string
			C, S, R    int
			Optimality string
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	reqs := Table4Requests()
	if len(doc.Rows) != len(reqs) {
		t.Fatalf("%d rows in the JSON, %d requests", len(doc.Rows), len(reqs))
	}
	topo := topology.DGX1()
	for i, row := range doc.Rows {
		kind, err := collective.ParseKind(row.Collective)
		if err != nil {
			t.Fatal(err)
		}
		// The JSON prints composed Allreduce triples, as the paper does.
		want := sccl.Budget{C: row.C, S: row.S, R: row.R}
		if kind == collective.Allreduce {
			want = sccl.Budget{C: row.C / topo.P, S: row.S / 2, R: row.R / 2}
		}
		if q := reqs[i]; q.Kind != kind || q.Budget != want {
			t.Errorf("row %d: JSON %v %s, request %v %s", i, kind, want, q.Kind, q.Budget)
		}
		label, err := optimalityLabel(rowSpec{kind, row.C, row.S, row.R, false}, topo, nil)
		if err != nil {
			t.Fatal(err)
		}
		if label != row.Optimality {
			t.Errorf("%v (%d,%d,%d): label %q, JSON %q", kind, row.C, row.S, row.R, label, row.Optimality)
		}
	}
}

func TestTable5OptimalityLabelsMatchPaper(t *testing.T) {
	cases := []struct {
		kind    collective.Kind
		c, s, r int
		label   string
	}{
		{collective.Allgather, 1, 4, 4, "Latency"},
		{collective.Allgather, 2, 7, 7, "Bandwidth"},
		{collective.Allgather, 2, 4, 7, "Both"},
		{collective.Allreduce, 8, 8, 8, "Latency"},
		{collective.Allreduce, 16, 14, 14, "Bandwidth"},
		{collective.Allreduce, 16, 8, 14, "Both"},
		{collective.Broadcast, 2, 4, 4, "Latency"},
		{collective.Broadcast, 10, 8, 8, ""},
		{collective.Gather, 1, 4, 4, "Latency"},
		{collective.Gather, 2, 4, 7, "Both"},
		{collective.Alltoall, 8, 4, 8, "Both"},
	}
	topo := topology.AMDZ52()
	for _, tc := range cases {
		got, err := optimalityLabel(rowSpec{tc.kind, tc.c, tc.s, tc.r, false}, topo, nil)
		if err != nil {
			t.Fatalf("%v: %v", tc.kind, err)
		}
		if got != tc.label {
			t.Errorf("%v (%d,%d,%d): label %q, want %q", tc.kind, tc.c, tc.s, tc.r, got, tc.label)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	rows, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0].C != "6" || rows[1].C != "48" {
		t.Fatalf("rows: %+v", rows)
	}
}

// TestTable5FullSynthesis regenerates all of Table 5 (the cheaper table)
// on a Workers:1 engine and pins its cache counts: every row misses once
// under its own fingerprint, and the five rows whose dual or implying
// Allgather an earlier row already asked (the three Allreduce rows and
// the two Gather rows) hit that entry.
func TestTable5FullSynthesis(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesis table skipped in -short")
	}
	eng := sccl.NewEngine(sccl.EngineOptions{Workers: 1})
	defer eng.Close()
	rows, err := Table5(context.Background(), eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(paperTable5) {
		t.Fatalf("rows = %d, want %d", len(rows), len(paperTable5))
	}
	for _, r := range rows {
		if r.Status != "SAT" {
			t.Errorf("row %+v not SAT", r)
		}
	}
	cs := eng.CacheStats()
	got := [3]uint64{cs.Misses, cs.Hits, uint64(cs.Algorithms)}
	if want := [3]uint64{14, 5, 14}; got != want {
		t.Errorf("misses, hits, algorithms = %v, want %v", got, want)
	}
}

// TestTable4SubsetSynthesis spot-checks representative Table 4 rows
// (the full table runs in the benchmark harness).
func TestTable4SubsetSynthesis(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesis skipped in -short")
	}
	subset := []rowSpec{
		{collective.Allgather, 1, 2, 2, false},
		{collective.Allgather, 6, 3, 7, false},
		{collective.Allreduce, 8, 4, 4, false},
		{collective.Broadcast, 6, 3, 3, false},
		{collective.Gather, 2, 2, 3, false},
		{collective.Alltoall, 8, 2, 3, false},
	}
	eng := sccl.NewEngine(sccl.EngineOptions{})
	defer eng.Close()
	rows, err := synthesisTable(context.Background(), eng, topology.DGX1(), subset, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Status != "SAT" {
			t.Errorf("row %+v not SAT", r)
		}
	}
}

// TestFailingRowKeepsOthers: a row whose budget is Unsat is reported in
// the error, and the rows around it are still synthesized.
func TestFailingRowKeepsOthers(t *testing.T) {
	rows := []rowSpec{
		{collective.Allgather, 1, 2, 2, false},
		{collective.Allgather, 1, 1, 1, false},
		{collective.Broadcast, 2, 2, 2, false},
	}
	eng := sccl.NewEngine(sccl.EngineOptions{Workers: 1})
	defer eng.Close()
	out, err := synthesisTable(context.Background(), eng, topology.DGX1(), rows, Options{})
	if err == nil || !strings.Contains(err.Error(), "unexpectedly UNSAT") {
		t.Fatalf("err = %v, want the Unsat row reported", err)
	}
	if len(out) != 3 || out[0].Status != "SAT" || out[1].Status != "UNSAT" || out[2].Status != "SAT" {
		t.Fatalf("rows = %+v", out)
	}
}

// TestEngineErrorNamesItsRow: a row the engine rejects (an Allreduce
// whose C is not a multiple of P leaves its Allgather phase no chunks) is
// named by its kind and printed triple, and its batch index skips the
// rows left out.
func TestEngineErrorNamesItsRow(t *testing.T) {
	rows := []rowSpec{
		{collective.Alltoall, 24, 8, 8, true},
		{collective.Allreduce, 4, 4, 4, false},
	}
	eng := sccl.NewEngine(sccl.EngineOptions{Workers: 1})
	defer eng.Close()
	out, err := synthesisTable(context.Background(), eng, topology.DGX1(), rows, Options{})
	if err == nil || !strings.Contains(err.Error(), "eval: Allreduce (4,4,4) failed as request 0") {
		t.Fatalf("err = %v, want the Allreduce row named", err)
	}
	if len(out) != 2 || !out[0].Skipped || out[1].Status != "" {
		t.Fatalf("rows = %+v", out)
	}
}

func TestSlowRowsSkippedByDefault(t *testing.T) {
	rows := []rowSpec{{collective.Alltoall, 24, 8, 8, true}}
	eng := sccl.NewEngine(sccl.EngineOptions{})
	defer eng.Close()
	out, err := synthesisTable(context.Background(), eng, topology.DGX1(), rows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || !out[0].Skipped {
		t.Fatalf("slow row should be skipped: %+v", out)
	}
	if !strings.Contains(out[0].Format(), "skipped") {
		t.Error("format should mention skip")
	}
	if cs := eng.CacheStats(); cs.Misses != 0 {
		t.Errorf("a skipped row reached the engine: %d misses", cs.Misses)
	}
}

func TestFigure4Shape(t *testing.T) {
	fig := Figure4()
	if len(fig.Series) != 5 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	if len(fig.Sizes) != 7 {
		t.Fatalf("sizes = %d: %v", len(fig.Sizes), fig.Sizes)
	}
	lat := fig.Series[0]
	if lat.Speedups[0] < 1.5 {
		t.Errorf("(1,2,2) small-size speedup %.2f, want > 1.5 (paper ~2.2)", lat.Speedups[0])
	}
	if lat.Speedups[len(lat.Speedups)-1] > 1 {
		t.Errorf("(1,2,2) large-size speedup %.2f, want < 1", lat.Speedups[len(lat.Speedups)-1])
	}
	bw := fig.Series[3] // (6,7,7) fused
	last := bw.Speedups[len(bw.Speedups)-1]
	if last <= 1.0 || last > 1.4 {
		t.Errorf("(6,7,7) large speedup %.2f, want modest win (paper ~1.1-1.2)", last)
	}
	memcpy := fig.Series[4]
	if memcpy.Speedups[0] >= 1 {
		t.Errorf("memcpy small speedup %.2f, want < 1", memcpy.Speedups[0])
	}
	if memcpy.Speedups[len(memcpy.Speedups)-1] <= 1 {
		t.Errorf("memcpy large speedup %.2f, want > 1", memcpy.Speedups[len(memcpy.Speedups)-1])
	}
}

func TestFigure5Shape(t *testing.T) {
	fig := Figure5()
	lat := fig.Series[0] // (1,2,2)
	if lat.Speedups[0] <= 1 {
		t.Errorf("(1,2,2) allreduce should win at small sizes, got %.2f", lat.Speedups[0])
	}
	// The paper's mid-size dip: every SCCL line loses to NCCL somewhere in
	// the middle.
	for _, s := range fig.Series {
		dipped := false
		for _, v := range s.Speedups {
			if v < 1 {
				dipped = true
			}
		}
		if !dipped {
			t.Errorf("series %s never dips below 1 (expected multi-kernel sync cost)", s.Label)
		}
	}
	bw := fig.Series[3] // (6,7,7)
	if last := bw.Speedups[len(bw.Speedups)-1]; last <= 1 {
		t.Errorf("(6,7,7) allreduce large speedup %.2f, want > 1", last)
	}
}

func TestFigure6Shape(t *testing.T) {
	fig := Figure6()
	latSmall := fig.Series[0].Speedups[0]
	bwSmall := fig.Series[1].Speedups[0]
	if latSmall >= 1 || bwSmall >= 1 {
		t.Errorf("RCCL should win small sizes: %.2f %.2f", latSmall, bwSmall)
	}
	if latSmall <= bwSmall {
		t.Errorf("(1,4,4) should beat (2,7,7) at small sizes: %.2f vs %.2f", latSmall, bwSmall)
	}
	n := len(fig.Series[1].Speedups)
	if last := fig.Series[1].Speedups[n-1]; last <= 1 {
		t.Errorf("(2,7,7) should win large sizes, got %.2f", last)
	}
}

func TestFigureFormatOutput(t *testing.T) {
	out := Figure4().Format()
	for _, want := range []string{"Figure 4", "(1,2,2)", "960", "251658240"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q", want)
		}
	}
}

func TestFormatTable(t *testing.T) {
	rows := []TableRow{{Collective: "Allgather", C: 1, S: 2, R: 2, Optimality: "Latency", Status: "SAT"}}
	out := FormatTable("Table X", rows)
	for _, want := range []string{"Table X", "Allgather", "Latency", "SAT"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in %s", want, out)
		}
	}
}

// TestParallelRowsMatchSequential checks that a Workers:4 engine
// synthesizes the same rows in the same order as a Workers:1 engine.
func TestParallelRowsMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesis skipped in -short")
	}
	subset := []rowSpec{
		{collective.Allgather, 1, 2, 2, false},
		{collective.Broadcast, 2, 2, 2, false},
		{collective.Gather, 1, 2, 2, false},
		{collective.Allgather, 2, 2, 3, false},
	}
	table := func(workers int) []TableRow {
		eng := sccl.NewEngine(sccl.EngineOptions{Workers: workers})
		defer eng.Close()
		rows, err := synthesisTable(context.Background(), eng, topology.DGX1(), subset, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	seq, par := table(1), table(4)
	if len(par) != len(seq) {
		t.Fatalf("rows: %d vs %d", len(par), len(seq))
	}
	for i := range seq {
		a, b := seq[i], par[i]
		a.Time, b.Time = 0, 0
		if a != b {
			t.Errorf("row %d: %+v != %+v", i, b, a)
		}
	}
}

package sccl_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// TestLatestTrajectoryHasPairedRuns checks the newest committed
// BENCH_prN.json: it must hold, for every workload BENCHMARK.json
// declares, at least six untraced runs (the change side of a
// `ci/paired.sh` run) and one traced run, so consecutive files compare
// medians with quartiles and per-layer counts (ci/counts.sh).
func TestLatestTrajectoryHasPairedRuns(t *testing.T) {
	const minRuns = 6
	paths, err := filepath.Glob("BENCH_pr*.json")
	if err != nil {
		t.Fatal(err)
	}
	numbered := regexp.MustCompile(`^BENCH_pr(\d+)\.json$`)
	latest, latestN := "", -1
	for _, p := range paths {
		m := numbered.FindStringSubmatch(p)
		if m == nil {
			continue
		}
		if n, _ := strconv.Atoi(m[1]); n > latestN {
			latest, latestN = p, n
		}
	}
	if latest == "" {
		t.Skip("no BENCH_prN.json committed")
	}

	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	var doc struct {
		Runs []struct {
			Workload string `json:"workload"`
			Trace    int    `json:"trace"`
		} `json:"runs"`
	}
	for path, v := range map[string]any{"BENCHMARK.json": &spec, latest: &doc} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json declares no workloads")
	}

	untraced, traced := map[string]int{}, map[string]int{}
	for _, r := range doc.Runs {
		if r.Trace == 0 {
			untraced[r.Workload]++
		} else {
			traced[r.Workload]++
		}
	}
	for _, w := range spec.Workloads {
		if untraced[w.Name] < minRuns || traced[w.Name] == 0 {
			t.Errorf("%s: %s has %d untraced and %d traced runs, want at least %d and 1",
				latest, w.Name, untraced[w.Name], traced[w.Name], minRuns)
		}
	}
}

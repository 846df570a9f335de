package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec mirrors BENCHMARK.json. The file is the one place that
// fixes names, units, directions and bounds; the harness reads it at run
// time so the list it prints, the metrics it emits and the bounds the
// compare tool applies cannot drift from it.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the baseline's median by which an end-to-end
	// metric may worsen; per-layer metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from path, or when path is empty from
// the working directory and then its parent (so both the checkout root
// and bench/ work as a working directory).
func loadSpec(path string) (*benchSpec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var firstErr error
	for _, p := range candidates {
		data, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

func (s *benchSpec) workload(name string) (workloadSpec, bool) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// list prints every workload with its reason and every metric with its
// unit, direction and bound.
func (s *benchSpec) list(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range s.Workloads {
		fmt.Fprintf(w, "  %-16s %s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics (untraced run; bound = share of the baseline median it may worsen by):")
	for _, m := range s.EndToEnd {
		fmt.Fprintf(w, "  %-36s %-8s %-6s better  bound %g%%\n", m.Name, m.Unit, m.Better, m.Bound*100)
	}
	fmt.Fprintln(w, "per-layer metrics (traced run; no bound):")
	for _, m := range s.PerLayer {
		fmt.Fprintf(w, "  %-36s %-8s %-6s better\n", m.Name, m.Unit, m.Better)
	}
}

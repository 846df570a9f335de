package main

import (
	"embed"
	"encoding/json"
	"fmt"

	sccl "repro"
)

// The references are committed data, embedded so the binary does not
// depend on its working directory. None is ever regenerated implicitly.
//
//go:embed testdata/table4_dgx1.json testdata/frontiers.json testdata/serve_requests.json
var testdata embed.FS

// budgetRow is one exact-budget request with its expected answer. For
// Allreduce the triple is the composed one the paper prints; the request
// carries the Allgather-phase budget (C/P, S/2, R/2), as in paper §3.5.
type budgetRow struct {
	Topology   string `json:"topology,omitempty"`
	Collective string `json:"collective"`
	C          int    `json:"c"`
	S          int    `json:"s"`
	R          int    `json:"r"`
	// Optimality is the paper's Optimality column (Table 4 only).
	Optimality string `json:"optimality,omitempty"`
	// Status is the expected verdict: "SAT" or "UNSAT".
	Status string `json:"status"`
}

type table4File struct {
	Source string      `json:"source"`
	Rows   []budgetRow `json:"rows"`
}

type serveFile struct {
	Source string `json:"source"`
	// Misses are the twelve distinct cold requests, two per topology;
	// Herd is the further cold request both clients fire at once.
	Misses []budgetRow `json:"misses"`
	Herd   budgetRow   `json:"herd"`
}

// point is one frontier member as the goldens store it.
type point struct {
	C          int    `json:"c"`
	S          int    `json:"s"`
	R          int    `json:"r"`
	Optimality string `json:"optimality,omitempty"`
}

type frontierFile struct {
	Source string `json:"source"`
	// Frontiers maps a sweep's key (see sweep.key) to its frontier.
	Frontiers map[string][]point `json:"frontiers"`
}

func loadJSON(name string, v any) error {
	data, err := testdata.ReadFile("testdata/" + name)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// request builds the engine request of a row on topo.
func (r budgetRow) request(topo *sccl.Topology) (sccl.Request, error) {
	kind, err := sccl.ParseKind(r.Collective)
	if err != nil {
		return sccl.Request{}, err
	}
	b := sccl.Budget{C: r.C, S: r.S, R: r.R}
	if kind == sccl.Allreduce {
		if r.C%topo.P != 0 || r.S%2 != 0 || r.R%2 != 0 {
			return sccl.Request{}, fmt.Errorf("allreduce row (%d,%d,%d) is not a composed triple on %d nodes", r.C, r.S, r.R, topo.P)
		}
		b = sccl.Budget{C: r.C / topo.P, S: r.S / 2, R: r.R / 2}
	}
	return sccl.Request{Kind: kind, Topo: topo, Budget: b, Timeout: opTimeout}, nil
}

// checkWitness accepts a Sat answer only if the algorithm is valid for
// its collective on its topology and has exactly the requested cost.
func checkWitness(alg *sccl.Algorithm, c, s, r int) error {
	if alg == nil {
		return fmt.Errorf("no algorithm for (C=%d,S=%d,R=%d)", c, s, r)
	}
	if err := alg.Validate(); err != nil {
		return fmt.Errorf("invalid algorithm for (C=%d,S=%d,R=%d): %w", c, s, r, err)
	}
	if alg.C != c || alg.Steps() != s || alg.TotalRounds() != r {
		return fmt.Errorf("algorithm is %s, want (C=%d,S=%d,R=%d)", alg.CSR(), c, s, r)
	}
	return nil
}

// checkAnswer checks one exact-budget answer against its row.
func checkAnswer(row budgetRow, status sccl.Status, alg *sccl.Algorithm) error {
	if status.String() != row.Status {
		return fmt.Errorf("%s %s (%d,%d,%d): got %v, want %s", row.Topology, row.Collective, row.C, row.S, row.R, status, row.Status)
	}
	if status != sccl.Sat {
		return nil
	}
	if err := checkWitness(alg, row.C, row.S, row.R); err != nil {
		return fmt.Errorf("%s %s: %w", row.Topology, row.Collective, err)
	}
	return nil
}

// checkFrontier checks a sweep's frontier against its golden: the same
// (C, S, R) points in the same order with the same optimality labels,
// each carrying a valid witness of exactly that cost.
func checkFrontier(key string, got []sccl.ParetoPoint, want []point) error {
	if want == nil {
		return fmt.Errorf("%s: no golden frontier", key)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: frontier has %d points, golden has %d", key, len(got), len(want))
	}
	for i, p := range got {
		w := want[i]
		if p.C != w.C || p.S != w.S || p.R != w.R || p.Optimality() != w.Optimality {
			return fmt.Errorf("%s: point %d is (%d,%d,%d) %q, golden is (%d,%d,%d) %q",
				key, i, p.C, p.S, p.R, p.Optimality(), w.C, w.S, w.R, w.Optimality)
		}
		if err := checkWitness(p.Algorithm, p.C, p.S, p.R); err != nil {
			return fmt.Errorf("%s: point %d: %w", key, i, err)
		}
	}
	return nil
}

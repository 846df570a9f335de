// Command scclbench regenerates the evaluation artifacts of the SCCL
// paper — Tables 3, 4 and 5 and Figures 4, 5 and 6 — from this
// repository's synthesizer, baselines and calibrated cost model, printing
// the same rows and series the paper reports.
//
// Usage:
//
//	scclbench -table 3          # NCCL baseline (C,S,R) table
//	scclbench -table 4          # DGX-1 synthesis table (paper Table 4)
//	scclbench -table 5          # AMD Z52 synthesis table (paper Table 5)
//	scclbench -figure 4|5|6     # speedup series
//	scclbench -sweeps           # one-shot vs default-path Pareto sweep suite
//	scclbench -all              # everything
//	scclbench -table 4 -slow    # include the minutes-long Alltoall row
//	scclbench -table 4 -workers 4          # synthesize rows concurrently
//	scclbench -table 5 -backend smtlib:z3  # discharge to an external solver
//	scclbench -sweeps -json     # also write BENCH_sweeps.json rows
//
// -json writes machine-readable benchmark rows next to the printed
// output: BENCH_sweeps.json for the sweep suite (topology, collective,
// frontier S/R/C, encode+solve wall, probes, workers, session reuse,
// unsat-core solves and dominance-pruned probes) and BENCH_tables.json
// for synthesized table rows — the artifacts CI uploads to track the
// performance trajectory. Set SCCL_BENCH_DIR to redirect the files out
// of the working tree.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	sccl "repro"
	"repro/internal/algorithm"
	"repro/internal/collective"
	"repro/internal/eval"
	"repro/internal/sat"
	"repro/internal/synth"
	"repro/internal/topology"
)

func main() {
	table := flag.Int("table", 0, "regenerate table 3, 4 or 5")
	figure := flag.Int("figure", 0, "regenerate figure 4, 5 or 6")
	sweeps := flag.Bool("sweeps", false, "run the one-shot vs default-path (mega-base adoption) Pareto sweep suite")
	all := flag.Bool("all", false, "regenerate everything")
	slow := flag.Bool("slow", false, "include slow synthesis instances")
	timeout := flag.Duration("timeout", 15*time.Minute, "per-instance synthesis timeout")
	workers := flag.Int("workers", 1, "concurrent row synthesis workers")
	backendSpec := flag.String("backend", "cdcl", "solver backend: cdcl|smtlib[:binary]")
	noSymmetry := flag.Bool("no-symmetry", false, "disable node-orbit symmetry exploitation on large fabrics (frontier costs are identical either way; witnesses may differ)")
	noQuotient := flag.Bool("no-quotient", false, "disable the chunk-orbit quotient encoding (frontier costs are identical either way; witnesses may differ)")
	jsonOut := flag.Bool("json", false, "write machine-readable BENCH_*.json rows")
	flag.Parse()

	backend, err := synth.ParseBackend(*backendSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scclbench:", err)
		os.Exit(1)
	}
	// Rows go through a facade engine so identical budgets across tables
	// and repeated runs within one process hit the algorithm cache.
	eng := sccl.NewEngine(sccl.EngineOptions{Backend: backend, Workers: *workers, NoSymmetryBreaking: *noSymmetry, NoQuotient: *noQuotient})
	opts := eval.Options{
		Timeout:     *timeout,
		IncludeSlow: *slow,
		Workers:     *workers,
		Backend:     backend,
		Progress: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
		Synthesize: func(ctx context.Context, kind collective.Kind, topo *topology.Topology, root topology.Node, c, s, r int, o synth.Options) (*algorithm.Algorithm, sat.Status, error) {
			res, err := eng.Synthesize(ctx, sccl.Request{
				Kind: kind, Topo: topo, Root: root,
				Budget:  sccl.Budget{C: c, S: s, R: r},
				Options: &o,
			})
			if err != nil {
				return nil, sat.Unknown, err
			}
			return res.Algorithm, res.Status, nil
		},
	}
	ran := false
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "scclbench:", err)
		os.Exit(1)
	}
	// tableJSONRow is the BENCH_tables.json row for one synthesized
	// table entry.
	type tableJSONRow struct {
		Table      int    `json:"table"`
		Topology   string `json:"topology"`
		Collective string `json:"collective"`
		C          int    `json:"c"`
		S          int    `json:"s"`
		R          int    `json:"r"`
		Optimality string `json:"optimality,omitempty"`
		Status     string `json:"status"`
		Skipped    bool   `json:"skipped,omitempty"`
		WallNs     int64  `json:"wallNs"`
		Workers    int    `json:"workers"`
		Backend    string `json:"backend"`
	}
	var tableRows []tableJSONRow
	collectTable := func(table int, topoName string, rows []eval.TableRow) {
		if !*jsonOut {
			return
		}
		for _, r := range rows {
			tableRows = append(tableRows, tableJSONRow{
				Table: table, Topology: topoName, Collective: r.Collective,
				C: r.C, S: r.S, R: r.R, Optimality: r.Optimality,
				Status: r.Status, Skipped: r.Skipped, WallNs: int64(r.Time),
				Workers: *workers, Backend: backend.Name(),
			})
		}
	}

	if *all || *table == 3 {
		ran = true
		rows, err := eval.Table3()
		if err != nil {
			fail(err)
		}
		fmt.Println("Table 3: NCCL hand-written collectives on DGX-1")
		fmt.Printf("%-28s %6s %6s %6s\n", "Collective", "C", "S", "R")
		for _, r := range rows {
			fmt.Printf("%-28s %6s %6s %6s\n", r.Collective, r.C, r.S, r.R)
		}
		fmt.Println()
	}
	if *all || *table == 4 {
		ran = true
		rows, err := eval.Table4(opts)
		if err != nil {
			fail(err)
		}
		collectTable(4, "dgx1", rows)
		fmt.Print(eval.FormatTable("Table 4: synthesized DGX-1 collectives", rows))
		fmt.Println()
	}
	if *all || *table == 5 {
		ran = true
		rows, err := eval.Table5(opts)
		if err != nil {
			fail(err)
		}
		collectTable(5, "amd-z52", rows)
		fmt.Print(eval.FormatTable("Table 5: synthesized AMD Z52 collectives", rows))
		fmt.Println()
	}
	if *all || *sweeps {
		ran = true
		progress := func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
		fmt.Println("Session sweep suite: one-shot vs the default path (mega-base adoption)")
		sweepRows, err := eval.RunSessionSweeps(eval.SessionSweeps(), backend, *workers, *timeout, progress)
		if err != nil {
			fail(err)
		}
		if *jsonOut {
			if err := eval.WriteBenchJSON("BENCH_sweeps.json", sweepRows); err != nil {
				fail(err)
			}
			fmt.Fprintln(os.Stderr, "wrote BENCH_sweeps.json")
		}
		fmt.Println()
	}
	if *all || *figure == 4 {
		ran = true
		fmt.Print(eval.Figure4().Format())
		fmt.Println()
	}
	if *all || *figure == 5 {
		ran = true
		fmt.Print(eval.Figure5().Format())
		fmt.Println()
	}
	if *all || *figure == 6 {
		ran = true
		fmt.Print(eval.Figure6().Format())
		fmt.Println()
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	if *jsonOut && len(tableRows) > 0 {
		if err := eval.WriteBenchJSON("BENCH_tables.json", tableRows); err != nil {
			fail(err)
		}
		fmt.Fprintln(os.Stderr, "wrote BENCH_tables.json")
	}
	if cs := eng.CacheStats(); cs.Hits+cs.Misses > 0 {
		fmt.Fprintf(os.Stderr, "engine cache: %d algorithms, %d hits, %d misses\n",
			cs.Algorithms, cs.Hits, cs.Misses)
	}
}

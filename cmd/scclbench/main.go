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
//	scclbench -all              # everything
//	scclbench -table 4 -slow    # include the minutes-long Alltoall row
//	scclbench -table 4 -workers 4  # synthesize rows concurrently
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	sccl "repro"
	"repro/internal/eval"
)

func main() {
	table := flag.Int("table", 0, "regenerate table 3, 4 or 5")
	figure := flag.Int("figure", 0, "regenerate figure 4, 5 or 6")
	all := flag.Bool("all", false, "regenerate everything")
	slow := flag.Bool("slow", false, "include slow synthesis instances")
	timeout := flag.Duration("timeout", 15*time.Minute, "per-request synthesis timeout")
	workers := flag.Int("workers", 1, "engine worker pool size: table rows synthesized concurrently")
	noSymmetry := flag.Bool("no-symmetry", false, "disable node-orbit symmetry exploitation on large fabrics (frontier costs are identical either way; witnesses may differ)")
	noQuotient := flag.Bool("no-quotient", false, "disable the chunk-orbit quotient encoding (frontier costs are identical either way; witnesses may differ)")
	flag.Parse()

	// Rows go through one engine: budgets repeated across tables, and the
	// duals and implying Allgathers that rows share, come from its cache.
	eng := sccl.NewEngine(sccl.EngineOptions{Workers: *workers, Timeout: *timeout, NoSymmetryBreaking: *noSymmetry, NoQuotient: *noQuotient})
	ctx := context.Background()
	opts := eval.Options{IncludeSlow: *slow}
	ran := false
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "scclbench:", err)
		os.Exit(1)
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
		rows, err := eval.Table4(ctx, eng, opts)
		if err != nil {
			fail(err)
		}
		fmt.Print(eval.FormatTable("Table 4: synthesized DGX-1 collectives", rows))
		fmt.Println()
	}
	if *all || *table == 5 {
		ran = true
		rows, err := eval.Table5(ctx, eng, opts)
		if err != nil {
			fail(err)
		}
		fmt.Print(eval.FormatTable("Table 5: synthesized AMD Z52 collectives", rows))
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
	if cs := eng.CacheStats(); cs.Hits+cs.Misses > 0 {
		fmt.Fprintf(os.Stderr, "engine cache: %d algorithms, %d hits, %d misses\n",
			cs.Algorithms, cs.Hits, cs.Misses)
	}
}

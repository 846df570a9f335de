package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	sccl "repro"
)

// regenGoldens recomputes every reference that is not hand-entered by
// the plainest path the repository has — one-shot probes on a fresh
// engine with sessions, node symmetry and the orbit quotient all off —
// and prints testdata/frontiers.json. It also re-derives the expected
// statuses of testdata/serve_requests.json the same way and reports a
// disagreement. Nothing calls this implicitly: the output is reviewed
// against the paper's tables and sccl.LowerBounds, then committed by
// hand.
func regenGoldens(w io.Writer) error {
	plain := &sccl.SynthOptions{NoSymmetryBreaking: true, NoQuotient: true}
	eng := sccl.NewEngine(sccl.EngineOptions{Workers: 1, NoSessions: true, DisableCache: true})
	defer eng.Close()
	ctx := context.Background()

	out := frontierFile{
		Source: "Generated once on the seed commit by `bench -regen-goldens`: Engine.Pareto with one-shot probes and sessions, node symmetry and the orbit quotient off. " +
			"Reviewed by hand: every ring, line, dgx1 and amd frontier starts at S equal to the latency bound of sccl.LowerBounds and is labelled Latency there; " +
			"dgx1 Broadcast holds the (2,2,2), (6,3,3), (12,4,4) rows of paper Table 4 and amd Broadcast the five Broadcast rows of paper Table 5; " +
			"the two large fabrics are capped at one chunk, so each has a single point, whose R is at least the bandwidth bound rounded up (torus:6x6: 35/4 -> R=9; 4x DGX-1: 31/6 -> R>=6, and the plain path refutes (1,6,6)). " +
			"Every rooted sweep has root 0.",
		Frontiers: map[string][]point{},
	}
	var names []string
	for name := range sweeps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, s := range sweeps[name] {
			req, err := s.request()
			if err != nil {
				return err
			}
			req.NoSessions = true
			req.Options = plain
			res, err := eng.Pareto(ctx, req)
			if err != nil {
				return fmt.Errorf("%s: %w", s.key(), err)
			}
			steps, bw, err := sccl.LowerBounds(req.Kind, req.Topo, req.Root)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "%s: latency bound S>=%d, bandwidth bound R/C>=%s\n", s.key(), steps, bw.RatString())
			pts := []point{}
			for _, p := range res.Points {
				if err := checkWitness(p.Algorithm, p.C, p.S, p.R); err != nil {
					return fmt.Errorf("%s: %w", s.key(), err)
				}
				pts = append(pts, point{C: p.C, S: p.S, R: p.R, Optimality: p.Optimality()})
				fmt.Fprintf(os.Stderr, "  (%d,%d,%d) %s\n", p.C, p.S, p.R, p.Optimality())
			}
			out.Frontiers[s.key()] = pts
		}
	}

	var sf serveFile
	if err := loadJSON("serve_requests.json", &sf); err != nil {
		return err
	}
	for _, row := range append(sf.Misses, sf.Herd) {
		topo, err := sccl.ParseTopology(row.Topology)
		if err != nil {
			return err
		}
		req, err := row.request(topo)
		if err != nil {
			return err
		}
		req.Options = plain
		res, err := eng.Synthesize(ctx, req)
		if err != nil {
			return err
		}
		_, bw, err := sccl.LowerBounds(req.Kind, topo, req.Root)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s %s (%d,%d,%d): %v (bandwidth bound R/C>=%s)\n", row.Topology, row.Collective, row.C, row.S, row.R, res.Status, bw.RatString())
		if err := checkAnswer(row, res.Status, res.Algorithm); err != nil {
			return fmt.Errorf("serve_requests.json disagrees with the plain path: %w", err)
		}
	}

	return writeFrontiers(w, out)
}

// writeFrontiers prints the goldens one point a line, sweeps sorted by
// key, so that a regenerated file diffs point by point.
func writeFrontiers(w io.Writer, f frontierFile) error {
	line := func(v any) string {
		var b strings.Builder
		enc := json.NewEncoder(&b)
		enc.SetEscapeHTML(false)
		_ = enc.Encode(v) // strings, ints and structs of them cannot fail
		return strings.TrimSpace(b.String())
	}
	keys := make([]string, 0, len(f.Frontiers))
	for k := range f.Frontiers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "{\n \"source\": %s,\n \"frontiers\": {\n", line(f.Source))
	for i, k := range keys {
		fmt.Fprintf(w, "  %s: [\n", line(k))
		for j, p := range f.Frontiers[k] {
			fmt.Fprintf(w, "   %s%s\n", line(p), comma(j, len(f.Frontiers[k])))
		}
		fmt.Fprintf(w, "  ]%s\n", comma(i, len(keys)))
	}
	_, err := fmt.Fprint(w, " }\n}\n")
	return err
}

func comma(i, n int) string {
	if i < n-1 {
		return ","
	}
	return ""
}

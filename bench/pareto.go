package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	sccl "repro"
)

// sweep is one Pareto-Synthesize call (paper Algorithm 1).
type sweep struct {
	topology string
	kind     sccl.Kind
	k        int
	// maxSteps and maxChunks cap the enumeration; 0 keeps the engine
	// defaults (P+2 steps, 2P chunks).
	maxSteps, maxChunks int
}

func (s sweep) key() string {
	return fmt.Sprintf("%s %v k=%d maxSteps=%d maxChunks=%d", s.topology, s.kind, s.k, s.maxSteps, s.maxChunks)
}

// sweeps are the contents of the three Pareto workloads and of the
// serve-replay sweep. Sizes were chosen on the seed commit; see
// README.md for what each workload stresses and what it bypasses.
//
// Rooted sweeps keep root 0. Moving the root with the seed was measured
// and dropped: a ring is the same instance at every root up to a
// relabelling of the nodes, but the solver is not relabelling-invariant,
// and pass_wall_s of pareto-rings ranged from 0.87 s to 1.19 s over
// seeds 1-10, seven times the metric's bound. The seed shuffles the
// order of the sweeps instead.
var sweeps = map[string][]sweep{
	// Hundreds of small probes in long Unsat chains: encode-bound. Every
	// fabric has fewer than ten nodes, the size at which the encoder's
	// node-symmetry machinery switches on.
	"pareto-rings": {
		{topology: "ring:9", kind: sccl.Broadcast, k: 2},
		{topology: "ring:8", kind: sccl.Broadcast, k: 3},
		{topology: "ring:8", kind: sccl.Broadcast, k: 2},
		{topology: "line:9", kind: sccl.Broadcast, k: 2},
		{topology: "line:8", kind: sccl.Broadcast, k: 2},
	},
	// Incremental solving on long-lived session solvers: solve-bound.
	"pareto-chains": {
		{topology: "dgx1", kind: sccl.Broadcast, k: 2, maxChunks: 12},
		{topology: "amd", kind: sccl.Broadcast, k: 3},
	},
	// The only inputs large enough for automorphisms, block bandwidth
	// cuts, the symmetry-phased solve and the orbit quotient.
	"pareto-fabrics": {
		{topology: "torus:6x6", kind: sccl.Allgather, k: 1, maxSteps: 8, maxChunks: 1},
		{topology: "multinode:dgx1:4:2:2", kind: sccl.Allgather, k: 0, maxSteps: 7, maxChunks: 1},
	},
	"serve-replay": {
		{topology: "bidir-ring:8", kind: sccl.Broadcast, k: 2},
	},
}

// paretoHitRounds is how often every sweep of a workload is asked again
// of the pass's engine to measure hit_rps: about a quarter of a second.
var paretoHitRounds = map[string]int{"pareto-rings": 6000, "pareto-chains": 10000, "pareto-fabrics": 2000}

func (s sweep) request() (sccl.ParetoRequest, error) {
	topo, err := sccl.ParseTopology(s.topology)
	if err != nil {
		return sccl.ParetoRequest{}, err
	}
	return sccl.ParetoRequest{
		Kind: s.kind, Topo: topo, K: s.k,
		MaxSteps: s.maxSteps, MaxChunks: s.maxChunks, Timeout: opTimeout,
	}, nil
}

// paretoWorkload runs Engine.Pareto on each of its sweeps.
type paretoWorkload struct {
	name    string
	sweeps  []sweep
	reqs    []sccl.ParetoRequest
	goldens map[string][]point
}

func (w *paretoWorkload) fabrics() []string {
	var out []string
	for _, s := range sweeps[w.name] {
		out = append(out, s.topology)
	}
	return out
}

func (w *paretoWorkload) prepare(seed int64, _ string) error {
	var f frontierFile
	if err := loadJSON("frontiers.json", &f); err != nil {
		return err
	}
	w.goldens = f.Frontiers
	w.sweeps = append([]sweep(nil), sweeps[w.name]...)
	rand.New(rand.NewSource(seed)).Shuffle(len(w.sweeps), func(i, j int) { w.sweeps[i], w.sweeps[j] = w.sweeps[j], w.sweeps[i] })
	for _, s := range w.sweeps {
		req, err := s.request()
		if err != nil {
			return err
		}
		w.reqs = append(w.reqs, req)
	}
	return nil
}

func (w *paretoWorkload) pass(tr *tracer) passOut {
	out := passOut{layer: map[string]float64{}, samples: map[string][]float64{}}
	ctx := context.Background()
	results := make([]*sccl.ParetoResult, len(w.reqs))
	errs := make([]error, len(w.reqs))

	root := tr.begin("pass", 0, 0, 0)
	t0 := time.Now()
	eng := sccl.NewEngine(sccl.EngineOptions{Workers: 1})
	for i, req := range w.reqs {
		id := tr.begin("engine.pareto", root, tr.newReq(), 0)
		s := time.Now()
		results[i], errs[i] = eng.Pareto(ctx, req)
		out.missWall += time.Since(s)
		tr.end(id)
		if res := results[i]; res != nil {
			// Encode and solve happen inside the call; the public stats say
			// how long each took, so they become child intervals and the
			// rest (scheduling, extraction, validation, caching) is the
			// sweep's self time.
			tr.split(id, part{"synth.encode", res.Stats.EncodeTime}, part{"sat.solve", res.Stats.SolveTime})
		}
	}
	h0 := time.Now()
	tr.end(root)
	hits := 0
	for round := 0; round < paretoHitRounds[w.name]; round++ {
		for i, req := range w.reqs {
			res, err := eng.Pareto(ctx, req)
			if err != nil || !res.CacheHit || len(res.Points) != len(results[i].Points) {
				out.ops.fail(fmt.Sprintf("re-asked sweep %s was not served from the cache", w.sweeps[i].key()))
				continue
			}
			out.ops.ok()
			hits++
		}
	}
	hitWall := time.Since(h0)
	out.library = savedLibrary(tr, root, eng, out.layer)
	c0 := time.Now()
	closeErr := eng.Close()
	out.wall = h0.Sub(t0) + time.Since(c0)

	out.hitRPS = float64(hits) / secs(hitWall)
	var st sccl.ParetoStats
	points := 0
	for i, s := range w.sweeps {
		if errs[i] != nil {
			out.ops.fail(s.key() + ": " + errs[i].Error())
			continue
		}
		out.ops.record(checkFrontier(s.key(), results[i].Points, w.goldens[s.key()]))
		for _, p := range results[i].Points {
			out.witnesses = append(out.witnesses, p.Algorithm)
			out.answered = append(out.answered, sccl.Request{
				Kind: w.reqs[i].Kind, Topo: w.reqs[i].Topo, Root: w.reqs[i].Root,
				Budget: sccl.Budget{C: p.C, S: p.S, R: p.R},
			})
		}
		points += len(results[i].Points)
		addStats(&st, results[i].Stats)
	}
	if closeErr != nil {
		out.ops.fail("engine close: " + closeErr.Error())
	}
	statsLayer(out.layer, st, points, out.wall)
	return out
}

func addStats(a *sccl.ParetoStats, b sccl.ParetoStats) {
	a.Probes += b.Probes
	a.EncodeTime += b.EncodeTime
	a.SolveTime += b.SolveTime
	a.SessionProbes += b.SessionProbes
	a.SessionReuses += b.SessionReuses
	a.CarriedLearnts += b.CarriedLearnts
	a.CoreSolves += b.CoreSolves
	a.PrunedProbes += b.PrunedProbes
	a.TemplateHits += b.TemplateHits
	a.MigratedLearnts += b.MigratedLearnts
	a.SymmetryPerms += b.SymmetryPerms
	a.QuotientProbes += b.QuotientProbes
	a.QuotientFallbacks += b.QuotientFallbacks
	a.QuotientDeclined += b.QuotientDeclined
}

// statsLayer turns the summed scheduler stats of a pass into the synth
// and sat layer numbers.
func statsLayer(layer map[string]float64, st sccl.ParetoStats, points int, wall time.Duration) {
	layer["synth.probes"] = float64(st.Probes)
	layer["synth.frontier_points_per_probe"] = ratio(float64(points), float64(st.Probes))
	layer["synth.encode_s"] = secs(st.EncodeTime)
	layer["synth.encode_share"] = ratio(secs(st.EncodeTime), secs(wall))
	layer["synth.other_s"] = secs(wall - st.EncodeTime - st.SolveTime)
	layer["synth.session_probes"] = float64(st.SessionProbes)
	layer["synth.session_reuses"] = float64(st.SessionReuses)
	layer["synth.carried_learnts"] = float64(st.CarriedLearnts)
	layer["synth.pruned_probes"] = float64(st.PrunedProbes)
	layer["synth.core_solves"] = float64(st.CoreSolves)
	layer["synth.template_hits"] = float64(st.TemplateHits)
	layer["synth.migrated_learnts"] = float64(st.MigratedLearnts)
	layer["synth.symmetry_perms"] = float64(st.SymmetryPerms)
	layer["synth.quotient_probes"] = float64(st.QuotientProbes)
	layer["synth.quotient_fallbacks"] = float64(st.QuotientFallbacks)
	layer["synth.quotient_declined"] = float64(st.QuotientDeclined)
	layer["sat.solve_s"] = secs(st.SolveTime)
	layer["sat.solve_share"] = ratio(secs(st.SolveTime), secs(wall))
}

func (w *paretoWorkload) probes(*tracer, passOut, metricSet) {}

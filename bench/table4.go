package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	sccl "repro"
	"repro/internal/collective"
	"repro/internal/synth"
)

// table4HitRounds is how often the 32 requests are asked again of the
// pass's engine to measure hit_rps (about a quarter of a second).
const table4HitRounds = 500

// table4Workload synthesizes the 32 non-slow fixed budgets of paper
// Table 4 on DGX-1, one Engine.Synthesize each: one-shot bound-mode
// encodes and a fresh solver per request. The seed only shuffles the
// request order; DGX-1 is not vertex-transitive, so the root stays 0.
type table4Workload struct {
	rows []budgetRow
	reqs []sccl.Request
}

func (w *table4Workload) fabrics() []string { return []string{"dgx1"} }

func (w *table4Workload) prepare(seed int64, _ string) error {
	var f table4File
	if err := loadJSON("table4_dgx1.json", &f); err != nil {
		return err
	}
	topo, err := sccl.ParseTopology("dgx1")
	if err != nil {
		return err
	}
	w.rows = f.Rows
	rand.New(rand.NewSource(seed)).Shuffle(len(w.rows), func(i, j int) { w.rows[i], w.rows[j] = w.rows[j], w.rows[i] })
	for _, row := range w.rows {
		req, err := row.request(topo)
		if err != nil {
			return err
		}
		w.reqs = append(w.reqs, req)
	}
	return nil
}

// pass sends every request once through a fresh Engine (cold), then all
// of them table4HitRounds times more (hits), then checks the answers,
// which is not timed.
func (w *table4Workload) pass(tr *tracer) passOut {
	out := passOut{layer: map[string]float64{}, samples: map[string][]float64{}}
	ctx := context.Background()
	results := make([]*sccl.Result, len(w.reqs))
	errs := make([]error, len(w.reqs))

	root := tr.begin("pass", 0, 0, 0)
	t0 := time.Now()
	eng := sccl.NewEngine(sccl.EngineOptions{Workers: 1})
	for i, req := range w.reqs {
		id := tr.begin("engine.synthesize", root, tr.newReq(), 0)
		s := time.Now()
		results[i], errs[i] = eng.Synthesize(ctx, req)
		d := time.Since(s)
		tr.end(id)
		out.missWall += d
		out.samples["engine.synthesize_ms"] = append(out.samples["engine.synthesize_ms"], secs(d)*1e3)
	}
	h0 := time.Now()
	tr.end(root)
	hits := 0
	for round := 0; round < table4HitRounds; round++ {
		for i, req := range w.reqs {
			res, err := eng.Synthesize(ctx, req)
			if err != nil || !res.CacheHit || res.Status != results[i].Status {
				out.ops.fail(fmt.Sprintf("re-asked request %d was not served from the cache", i))
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
	out.answered = w.reqs

	out.hitRPS = float64(hits) / secs(hitWall)
	for i, row := range w.rows {
		switch {
		case errs[i] != nil:
			out.ops.fail(errs[i].Error())
		default:
			out.ops.record(checkAnswer(row, results[i].Status, results[i].Algorithm))
			if results[i].Algorithm != nil {
				out.witnesses = append(out.witnesses, results[i].Algorithm)
			}
		}
	}
	if closeErr != nil {
		out.ops.fail("engine close: " + closeErr.Error())
	}
	return out
}

// savedLibrary saves the engine's algorithm cache after a traced pass,
// outside the pass's wall; untraced passes skip it.
func savedLibrary(tr *tracer, parent int, eng *sccl.Engine, layer map[string]float64) []byte {
	if tr == nil {
		return nil
	}
	var buf bytes.Buffer
	d := tr.timed("engine.save_library", parent, 0, func() {
		if err := eng.SaveLibrary(&buf); err != nil {
			fmt.Fprintln(os.Stderr, "bench: save library:", err)
		}
	})
	layer["engine.save_library_ms"] = secs(d) * 1e3
	layer["engine.library_bytes"] = float64(buf.Len())
	return buf.Bytes()
}

func (w *table4Workload) probes(tr *tracer, last passOut, m metricSet) {
	directProbes(tr, w.reqs, last.missWall, m)
}

// directInstances expands a request into the raw instances the facade
// would solve for it: a combining collective is its dual instances
// (paper §3.5; the same expansion as synth.SynthesizeCollectiveContext).
func directInstances(req sccl.Request) ([]synth.Instance, error) {
	mk := func(kind sccl.Kind, topo *sccl.Topology) (synth.Instance, error) {
		coll, err := collective.New(kind, topo.P, req.Budget.C, req.Root)
		return synth.Instance{Coll: coll, Topo: topo, Steps: req.Budget.S, Round: req.Budget.R}, err
	}
	var kinds []sccl.Kind
	var topos []*sccl.Topology
	switch req.Kind {
	case sccl.Allreduce:
		kinds = []sccl.Kind{sccl.Allgather, sccl.Allgather}
		topos = []*sccl.Topology{req.Topo.Reverse(), req.Topo}
	case sccl.Reducescatter:
		kinds, topos = []sccl.Kind{sccl.Allgather}, []*sccl.Topology{req.Topo.Reverse()}
	case sccl.Reduce:
		kinds, topos = []sccl.Kind{sccl.Broadcast}, []*sccl.Topology{req.Topo.Reverse()}
	default:
		kinds, topos = []sccl.Kind{req.Kind}, []*sccl.Topology{req.Topo}
	}
	var out []synth.Instance
	for i := range kinds {
		in, err := mk(kinds[i], topos[i])
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// directProbes solves the requests' instances by direct calls into the
// encoder and solver, below the Engine. The synth.Result of each call is
// the only place the public API reports formula size and solver
// counters, and the walls set against the Engine's give the facade's
// overhead when engineWall, the wall of the same requests through
// Engine.Synthesize, is given.
func directProbes(tr *tracer, reqs []sccl.Request, engineWall time.Duration, m metricSet) {
	var wall, encode, solve time.Duration
	var vars, clauses, probes, sat, symPerms, quotProbes, quotFallbacks, quotDeclined int
	var st struct{ conflicts, props, decisions, restarts, learnt, removed int64 }
	root := tr.begin("direct", 0, 0, 0)
	for _, req := range reqs {
		ins, err := directInstances(req)
		if err != nil {
			continue
		}
		rid := tr.newReq()
		for _, in := range ins {
			id := tr.begin("synth.solve_one", root, rid, 0)
			s := time.Now()
			res, err := synth.SynthesizeContext(context.Background(), in, synth.Options{Timeout: opTimeout})
			wall += time.Since(s)
			tr.end(id)
			if err != nil {
				continue
			}
			tr.split(id, part{"synth.encode", res.Encode}, part{"sat.solve", res.Solve})
			probes++
			if res.Status == sccl.Sat {
				sat++
			}
			encode += res.Encode
			solve += res.Solve
			vars += res.Vars
			clauses += res.Clauses
			symPerms += res.SymmetryPerms
			quotProbes += res.QuotientProbes
			quotFallbacks += res.QuotientFallbacks
			quotDeclined += res.QuotientDeclined
			st.conflicts += res.Stats.Conflicts
			st.props += res.Stats.Propagations
			st.decisions += res.Stats.Decisions
			st.restarts += res.Stats.Restarts
			st.learnt += res.Stats.Learnt
			st.removed += res.Stats.Removed
		}
	}
	tr.end(root)
	m["synth.probes"] = float64(probes)
	m["synth.frontier_points_per_probe"] = ratio(float64(sat), float64(probes))
	m["synth.encode_s"] = secs(encode)
	m["synth.encode_share"] = ratio(secs(encode), secs(wall))
	m["synth.other_s"] = secs(wall - encode - solve)
	m["synth.symmetry_perms"] = float64(symPerms)
	m["synth.quotient_probes"] = float64(quotProbes)
	m["synth.quotient_fallbacks"] = float64(quotFallbacks)
	m["synth.quotient_declined"] = float64(quotDeclined)
	m["synth.vars"] = float64(vars)
	m["synth.clauses"] = float64(clauses)
	m["synth.clauses_per_s"] = ratio(float64(clauses), secs(encode))
	m["sat.solve_s"] = secs(solve)
	m["sat.solve_share"] = ratio(secs(solve), secs(wall))
	m["sat.conflicts"] = float64(st.conflicts)
	m["sat.propagations"] = float64(st.props)
	m["sat.decisions"] = float64(st.decisions)
	m["sat.restarts"] = float64(st.restarts)
	m["sat.learnt"] = float64(st.learnt)
	m["sat.removed"] = float64(st.removed)
	m["sat.props_per_s"] = ratio(float64(st.props), secs(solve))
	m["sat.ns_per_conflict"] = ratio(secs(solve)*1e9, float64(st.conflicts))
	if engineWall > 0 {
		m["engine.overhead_s"] = secs(engineWall - wall)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

package sccl_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	sccl "repro"
	"repro/internal/synth"
)

// TestEngineLegacyEquivalence is the old-vs-new golden: for a matrix of
// (kind, topology, budget), Engine.Synthesize produces byte-identical
// algorithms to the pre-engine synthesis path, including when served
// from the cache on a repeated request.
func TestEngineLegacyEquivalence(t *testing.T) {
	matrix := []struct {
		kind    sccl.Kind
		topo    *sccl.Topology
		c, s, r int
	}{
		{sccl.Allgather, sccl.Ring(4), 1, 3, 3},
		{sccl.Allgather, sccl.BidirRing(4), 1, 2, 3},
		{sccl.Broadcast, sccl.Line(4), 1, 3, 3},
		{sccl.Gather, sccl.FullyConnected(3), 1, 1, 2},
		{sccl.Reducescatter, sccl.BidirRing(4), 1, 2, 3},
		{sccl.Allreduce, sccl.BidirRing(4), 1, 2, 3},
	}
	eng := sccl.NewEngine(sccl.EngineOptions{})
	for _, m := range matrix {
		legacyAlg, legacyStatus, err := synth.SynthesizeCollective(m.kind, m.topo, 0, m.c, m.s, m.r, synth.Options{})
		if err != nil {
			t.Fatalf("legacy %v on %s: %v", m.kind, m.topo.Name, err)
		}
		if legacyStatus != sccl.Sat {
			t.Fatalf("legacy %v on %s: %v", m.kind, m.topo.Name, legacyStatus)
		}
		legacyBytes, err := sccl.EncodeAlgorithm(legacyAlg)
		if err != nil {
			t.Fatal(err)
		}
		req := sccl.Request{
			Kind: m.kind, Topo: m.topo,
			Budget: sccl.Budget{C: m.c, S: m.s, R: m.r},
		}
		for round := 0; round < 2; round++ {
			res, err := eng.Synthesize(context.Background(), req)
			if err != nil {
				t.Fatalf("engine %v on %s: %v", m.kind, m.topo.Name, err)
			}
			if res.Status != legacyStatus {
				t.Fatalf("engine %v on %s: status %v, legacy %v", m.kind, m.topo.Name, res.Status, legacyStatus)
			}
			if wantHit := round == 1; res.CacheHit != wantHit {
				t.Errorf("engine %v on %s round %d: CacheHit = %v", m.kind, m.topo.Name, round, res.CacheHit)
			}
			engineBytes, err := sccl.EncodeAlgorithm(res.Algorithm)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(legacyBytes, engineBytes) {
				t.Errorf("engine %v on %s round %d: algorithm differs from legacy", m.kind, m.topo.Name, round)
			}
		}
	}
}

// frontierBytes serializes a frontier with wall clocks zeroed so runs
// can be byte-compared.
func frontierBytes(t *testing.T, pts []sccl.ParetoPoint) []byte {
	t.Helper()
	norm := append([]sccl.ParetoPoint(nil), pts...)
	for i := range norm {
		norm[i].SynthesisTime = 0
	}
	data, err := sccl.EncodeFrontier(norm)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestEngineParetoEquivalence checks Engine.Pareto against the legacy
// sweep for Workers 1 and 4, and that a repeated sweep is served from
// the frontier cache with zero new solver probes in its ParetoStats.
func TestEngineParetoEquivalence(t *testing.T) {
	topo := sccl.BidirRing(4)
	legacyPts, err := synth.ParetoSynthesize(sccl.Allgather, topo, 0, synth.ParetoOptions{
		K: 1, MaxSteps: 4, MaxChunks: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	legacy := frontierBytes(t, legacyPts)
	for _, workers := range []int{1, 4} {
		eng := sccl.NewEngine(sccl.EngineOptions{Workers: workers})
		req := sccl.ParetoRequest{
			Kind: sccl.Allgather, Topo: topo,
			K: 1, MaxSteps: 4, MaxChunks: 4,
		}
		res, err := eng.Pareto(context.Background(), req)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.CacheHit {
			t.Errorf("workers=%d: first sweep reported a cache hit", workers)
		}
		if res.Stats.Probes == 0 {
			t.Errorf("workers=%d: first sweep ran no probes", workers)
		}
		if got := frontierBytes(t, res.Points); !bytes.Equal(legacy, got) {
			t.Errorf("workers=%d: frontier differs from legacy sweep", workers)
		}
		// Second sweep: frontier cache hit, no new solver probes.
		again, err := eng.Pareto(context.Background(), req)
		if err != nil {
			t.Fatalf("workers=%d repeat: %v", workers, err)
		}
		if !again.CacheHit {
			t.Errorf("workers=%d: repeated sweep missed the cache", workers)
		}
		if again.Stats.Probes != 0 || again.Stats.Pruned != 0 {
			t.Errorf("workers=%d: cached sweep reports probes %+v", workers, again.Stats)
		}
		if got := frontierBytes(t, again.Points); !bytes.Equal(legacy, got) {
			t.Errorf("workers=%d: cached frontier differs", workers)
		}
		// The sweep seeds the algorithm cache: exact-budget requests for
		// frontier points are hits.
		for _, p := range res.Points {
			r, err := eng.Synthesize(context.Background(), sccl.Request{
				Kind: sccl.Allgather, Topo: topo,
				Budget: sccl.Budget{C: p.C, S: p.S, R: p.R},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !r.CacheHit {
				t.Errorf("workers=%d: frontier point %s not seeded into the cache", workers, r.Fingerprint)
			}
		}
	}
}

// TestEngineCacheKeying checks that the cache distinguishes what it
// must (topology structure, kind, budget) and ignores what it may
// (topology names, timeouts).
func TestEngineCacheKeying(t *testing.T) {
	eng := sccl.NewEngine(sccl.EngineOptions{})
	ring := sccl.Ring(4)
	res1, err := eng.Synthesize(nil, sccl.Request{
		Kind: sccl.Allgather, Topo: ring, Budget: sccl.Budget{C: 1, S: 3, R: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A renamed but structurally identical topology hits.
	renamed := &sccl.Topology{Name: "other-name", P: ring.P, Relations: ring.Relations}
	res2, err := eng.Synthesize(nil, sccl.Request{
		Kind: sccl.Allgather, Topo: renamed, Budget: sccl.Budget{C: 1, S: 3, R: 3}, Timeout: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.CacheHit || res2.Fingerprint != res1.Fingerprint {
		t.Error("structurally identical request missed the cache")
	}
	// A different budget misses.
	res3, err := eng.Synthesize(nil, sccl.Request{
		Kind: sccl.Allgather, Topo: ring, Budget: sccl.Budget{C: 1, S: 4, R: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res3.CacheHit {
		t.Error("different budget hit the cache")
	}
	// Unsat verdicts are cached too.
	u1, err := eng.Synthesize(nil, sccl.Request{
		Kind: sccl.Allgather, Topo: ring, Budget: sccl.Budget{C: 1, S: 2, R: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	u2, err := eng.Synthesize(nil, sccl.Request{
		Kind: sccl.Allgather, Topo: ring, Budget: sccl.Budget{C: 1, S: 2, R: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if u1.Status != sccl.Unsat || u2.Status != sccl.Unsat || !u2.CacheHit {
		t.Errorf("UNSAT caching: %v/%v hit=%v", u1.Status, u2.Status, u2.CacheHit)
	}
	stats := eng.CacheStats()
	if stats.Algorithms == 0 || stats.Hits == 0 {
		t.Errorf("cache stats: %+v", stats)
	}
	// DisableCache really disables.
	off := sccl.NewEngine(sccl.EngineOptions{DisableCache: true})
	for i := 0; i < 2; i++ {
		r, err := off.Synthesize(nil, sccl.Request{
			Kind: sccl.Allgather, Topo: ring, Budget: sccl.Budget{C: 1, S: 3, R: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.CacheHit {
			t.Error("disabled cache served a hit")
		}
	}
}

// TestEngineSynthesizeAll checks deterministic result order and
// duplicate coalescing.
func TestEngineSynthesizeAll(t *testing.T) {
	eng := sccl.NewEngine(sccl.EngineOptions{Workers: 4})
	ring := sccl.Ring(4)
	reqs := []sccl.Request{
		{Kind: sccl.Allgather, Topo: ring, Budget: sccl.Budget{C: 1, S: 3, R: 3}},
		{Kind: sccl.Broadcast, Topo: ring, Budget: sccl.Budget{C: 1, S: 3, R: 3}},
		{Kind: sccl.Allgather, Topo: ring, Budget: sccl.Budget{C: 1, S: 3, R: 3}}, // duplicate of 0
		{Kind: sccl.Allgather, Topo: ring, Budget: sccl.Budget{C: 1, S: 2, R: 2}}, // Unsat
	}
	results, err := eng.SynthesizeAll(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(reqs) {
		t.Fatalf("got %d results", len(results))
	}
	for i, want := range []sccl.Status{sccl.Sat, sccl.Sat, sccl.Sat, sccl.Unsat} {
		if results[i] == nil || results[i].Status != want {
			t.Fatalf("result %d: %+v, want %v", i, results[i], want)
		}
	}
	if !results[2].CacheHit {
		t.Error("duplicate request was not coalesced")
	}
	if results[0].Fingerprint != results[2].Fingerprint {
		t.Error("duplicate fingerprints differ")
	}
	a0, err := sccl.EncodeAlgorithm(results[0].Algorithm)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := sccl.EncodeAlgorithm(results[2].Algorithm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a0, a2) {
		t.Error("duplicate requests returned different algorithms")
	}
	// Invalid requests report per-index errors without sinking the batch.
	bad := append(reqs[:1:1], sccl.Request{Kind: sccl.Allgather, Budget: sccl.Budget{C: 1, S: 1, R: 1}})
	results, err = eng.SynthesizeAll(context.Background(), bad)
	if err == nil {
		t.Fatal("missing-topology request did not error")
	}
	if results[0] == nil || results[0].Status != sccl.Sat {
		t.Error("valid request in a failing batch was dropped")
	}
	if results[1] != nil {
		t.Error("invalid request produced a result")
	}
}

// TestEngineSynthesizeAllSessions checks the batched session routing: a
// batch of same-(topology, collective, C) requests differing only in
// budget, on a topology whose mega-base is warm, must be answered as
// exact-budget assumption probes of that one pooled base and still return
// results byte-identical to a session-less engine solving each request
// independently.
func TestEngineSynthesizeAllSessions(t *testing.T) {
	ring := sccl.Ring(4)
	budgets := []sccl.Budget{
		{C: 1, S: 1, R: 1}, // Unsat
		{C: 1, S: 2, R: 2}, // Unsat
		{C: 1, S: 2, R: 3}, // Unsat
		{C: 1, S: 3, R: 3}, // Sat
		{C: 1, S: 4, R: 4}, // Sat
	}
	reqs := make([]sccl.Request, len(budgets))
	for i, b := range budgets {
		reqs[i] = sccl.Request{Kind: sccl.Allgather, Topo: ring, Budget: b}
	}
	eng := sccl.NewEngine(sccl.EngineOptions{Workers: 4})
	defer eng.Close()
	if !eng.WarmMegaBase(ring, 0, 1, 4, 1) {
		t.Fatal("no mega-base for ring:4")
	}
	results, err := eng.SynthesizeAll(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if cs := eng.CacheStats(); cs.SessionProbes != len(reqs) {
		t.Errorf("batch of %d covered budgets answered %d by assumption push: %+v", len(reqs), cs.SessionProbes, cs)
	}
	plain := sccl.NewEngine(sccl.EngineOptions{NoSessions: true, DisableCache: true})
	for i, res := range results {
		want, err := plain.Synthesize(context.Background(), reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		if res == nil || res.Status != want.Status {
			t.Fatalf("request %d: session-batched %+v, independent %v", i, res, want.Status)
		}
		if want.Status != sccl.Sat {
			continue
		}
		a, err := sccl.EncodeAlgorithm(res.Algorithm)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sccl.EncodeAlgorithm(want.Algorithm)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("request %d: session-batched algorithm differs from independent solve", i)
		}
	}
	// A second identical batch is served from the algorithm cache.
	again, err := eng.SynthesizeAll(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range again {
		if !res.CacheHit {
			t.Errorf("request %d not served from cache on the second batch", i)
		}
	}
}

// TestEngineLibraryRoundTrip persists one engine's cache and serves a
// fresh engine from it without re-solving.
func TestEngineLibraryRoundTrip(t *testing.T) {
	ring := sccl.Ring(4)
	req := sccl.Request{Kind: sccl.Allgather, Topo: ring, Budget: sccl.Budget{C: 1, S: 3, R: 3}}
	unsatReq := sccl.Request{Kind: sccl.Allgather, Topo: ring, Budget: sccl.Budget{C: 1, S: 2, R: 2}}

	a := sccl.NewEngine(sccl.EngineOptions{})
	res, err := a.Synthesize(nil, req)
	if err != nil || res.Status != sccl.Sat {
		t.Fatalf("seed synthesis: %v %v", res, err)
	}
	if _, err := a.Synthesize(nil, unsatReq); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.SaveLibrary(&buf); err != nil {
		t.Fatal(err)
	}

	entries, err := sccl.DecodeLibrary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("library has %d entries, want 2", len(entries))
	}

	b := sccl.NewEngine(sccl.EngineOptions{})
	n, err := b.LoadLibrary(bytes.NewReader(buf.Bytes()))
	if err != nil || n != 2 {
		t.Fatalf("LoadLibrary: %d %v", n, err)
	}
	served, err := b.Synthesize(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if !served.CacheHit || served.Status != sccl.Sat {
		t.Errorf("library-loaded engine missed: hit=%v status=%v", served.CacheHit, served.Status)
	}
	want, err := sccl.EncodeAlgorithm(res.Algorithm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sccl.EncodeAlgorithm(served.Algorithm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Error("library-served algorithm differs from the original")
	}
	servedUnsat, err := b.Synthesize(nil, unsatReq)
	if err != nil {
		t.Fatal(err)
	}
	if !servedUnsat.CacheHit || servedUnsat.Status != sccl.Unsat {
		t.Errorf("library-loaded UNSAT missed: hit=%v status=%v", servedUnsat.CacheHit, servedUnsat.Status)
	}
	// Saving the second engine reproduces the same bytes: the library
	// format is stable and sorted.
	var buf2 bytes.Buffer
	if err := b.SaveLibrary(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("library save/load/save is not byte-stable")
	}
}

// TestEngineInstance covers the raw-instance path with a custom
// collective, including its cache.
func TestEngineInstance(t *testing.T) {
	eng := sccl.NewEngine(sccl.EngineOptions{})
	agv, err := sccl.AllgatherV(3, []int{2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	in := sccl.Instance{Coll: agv, Topo: sccl.FullyConnected(3), Steps: 2, Round: 3}
	res, err := eng.SynthesizeInstance(context.Background(), in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sccl.Sat {
		t.Fatalf("status %v", res.Status)
	}
	again, err := eng.SynthesizeInstance(context.Background(), in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Error("repeated instance missed the cache")
	}
}

// TestParetoDeterministicCounts pins ROADMAP item 0.1: at Workers 1 no
// scheduling decision depends on the wall clock, so fresh engines
// repeating one sweep probe, prune and learn identically. The dgx1 sweep
// is the small acceptance case; the amd sweep walks long Unsat chains
// where chain-top escalation (conflict-capped) and dominance pruning fire.
func TestParetoDeterministicCounts(t *testing.T) {
	type counts struct {
		probes, sessionProbes, coreSolves, prunedProbes int
		carried                                         int64
	}
	cases := []struct {
		name string
		req  sccl.ParetoRequest
		runs int
	}{
		{"dgx1-broadcast-k2", sccl.ParetoRequest{Kind: sccl.Broadcast, Topo: sccl.DGX1(), K: 2, MaxChunks: 6}, 5},
		{"amd-broadcast-k3", sccl.ParetoRequest{Kind: sccl.Broadcast, Topo: sccl.AMDZ52(), K: 3}, 3},
	}
	for _, tc := range cases {
		var first counts
		for run := 0; run < tc.runs; run++ {
			eng := sccl.NewEngine(sccl.EngineOptions{Workers: 1})
			res, err := eng.Pareto(context.Background(), tc.req)
			eng.Close()
			if err != nil {
				t.Fatalf("%s run %d: %v", tc.name, run, err)
			}
			st := res.Stats
			got := counts{st.Probes, st.SessionProbes, st.CoreSolves, st.PrunedProbes, st.CarriedLearnts}
			if got.sessionProbes == 0 || got.coreSolves == 0 {
				t.Fatalf("%s run %d never left the one-shot path: %+v", tc.name, run, st)
			}
			if run == 0 {
				first = got
			} else if got != first {
				t.Errorf("%s run %d: counts %+v differ from run 0's %+v", tc.name, run, got, first)
			}
		}
	}
}

// TestEngineSessionPool checks that a default Pareto sweep adopts a
// mega-base out of the engine's persistent pool (see
// synth.ParetoOptions.NoSessions), that frontiers stay byte-identical
// with sessions disabled at both worker counts, and that a closed engine
// degrades gracefully.
func TestEngineSessionPool(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) { testEngineSessionPool(t, workers) })
	}
}

func testEngineSessionPool(t *testing.T, workers int) {
	eng := sccl.NewEngine(sccl.EngineOptions{Workers: workers})
	req := sccl.ParetoRequest{Kind: sccl.Broadcast, Topo: sccl.BidirRing(6), K: 2, MaxSteps: 6, MaxChunks: 6}
	res, err := eng.Pareto(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Families == 0 || res.Stats.SessionProbes == 0 {
		t.Errorf("sweep never adopted the mega-base: %+v", res.Stats)
	}
	cs := eng.CacheStats()
	if cs.MegaSessions != 1 || cs.MegaEncodes != 1 || cs.SessionProbes != res.Stats.SessionProbes {
		t.Errorf("engine pool unused: %+v", cs)
	}
	// The engine aggregates the sweep's unsat-core counters.
	if res.Stats.CoreSolves == 0 {
		t.Errorf("session sweep produced no budget cores: %+v", res.Stats)
	}
	if cs.CoreSolves != res.Stats.CoreSolves || cs.PrunedProbes != res.Stats.PrunedProbes {
		t.Errorf("CacheStats cores %d/%d, want sweep's %d/%d",
			cs.CoreSolves, cs.PrunedProbes, res.Stats.CoreSolves, res.Stats.PrunedProbes)
	}
	// The same sweep with sessions disabled must match point for point
	// (fresh engine: the frontier cache would otherwise short-circuit).
	plain := sccl.NewEngine(sccl.EngineOptions{Workers: workers, NoSessions: true})
	reqOff := req
	reqOff.NoSessions = true
	want, err := plain.Pareto(context.Background(), reqOff)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(want.Points) {
		t.Fatalf("frontiers differ: %d vs %d points", len(res.Points), len(want.Points))
	}
	for i := range want.Points {
		g, w := res.Points[i], want.Points[i]
		g.SynthesisTime, w.SynthesisTime = 0, 0
		gb, err1 := json.Marshal(g)
		wb, err2 := json.Marshal(w)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if string(gb) != string(wb) {
			t.Errorf("point %d differs:\n sessions: %s\n one-shot: %s", i, gb, wb)
		}
	}
	// Engine-level NoSessions must disable sessions even when the request
	// does not ask for it.
	off := sccl.NewEngine(sccl.EngineOptions{Workers: workers, NoSessions: true})
	offRes, err := off.Pareto(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if offRes.Stats.SessionProbes != 0 || offRes.Stats.Families != 0 {
		t.Errorf("EngineOptions.NoSessions ignored by sweep: %+v", offRes.Stats)
	}
	// Close releases the pool; later sweeps still answer (one-shot path).
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	req2 := req
	req2.Topo = sccl.BidirRing(8)
	if _, err := eng.Pareto(context.Background(), req2); err != nil {
		t.Fatalf("sweep after Close: %v", err)
	}
}

// TestRequestFingerprintsStable pins the request, frontier and instance
// fingerprints of four requests. Saved libraries and daemon snapshots
// are keyed by these bytes (SaveLibrary writes them, LoadLibrary looks
// entries up by them), so any change to a key part — including the
// "enc=0" and "backend=cdcl" option literals — would make every
// previously saved library silently miss.
func TestRequestFingerprintsStable(t *testing.T) {
	eng := sccl.NewEngine(sccl.EngineOptions{Workers: 1})
	defer eng.Close()
	for _, tc := range []struct {
		name string
		req  sccl.Request
		want string
	}{
		{"dgx1 Allgather (1,2,2)", sccl.Request{Kind: sccl.Allgather, Topo: sccl.DGX1(), Budget: sccl.Budget{C: 1, S: 2, R: 2}}, "79015bb1c805169b777c7bea550cdd19"},
		{"ring:4 Broadcast (2,3,4)", sccl.Request{Kind: sccl.Broadcast, Topo: sccl.Ring(4), Root: 0, Budget: sccl.Budget{C: 2, S: 3, R: 4}}, "080a37b11e789b9362b35643146b2c7d"},
	} {
		got, err := eng.Fingerprint(tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: Fingerprint = %s, want %s", tc.name, got, tc.want)
		}
	}
	got, err := eng.ParetoFingerprint(sccl.ParetoRequest{Kind: sccl.Allgather, Topo: sccl.Ring(4), K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := "d59f8a86e20597077b19453890c11f4f"; got != want {
		t.Errorf("ring:4 Allgather K=1: ParetoFingerprint = %s, want %s", got, want)
	}
	coll, err := sccl.NewCollective(sccl.Allgather, 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.SynthesizeInstance(context.Background(), sccl.Instance{Coll: coll, Topo: sccl.Ring(4), Steps: 3, Round: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := "b6658f704ba897be4e1aeb5e659a0015"; res.Fingerprint != want {
		t.Errorf("ring:4 Allgather instance (1,3,3): fingerprint = %s, want %s", res.Fingerprint, want)
	}
}

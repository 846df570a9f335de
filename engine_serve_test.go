package sccl_test

import (
	"testing"

	sccl "repro"
)

// TestEngineFingerprint pins the serve-layer keying contract:
// Fingerprint matches the fingerprint Synthesize stamps on its Result,
// is insensitive to scheduling knobs (Workers), sensitive to the
// budget, and validates before hashing.
func TestEngineFingerprint(t *testing.T) {
	eng := sccl.NewEngine(sccl.EngineOptions{})
	defer eng.Close()
	req := sccl.Request{
		Kind: sccl.Allgather, Topo: sccl.BidirRing(4),
		Budget: sccl.Budget{C: 1, S: 2, R: 3},
	}
	fp, err := eng.Fingerprint(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Synthesize(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint != fp {
		t.Fatalf("Fingerprint = %s, but Synthesize keyed %s", fp, res.Fingerprint)
	}
	// The same request on an engine with a different worker-pool size
	// keys identically: Workers is scheduling, not semantics.
	other := sccl.NewEngine(sccl.EngineOptions{Workers: 3})
	defer other.Close()
	if fp2, err := other.Fingerprint(req); err != nil || fp2 != fp {
		t.Fatalf("Workers changed the fingerprint: %s vs %s (%v)", fp2, fp, err)
	}
	bigger := req
	bigger.Budget.R++
	if fp3, err := eng.Fingerprint(bigger); err != nil || fp3 == fp {
		t.Fatalf("budget change did not change the fingerprint (%v)", err)
	}
	invalid := req
	invalid.Topo = nil
	if _, err := eng.Fingerprint(invalid); err == nil {
		t.Fatal("Fingerprint accepted an invalid request")
	}

	// CachedEntry exposes the solved algorithm under that fingerprint.
	ent, ok := eng.CachedEntry(fp)
	if !ok {
		t.Fatalf("CachedEntry missing after solve")
	}
	if ent.Fingerprint != fp || ent.Status != sccl.Sat.String() || ent.Algorithm == nil {
		t.Fatalf("entry = %+v", ent)
	}
	if _, ok := eng.CachedEntry("nope"); ok {
		t.Fatal("CachedEntry invented an entry")
	}
}

// TestEngineParetoFingerprint pins that explicit bounds and the engine
// defaults they resolve to key identically — a serve client spelling
// out MaxSteps=P+2, MaxChunks=2P must hit the cache entry a defaulted
// sweep populated.
func TestEngineParetoFingerprint(t *testing.T) {
	eng := sccl.NewEngine(sccl.EngineOptions{})
	defer eng.Close()
	topo := sccl.BidirRing(4)
	defaulted := sccl.ParetoRequest{Kind: sccl.Allgather, Topo: topo, K: 1}
	explicit := defaulted
	explicit.MaxSteps = topo.P + 2
	explicit.MaxChunks = 2 * topo.P
	fpD, err := eng.ParetoFingerprint(defaulted)
	if err != nil {
		t.Fatal(err)
	}
	fpE, err := eng.ParetoFingerprint(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if fpD != fpE {
		t.Fatalf("defaulted and explicit bounds key differently: %s vs %s", fpD, fpE)
	}
	narrower := defaulted
	narrower.MaxSteps = 3
	if fpN, err := eng.ParetoFingerprint(narrower); err != nil || fpN == fpD {
		t.Fatalf("narrower bounds did not change the key (%v)", err)
	}
	if _, err := eng.ParetoFingerprint(sccl.ParetoRequest{Kind: sccl.Allgather}); err == nil {
		t.Fatal("ParetoFingerprint accepted a request without a topology")
	}
}

// TestCacheStatsDelta pins the snapshot-diff helper the serve daemon's
// windowed hit-ratio gauge is built on: counters subtract, gauges pass
// through, and a counter that appears to move backwards (engine swap)
// clamps to zero instead of wrapping.
func TestCacheStatsDelta(t *testing.T) {
	prev := sccl.CacheStats{Hits: 10, Misses: 4, MegaSessions: 2, Algorithms: 7}
	cur := sccl.CacheStats{Hits: 25, Misses: 5, MegaSessions: 3, Algorithms: 9}
	d := cur.Delta(prev)
	if d.Hits != 15 || d.Misses != 1 {
		t.Fatalf("delta counters = %d hits / %d misses, want 15/1", d.Hits, d.Misses)
	}
	if d.MegaSessions != 3 || d.Algorithms != 9 {
		t.Fatalf("gauges must pass through: %+v", d)
	}
	back := prev.Delta(cur) // counters went "backwards"
	if back.Hits != 0 || back.Misses != 0 {
		t.Fatalf("backwards delta must clamp to zero, got %+v", back)
	}
}

package synth

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/collective"
	"repro/internal/sat"
	"repro/internal/topology"
)

// TestSessionStatusMatchesOneShot probes a full (S, R) budget grid through
// one session per family and checks every answer — status and, on Sat, the
// extracted algorithm — against an independent one-shot solve. This is the
// contract that keeps the layered base encoder and encodePaper in lock
// step: any divergence in the budget layering shows up here as a status
// flip or a differing witness.
func TestSessionStatusMatchesOneShot(t *testing.T) {
	backend, ok := NewCDCLBackend().(SessionBackend)
	if !ok {
		t.Fatal("CDCL backend lost its SessionBackend implementation")
	}
	for _, topo := range []*topology.Topology{topology.Ring(4), topology.Line(4), topology.BidirRing(5)} {
		for _, kind := range []collective.Kind{collective.Allgather, collective.Broadcast} {
			for _, c := range []int{1, 2} {
				coll, err := collective.New(kind, topo.P, c, 0)
				if err != nil {
					t.Fatal(err)
				}
				fam := Family{Coll: coll, Topo: topo, MaxSteps: 6, MaxExtraRounds: 2}
				sess, err := backend.NewSession(fam, Options{})
				if err != nil {
					t.Fatal(err)
				}
				incremental := 0
				for s := 1; s <= 6; s++ {
					for r := s; r <= s+2; r++ {
						in := Instance{Coll: coll, Topo: topo, Steps: s, Round: r}
						one, err := Synthesize(in, Options{})
						if err != nil {
							t.Fatal(err)
						}
						got, err := sess.Solve(context.Background(), s, r, Options{})
						if err != nil {
							t.Fatalf("%s %v c=%d s=%d r=%d: %v", topo.Name, kind, c, s, r, err)
						}
						if got.Status != one.Status {
							t.Errorf("%s %v c=%d s=%d r=%d: session %v, one-shot %v",
								topo.Name, kind, c, s, r, got.Status, one.Status)
							continue
						}
						if got.Status == sat.Sat && !reflect.DeepEqual(got.Algorithm, one.Algorithm) {
							t.Errorf("%s %v c=%d s=%d r=%d: session algorithm differs from one-shot",
								topo.Name, kind, c, s, r)
						}
						if got.SessionProbe {
							incremental++
						}
					}
				}
				if incremental == 0 {
					t.Errorf("%s %v c=%d: no probe used the incremental path", topo.Name, kind, c)
				}
				if err := sess.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// frontierBytes serializes a frontier for byte comparison, zeroing the
// wall-clock SynthesisTime field that is inherently nondeterministic.
func frontierBytes(t *testing.T, pts []ParetoPoint) []byte {
	t.Helper()
	cp := append([]ParetoPoint(nil), pts...)
	for i := range cp {
		cp[i].SynthesisTime = 0
	}
	data, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestParetoSessionFrontiersByteIdentical is the acceptance check of the
// default path: sweeps that start one-shot and adopt the mega-base on
// their own Unsat count (see megaAdoptUnsats) return byte-identical
// frontiers (points and embedded algorithms) to the all-one-shot
// reference, for every worker count and both encodings — whether or not
// they adopt.
func TestParetoSessionFrontiersByteIdentical(t *testing.T) {
	cases := []struct {
		name   string
		kind   collective.Kind
		topo   *topology.Topology
		k      int
		adopts bool
	}{
		{"ring4-allgather", collective.Allgather, topology.Ring(4), 1, false},
		{"line4-broadcast", collective.Broadcast, topology.Line(4), 1, true},
		{"bidirring6-broadcast", collective.Broadcast, topology.BidirRing(6), 2, true},
	}
	for _, tc := range cases {
		for _, enc := range []Encoding{EncodingPaper, EncodingDirect} {
			base := ParetoOptions{K: tc.k, MaxSteps: 6, MaxChunks: 6, Instance: Options{Encoding: enc}}
			oneShot := base
			oneShot.NoSessions = true
			want, err := ParetoSynthesize(tc.kind, tc.topo, 0, oneShot)
			if err != nil {
				t.Fatal(err)
			}
			wantBytes := frontierBytes(t, want)
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%s/enc%d/w%d", tc.name, enc, workers)
				opts := base
				opts.Workers = workers
				var stats ParetoStats
				opts.Stats = &stats
				got, err := ParetoSynthesize(tc.kind, tc.topo, 0, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if gotBytes := frontierBytes(t, got); string(gotBytes) != string(wantBytes) {
					t.Errorf("%s: default-path frontier differs from one-shot\n got: %s\nwant: %s",
						name, gotBytes, wantBytes)
				}
				// The direct ablation encoding has no layered base: the pool
				// declines and the sweep stays one-shot.
				adopted := stats.SessionProbes > 0
				if want := tc.adopts && enc == EncodingPaper; adopted != want {
					t.Errorf("%s: adopted=%v (%d session probes, %d families), want %v",
						name, adopted, stats.SessionProbes, stats.Families, want)
				}
			}
		}
	}
}

// TestParetoSessionFrontierDGX1 mirrors the DGX-1 acceptance sweep: the
// session path must reproduce the bandwidth-optimal frontier exactly, with
// warm session reuse occurring on the Unsat chain.
func TestParetoSessionFrontierDGX1(t *testing.T) {
	base := ParetoOptions{K: 4, MaxSteps: 3, MaxChunks: 6}
	oneShot := base
	oneShot.NoSessions = true
	want, err := ParetoSynthesize(collective.Allgather, topology.DGX1(), 0, oneShot)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !want[len(want)-1].BandwidthOptimal {
		t.Fatalf("one-shot sweep should end bandwidth-optimal, got %v", want)
	}
	opts := base
	opts.Workers = 4
	var stats ParetoStats
	opts.Stats = &stats
	got, err := ParetoSynthesize(collective.Allgather, topology.DGX1(), 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if string(frontierBytes(t, got)) != string(frontierBytes(t, want)) {
		t.Errorf("session frontier differs from one-shot:\n got %v\nwant %v", got, want)
	}
	if stats.Families == 0 {
		t.Errorf("no families recorded: %+v", stats)
	}
}

// TestSessionLifecycle checks the probe-by-probe reporting: lazy adoption
// one-shots the first probes, the incremental path marks warmth and
// carried clauses, a step past the window re-bases cold, and out-of-class
// budgets fall back without touching the solver.
func TestSessionLifecycle(t *testing.T) {
	topo := topology.Ring(5)
	coll, err := collective.New(collective.Broadcast, topo.P, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	fam := Family{Coll: coll, Topo: topo, MaxSteps: 8, MaxExtraRounds: 2}
	sess, err := NewCDCLBackend().(SessionBackend).NewSession(fam, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()
	solve := func(s, r int) Result {
		t.Helper()
		res, err := sess.Solve(ctx, s, r, Options{})
		if err != nil {
			t.Fatalf("solve s=%d r=%d: %v", s, r, err)
		}
		return res
	}
	if res := solve(4, 4); res.SessionProbe {
		t.Errorf("probe 1 should one-shot under lazy adoption: %+v", res)
	}
	if res := solve(4, 5); res.SessionProbe {
		t.Errorf("probe 2 should one-shot under lazy adoption: %+v", res)
	}
	res3 := solve(4, 6)
	if !res3.SessionProbe || res3.SessionWarm {
		t.Errorf("probe 3 should be the cold incremental adoption: %+v", res3)
	}
	res4 := solve(5, 5) // within the horizon window (4 + stepSlack)
	if !res4.SessionProbe || !res4.SessionWarm {
		t.Errorf("probe 4 should reuse the warm solver: %+v", res4)
	}
	if res4.CarriedLearnts < 0 {
		t.Errorf("negative carried learnts: %+v", res4)
	}
	res5 := solve(7, 8) // past the window: re-base
	if !res5.SessionProbe || res5.SessionWarm {
		t.Errorf("probe 5 should re-base cold: %+v", res5)
	}
	// R outside the family's k-synchronous class: falls back one-shot but
	// still answers correctly.
	res6 := solve(4, 8)
	if res6.SessionProbe {
		t.Errorf("out-of-class budget should one-shot: %+v", res6)
	}
	one, err := Synthesize(Instance{Coll: coll, Topo: topo, Steps: 4, Round: 8}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res6.Status != one.Status {
		t.Errorf("out-of-class status %v != one-shot %v", res6.Status, one.Status)
	}
	// A closed session keeps answering via one-shot fallback.
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	resClosed := solve(4, 4)
	if resClosed.SessionProbe {
		t.Errorf("closed session should one-shot: %+v", resClosed)
	}
}

// TestSessionPool exercises get-or-create, LRU eviction, and close.
func TestSessionPool(t *testing.T) {
	topo := topology.Ring(4)
	pool := NewSessionPool()
	pool.cap = 1
	famFor := func(c int) Family {
		coll, err := collective.New(collective.Allgather, topo.P, c, 0)
		if err != nil {
			t.Fatal(err)
		}
		return Family{Coll: coll, Topo: topo, MaxSteps: 5, MaxExtraRounds: 1}
	}
	s1, err := pool.Session(famFor(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := pool.Session(famFor(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s1 != again {
		t.Error("same family should return the pooled session")
	}
	if hits, misses := pool.Stats(); hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", hits, misses)
	}
	// Capacity 1: a second family evicts the first.
	if _, err := pool.Session(famFor(2), Options{}); err != nil {
		t.Fatal(err)
	}
	if pool.Len() != 1 {
		t.Errorf("pool kept %d sessions past capacity 1", pool.Len())
	}
	// The evicted session still answers (one-shot fallback).
	res, err := s1.Solve(context.Background(), 3, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SessionProbe {
		t.Errorf("evicted session should one-shot: %+v", res)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Session(famFor(1), Options{}); err == nil {
		t.Error("closed pool should refuse new sessions")
	}
}

// TestSessionPoolKeyedByOptions checks that lowering-relevant options
// separate sessions: a symmetry-broken base must not serve probes that
// asked for the unbroken encoding.
func TestSessionPoolKeyedByOptions(t *testing.T) {
	topo := topology.Ring(4)
	coll, err := collective.New(collective.Allgather, topo.P, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	fam := Family{Coll: coll, Topo: topo, MaxSteps: 5, MaxExtraRounds: 1}
	pool := NewSessionPool()
	defer pool.Close()
	a, err := pool.Session(fam, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.Session(fam, Options{NoSymmetryBreak: true})
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("options with different lowering must get distinct sessions")
	}
}

// TestFamilyValidate covers the family coherence checks.
func TestFamilyValidate(t *testing.T) {
	topo := topology.Ring(4)
	ag, err := collective.New(collective.Allgather, topo.P, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	red, err := collective.New(collective.Reduce, topo.P, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Family{
		{},
		{Coll: ag},
		{Coll: ag, Topo: topo}, // MaxSteps 0
		{Coll: ag, Topo: topo, MaxSteps: 3, MaxExtraRounds: -1}, // negative k
		{Coll: red, Topo: topo, MaxSteps: 3},                    // combining
		{Coll: ag, Topo: topology.Ring(5), MaxSteps: 3},         // P mismatch
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("family %d should fail validation", i)
		}
	}
	if err := (Family{Coll: ag, Topo: topo, MaxSteps: 3}).Validate(); err != nil {
		t.Errorf("valid family rejected: %v", err)
	}
}

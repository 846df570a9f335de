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
// one kind-scoped session per topology and checks every answer — status
// and, on Sat, the extracted algorithm — against an independent one-shot
// solve. This is the contract that keeps the layered base and encodePaper
// in lock step: any divergence in the budget layering shows up here as a
// status flip or a differing witness. (TestMegaStatusMatchesOneShot runs
// the same grid over all-kinds universes.)
func TestSessionStatusMatchesOneShot(t *testing.T) {
	kinds := []collective.Kind{collective.Allgather, collective.Broadcast}
	for _, topo := range []*topology.Topology{topology.Ring(4), topology.Line(4), topology.BidirRing(5)} {
		mega := NewMegaSession(topo, 0, Options{}, kinds, 2, 6, 2)
		if mega == nil {
			t.Fatalf("%s: no session", topo.Name)
		}
		for _, kind := range kinds {
			for _, c := range []int{1, 2} {
				coll, err := collective.New(kind, topo.P, c, 0)
				if err != nil {
					t.Fatal(err)
				}
				sess := mega.View(coll)
				if sess == nil {
					t.Fatalf("%s %v c=%d: no view", topo.Name, kind, c)
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
						if got.SessionProbes != 0 {
							incremental++
						}
					}
				}
				if incremental == 0 {
					t.Errorf("%s %v c=%d: no probe used the incremental path", topo.Name, kind, c)
				}
			}
		}
		if err := mega.Close(); err != nil {
			t.Fatal(err)
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
// reference, for every worker count — whether or not they adopt.
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
		base := ParetoOptions{K: tc.k, MaxSteps: 6, MaxChunks: 6}
		oneShot := base
		oneShot.NoSessions = true
		want, err := ParetoSynthesize(tc.kind, tc.topo, 0, oneShot)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes := frontierBytes(t, want)
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("%s/w%d", tc.name, workers)
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
			if adopted := stats.SessionProbes > 0; adopted != tc.adopts {
				t.Errorf("%s: adopted=%v (%d session probes, %d families), want %v",
					name, adopted, stats.SessionProbes, stats.Families, tc.adopts)
			}
		}
	}
}

// TestParetoSessionFrontierDGX1 checks a DGX-1 sweep that adopts the
// mega-base: the session path must reproduce the one-shot frontier
// exactly, with warm session reuse occurring on the Unsat chain. Rooted
// Broadcast gets no node-symmetry plan, so its Unsat chain adopts the
// mega-base on the default path; its bandwidth bound (R/C >= 1/6) lies
// past any cheap chunk cap, so the one-shot frontier is only required to
// walk past the latency point.
func TestParetoSessionFrontierDGX1(t *testing.T) {
	base := ParetoOptions{K: 2, MaxChunks: 6}
	oneShot := base
	oneShot.NoSessions = true
	want, err := ParetoSynthesize(collective.Broadcast, topology.DGX1(), 0, oneShot)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 2 || want[len(want)-1].C != base.MaxChunks {
		t.Fatalf("one-shot sweep should walk the chain to C=%d, got %v", base.MaxChunks, want)
	}
	opts := base
	opts.Workers = 4
	var stats ParetoStats
	opts.Stats = &stats
	got, err := ParetoSynthesize(collective.Broadcast, topology.DGX1(), 0, opts)
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

// TestSessionLifecycle checks the probe-by-probe reporting of a session
// view: the first probe builds the base cold, later ones reuse the warm
// solver and report carried clauses, out-of-window and out-of-class
// budgets fall back one-shot without touching it, and a closed session
// keeps answering one-shot.
func TestSessionLifecycle(t *testing.T) {
	topo := topology.Ring(5)
	coll, err := collective.New(collective.Broadcast, topo.P, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	mega := NewMegaSession(topo, 0, Options{}, []collective.Kind{collective.Broadcast}, 2, 6, 2)
	if mega == nil {
		t.Fatal("no session")
	}
	defer mega.Close()
	sess := mega.View(coll)
	if sess == nil {
		t.Fatal("no view")
	}
	ctx := context.Background()
	solve := func(s, r int) Result {
		t.Helper()
		res, err := sess.Solve(ctx, s, r, Options{})
		if err != nil {
			t.Fatalf("solve s=%d r=%d: %v", s, r, err)
		}
		one, err := Synthesize(Instance{Coll: coll, Topo: topo, Steps: s, Round: r}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != one.Status {
			t.Errorf("s=%d r=%d: session %v, one-shot %v", s, r, res.Status, one.Status)
		}
		return res
	}
	res1 := solve(4, 4)
	if res1.SessionProbes != 1 || res1.SessionReuses != 0 || res1.MegaEncodes != 1 {
		t.Errorf("probe 1 should build the base cold: %+v", res1)
	}
	res2 := solve(4, 5)
	if res2.SessionProbes != 1 || res2.SessionReuses != 1 || res2.MegaEncodes != 0 {
		t.Errorf("probe 2 should reuse the warm solver: %+v", res2)
	}
	if res3 := solve(5, 5); res3.SessionReuses != 1 || res3.CarriedLearnts < res2.CarriedLearnts {
		t.Errorf("probe 3 lost carried learnts: %+v after %+v", res3, res2)
	}
	// Past the step window, and R outside the k-synchronous class: both
	// fall back one-shot but still answer correctly.
	if res := solve(7, 8); res.SessionProbes != 0 {
		t.Errorf("out-of-window budget should one-shot: %+v", res)
	}
	if res := solve(4, 8); res.SessionProbes != 0 {
		t.Errorf("out-of-class budget should one-shot: %+v", res)
	}
	if encodes, selects := mega.Stats(); encodes != 1 || selects != 3 {
		t.Errorf("session counted %d encodes / %d selects, want 1 / 3", encodes, selects)
	}
	// A closed session keeps answering via one-shot fallback, and hands
	// out no new views.
	if err := mega.Close(); err != nil {
		t.Fatal(err)
	}
	if res := solve(4, 4); res.SessionProbes != 0 {
		t.Errorf("closed session should one-shot: %+v", res)
	}
	if mega.View(coll) != nil {
		t.Error("closed session handed out a view")
	}
}

// TestSessionPool exercises get-or-create, growth, LRU eviction, and
// close of the pool's mega-base sessions.
func TestSessionPool(t *testing.T) {
	pool := NewSessionPool()
	bc := []collective.Kind{collective.Broadcast}
	ring := topology.Ring(4)
	if pool.Mega(ring, 0, Options{}, bc, 2, 5, 1, false) != nil {
		t.Error("warm lookup on an empty pool built a session")
	}
	m1 := pool.Mega(ring, 0, Options{}, bc, 2, 5, 1, true)
	if m1 == nil {
		t.Fatal("no session")
	}
	if again := pool.Mega(ring, 0, Options{}, bc, 1, 4, 0, false); again != m1 {
		t.Error("covered bounds should return the pooled session")
	}
	// Wider bounds and another kind: replaced by one session covering the
	// union, and the outgrown one is closed.
	if pool.Mega(ring, 0, Options{}, []collective.Kind{collective.Allgather}, 3, 5, 1, false) != nil {
		t.Error("warm lookup returned a session that does not cover the request")
	}
	m2 := pool.Mega(ring, 0, Options{}, []collective.Kind{collective.Allgather}, 3, 5, 1, true)
	if m2 == nil || m2 == m1 || !m2.Covers(bc, 2, 5, 1) || pool.MegaLen() != 1 {
		t.Fatalf("grown session must cover old and new bounds (len %d)", pool.MegaLen())
	}
	coll, err := collective.New(collective.Broadcast, ring.P, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m1.View(coll) != nil {
		t.Error("replaced session still hands out views")
	}
	// Past megaPoolCap the least recently used topology is evicted.
	for n := 5; n < 5+megaPoolCap; n++ {
		if pool.Mega(topology.Ring(n), 0, Options{}, bc, 1, n, 0, true) == nil {
			t.Fatalf("ring:%d: no session", n)
		}
	}
	if pool.MegaLen() != megaPoolCap {
		t.Errorf("pool kept %d sessions past capacity %d", pool.MegaLen(), megaPoolCap)
	}
	if pool.Mega(ring, 0, Options{}, bc, 1, 4, 0, false) != nil {
		t.Error("least recently used session survived eviction")
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if pool.Mega(ring, 0, Options{}, bc, 1, 4, 0, true) != nil {
		t.Error("closed pool should refuse new sessions")
	}
}

// TestSessionPoolKeyedByOptions checks that lowering-relevant options
// separate sessions — a symmetry-broken base must not serve probes that
// asked for the unbroken encoding — that node symmetry, which no base
// takes, does not, and that proof recording, which no base can serve,
// is declined.
func TestSessionPoolKeyedByOptions(t *testing.T) {
	topo := topology.Ring(4)
	bc := []collective.Kind{collective.Broadcast}
	pool := NewSessionPool()
	defer pool.Close()
	a := pool.Mega(topo, 0, Options{}, bc, 1, 5, 1, true)
	b := pool.Mega(topo, 0, Options{NoSymmetryBreak: true}, bc, 1, 5, 1, true)
	if a == nil || b == nil || a == b {
		t.Error("options with different lowering must get distinct sessions")
	}
	// The base never takes node symmetry, so opting out of it lowers the
	// same formula and shares the session.
	if n := pool.Mega(topo, 0, Options{NoSymmetryBreaking: true}, bc, 1, 5, 1, true); n != a {
		t.Error("NoSymmetryBreaking must share the default session")
	}
	if other := pool.Mega(topo, 1, Options{}, bc, 1, 5, 1, true); other == nil || other == a {
		t.Error("a different root must get its own session")
	}
	if pool.Mega(topo, 0, Options{ProveUnsat: true}, bc, 1, 5, 1, true) != nil {
		t.Error("proof recording: pool built a mega-base it cannot serve")
	}
}

// TestFamilyValidate covers the family coherence checks of a session: a
// view exists exactly for the non-combining families on the session's
// topology that its universe can host.
func TestFamilyValidate(t *testing.T) {
	topo := topology.Ring(4)
	mega := NewMegaSession(topo, 0, Options{}, []collective.Kind{collective.Allgather}, 2, 3, 0)
	if mega == nil {
		t.Fatal("no session")
	}
	defer mega.Close()
	mk := func(kind collective.Kind, p, c int) *collective.Spec {
		coll, err := collective.New(kind, p, c, 0)
		if err != nil {
			t.Fatal(err)
		}
		return coll
	}
	bad := map[string]*collective.Spec{
		"nil collective":   nil,
		"combining":        mk(collective.Reduce, topo.P, 1),
		"P mismatch":       mk(collective.Allgather, 5, 1),
		"out-of-scope":     mk(collective.Scatter, topo.P, 1),
		"past the C bound": mk(collective.Allgather, topo.P, 3),
	}
	for name, coll := range bad {
		if mega.View(coll) != nil {
			t.Errorf("%s: session handed out a view", name)
		}
	}
	if mega.View(mk(collective.Allgather, topo.P, 2)) == nil {
		t.Error("valid family rejected")
	}
	var none *MegaSession
	if none.View(mk(collective.Allgather, topo.P, 1)) != nil || none.Covers(nil, 1, 1, 0) {
		t.Error("nil session must cover and host nothing")
	}
}

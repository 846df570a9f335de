package synth

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/collective"
	"repro/internal/sat"
	"repro/internal/topology"
)

// megaKinds is the multi-family sweep the mega-base acceptance tests run:
// every family of every kind must project onto the one shared base.
var megaKinds = []collective.Kind{
	collective.Gather, collective.Allgather, collective.Alltoall,
	collective.Broadcast, collective.Scatter,
}

// TestMegaStatusMatchesOneShot probes a full (S, R) budget grid of several
// families through views of one shared mega-base session and checks every
// answer — status and, on Sat, the extracted algorithm — against an
// independent one-shot solve. This is the soundness contract of the
// chunk-activation projection: assuming a family's activation row over
// the union base must be equisatisfiable with encoding the family alone.
func TestMegaStatusMatchesOneShot(t *testing.T) {
	for _, topo := range []*topology.Topology{topology.Ring(4), topology.BidirRing(5)} {
		mega := NewMegaSession(topo, 0, Options{}, nil, 2, 6, 2)
		if mega == nil {
			t.Fatalf("%s: no mega session", topo.Name)
		}
		megaProbes := 0
		for _, kind := range megaKinds {
			for _, c := range []int{1, 2} {
				coll, err := collective.New(kind, topo.P, c, 0)
				if err != nil {
					t.Fatal(err)
				}
				v := mega.View(coll)
				if v == nil {
					t.Fatalf("%s %v c=%d: universe cannot host the family", topo.Name, kind, c)
				}
				for s := 1; s <= 6; s++ {
					for r := s; r <= s+2; r++ {
						in := Instance{Coll: coll, Topo: topo, Steps: s, Round: r}
						one, err := Synthesize(in, Options{})
						if err != nil {
							t.Fatal(err)
						}
						got, err := v.Solve(context.Background(), s, r, Options{})
						if err != nil {
							t.Fatalf("%s %v c=%d s=%d r=%d: %v", topo.Name, kind, c, s, r, err)
						}
						if got.Status != one.Status {
							t.Errorf("%s %v c=%d s=%d r=%d: mega %v, one-shot %v",
								topo.Name, kind, c, s, r, got.Status, one.Status)
							continue
						}
						if got.Status == sat.Sat && !reflect.DeepEqual(got.Algorithm, one.Algorithm) {
							t.Errorf("%s %v c=%d s=%d r=%d: mega algorithm differs from one-shot",
								topo.Name, kind, c, s, r)
						}
						if got.SessionProbes != 0 {
							megaProbes++
						}
					}
				}
			}
		}
		if megaProbes == 0 {
			t.Errorf("%s: no probe used the mega-base path", topo.Name)
		}
		encodes, selects := mega.Stats()
		if encodes != 1 {
			t.Errorf("%s: %d base encodes for the whole grid, want exactly 1", topo.Name, encodes)
		}
		if selects == 0 {
			t.Errorf("%s: no assumption selects recorded", topo.Name)
		}
		if err := mega.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMegaFrontiersByteIdentical is the acceptance check of ISSUE 8: a
// multi-family sweep routed through one mega-base returns frontiers
// byte-identical to the sessionless path, per kind, across worker counts
// and on both acceptance topologies.
func TestMegaFrontiersByteIdentical(t *testing.T) {
	cases := []struct {
		name      string
		topo      *topology.Topology
		kinds     []collective.Kind
		k         int
		maxSteps  int
		maxChunks int
	}{
		// bidir-ring:10 — eccentricity 5, so frontiers start at S=5.
		{"bidir-ring10", topology.BidirRing(10), []collective.Kind{collective.Allgather, collective.Broadcast}, 1, 5, 2},
		{"dgx1", topology.DGX1(), []collective.Kind{collective.Allgather, collective.Scatter}, 2, 2, 2},
	}
	for _, tc := range cases {
		want := map[collective.Kind]string{}
		for _, kind := range tc.kinds {
			pts, err := ParetoSynthesize(kind, tc.topo, 0, ParetoOptions{
				K: tc.k, MaxSteps: tc.maxSteps, MaxChunks: tc.maxChunks,
				NoSessions: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			want[kind] = string(frontierBytes(t, pts))
		}
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("%s/w%d", tc.name, workers)
			var stats ParetoStats
			got, err := ParetoSynthesizeKinds(tc.kinds, tc.topo, 0, ParetoOptions{
				K: tc.k, MaxSteps: tc.maxSteps, MaxChunks: tc.maxChunks,
				Workers: workers, Stats: &stats,
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, kind := range tc.kinds {
				if gb := string(frontierBytes(t, got[kind])); gb != want[kind] {
					t.Errorf("%s %v: mega frontier differs from -no-sessions\n got: %s\nwant: %s",
						name, kind, gb, want[kind])
				}
			}
			if stats.SessionProbes == 0 {
				t.Errorf("%s: no probe used the mega-base path (%+v)", name, stats)
			}
			if stats.MegaEncodes > 1 {
				t.Errorf("%s: %d mega-base encodes for one sweep, want at most 1", name, stats.MegaEncodes)
			}
		}
	}
}

// TestMegaCoreReverifies checks the mega-base's Unsat evidence against
// fresh solvers: every budget core produced by a mega probe — including
// its dominance claims over cheaper budgets — must re-verify on a
// one-shot solve that shares nothing with the session.
func TestMegaCoreReverifies(t *testing.T) {
	topo := topology.BidirRing(6)
	mega := NewMegaSession(topo, 0, Options{}, nil, 2, 5, 1)
	if mega == nil {
		t.Fatal("no mega session")
	}
	defer mega.Close()
	cores := 0
	for _, kind := range []collective.Kind{collective.Allgather, collective.Broadcast} {
		for _, c := range []int{1, 2} {
			coll, err := collective.New(kind, topo.P, c, 0)
			if err != nil {
				t.Fatal(err)
			}
			v := mega.View(coll)
			if v == nil {
				t.Fatalf("%v c=%d: no view", kind, c)
			}
			for s := 1; s <= 5; s++ {
				for r := s; r <= s+1; r++ {
					got, err := v.Solve(context.Background(), s, r, Options{})
					if err != nil {
						t.Fatal(err)
					}
					if got.Status != sat.Unsat || got.Core == nil {
						continue
					}
					cores++
					reverify := func(s2, r2 int) {
						t.Helper()
						in := Instance{Coll: coll, Topo: topo, Steps: s2, Round: r2}
						one, err := Synthesize(in, Options{})
						if err != nil {
							t.Fatal(err)
						}
						if one.Status != sat.Unsat {
							t.Errorf("%v c=%d: core %v claims S=%d R=%d Unsat but fresh one-shot says %v",
								kind, c, got.Core, s2, r2, one.Status)
						}
					}
					// The probe's own budget must re-verify.
					reverify(s, r)
					// So must everything the core claims dominance over.
					if got.Core.DominatesSteps() && s > 1 {
						reverify(s-1, r-1)
					}
					if got.Core.DominatesRounds() && r > s {
						reverify(s, r-1)
					}
				}
			}
		}
	}
	if cores == 0 {
		t.Error("grid produced no Unsat cores to re-verify")
	}
}

// TestMegaUniverseMapping pins the layout contract: family chunks map
// onto a prefix of each signature group in ascending order — the property
// the symmetry-breaking compatibility argument rests on — and families
// beyond the universe bounds are declined rather than mis-mapped.
func TestMegaUniverseMapping(t *testing.T) {
	topo := topology.Ring(4)
	uni := buildMegaUniverse(topo.P, 0, nil, 2)
	if uni == nil {
		t.Fatal("no universe")
	}
	for _, kind := range megaKinds {
		for c := 1; c <= 2; c++ {
			coll, err := collective.New(kind, topo.P, c, 0)
			if err != nil {
				t.Fatal(err)
			}
			mapping := uni.mapFamily(coll)
			if mapping == nil {
				t.Fatalf("%v c=%d: unmapped", kind, c)
			}
			seen := map[int]bool{}
			next := map[string]int{}
			for fc, mc := range mapping {
				if seen[mc] {
					t.Fatalf("%v c=%d: chunk %d mapped twice", kind, c, mc)
				}
				seen[mc] = true
				s := chunkSig(coll, fc)
				if chunkSig(uni.spec, mc) != s {
					t.Fatalf("%v c=%d: chunk %d mapped across signatures", kind, c, fc)
				}
				if want := uni.sigOffset[s] + next[s]; mc != want {
					t.Fatalf("%v c=%d: chunk %d mapped to %d, want prefix slot %d", kind, c, fc, mc, want)
				}
				next[s]++
			}
		}
	}
	// A chunk count past the universe bound must decline, not mis-map.
	big, err := collective.New(collective.Allgather, topo.P, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if uni.mapFamily(big) != nil {
		t.Error("universe for maxChunks=2 mapped a C=3 family")
	}
}

// TestMegaKindScope pins the scoped-universe contract: a session built
// for a declared kind set sizes its universe to those kinds only, covers
// exactly sweeps over subsets of them, and declines (rather than
// mis-maps) families whose signatures the scoped universe lacks.
func TestMegaKindScope(t *testing.T) {
	topo := topology.BidirRing(6)
	scoped := NewMegaSession(topo, 0, Options{},
		[]collective.Kind{collective.Broadcast, collective.Scatter}, 2, 4, 1)
	if scoped == nil {
		t.Fatal("no scoped mega session")
	}
	defer scoped.Close()
	all := NewMegaSession(topo, 0, Options{}, nil, 2, 4, 1)
	if all == nil {
		t.Fatal("no all-kinds mega session")
	}
	defer all.Close()
	if g, a := scoped.uni.spec.G, all.uni.spec.G; g >= a {
		t.Errorf("scoped universe has %d chunks, all-kinds %d — scoping saved nothing", g, a)
	}
	if !scoped.Covers([]collective.Kind{collective.Scatter}, 2, 4, 1) {
		t.Error("scoped session does not cover a subset sweep")
	}
	if scoped.Covers([]collective.Kind{collective.Alltoall}, 2, 4, 1) {
		t.Error("scoped session claims to cover an out-of-scope kind")
	}
	if scoped.Covers(nil, 2, 4, 1) {
		t.Error("scoped session claims to cover the all-kinds scope")
	}
	if !all.Covers(nil, 2, 4, 1) || !all.Covers([]collective.Kind{collective.Alltoall}, 2, 4, 1) {
		t.Error("all-kinds session must cover every scope within bounds")
	}
	a2a, err := collective.New(collective.Alltoall, topo.P, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if scoped.View(a2a) != nil {
		t.Error("scoped universe hosted an Alltoall family its signatures cannot represent")
	}
	// The scoped session still answers its own kinds soundly.
	coll, err := collective.New(collective.Broadcast, topo.P, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	v := scoped.View(coll)
	if v == nil {
		t.Fatal("scoped universe cannot host its own kind")
	}
	for s := 2; s <= 4; s++ {
		one, err := Synthesize(Instance{Coll: coll, Topo: topo, Steps: s, Round: s + 1}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := v.Solve(context.Background(), s, s+1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != one.Status {
			t.Errorf("s=%d: scoped mega says %v, one-shot %v", s, got.Status, one.Status)
		}
	}
}

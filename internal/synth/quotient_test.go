package synth

import (
	"reflect"
	"testing"

	"repro/internal/collective"
	"repro/internal/sat"
	"repro/internal/topology"
)

// quotientPlanFor builds the chunk-orbit quotient exactly as an emission
// would, with quotienting requested.
func quotientPlanFor(t *testing.T, topo *topology.Topology, coll *collective.Spec) *quotientPlan {
	t.Helper()
	enc := NewStagedEncoder(EncodePlan{
		Coll: coll, Topo: topo, Window: topo.Diameter() + 2, RoundHi: 1,
		Quotient: true,
	})
	return enc.quotientPlanOf()
}

// TestQuotientPlanStructure pins the planner's invariants on the
// acceptance fabrics: representatives are orbit minima, every
// non-representative carries a valid inverse node map that genuinely
// relates it to its representative through the instance data, and the
// torus translations collapse Allgather's chunks hard.
func TestQuotientPlanStructure(t *testing.T) {
	for _, topo := range nodeSymTopos() {
		coll, err := collective.New(collective.Allgather, topo.P, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		q := quotientPlanFor(t, topo, coll)
		if q == nil {
			t.Fatalf("%s allgather: no quotient plan", topo.Name)
		}
		if q.reps >= coll.G {
			t.Fatalf("%s: %d reps of %d chunks — nothing collapsed", topo.Name, q.reps, coll.G)
		}
		for c := 0; c < coll.G; c++ {
			r := q.rep[c]
			if r > c {
				t.Fatalf("chunk %d: representative %d is not the orbit minimum", c, r)
			}
			if r == c {
				if q.invNode[c] != nil || q.invEdge[c] != nil {
					t.Fatalf("representative %d carries alias maps", c)
				}
				continue
			}
			inv := topology.Perm(q.invNode[c])
			if !inv.Valid() {
				t.Fatalf("chunk %d: invalid inverse node map %v", c, inv)
			}
			// The aliasing contract: c's instance data is the image of its
			// representative's under the group element, i.e. reading rep at
			// the inverse-mapped node reproduces c's Pre/Post rows.
			for n := 0; n < topo.P; n++ {
				if coll.Pre[c][n] != coll.Pre[r][inv[n]] || coll.Post[c][n] != coll.Post[r][inv[n]] {
					t.Fatalf("%s chunk %d vs rep %d: instance data not invariant at node %d",
						topo.Name, c, r, n)
				}
			}
			for ei, ej := range q.invEdge[c] {
				if ej < 0 {
					t.Fatalf("%s chunk %d: edge %d has no automorphism image", topo.Name, c, ei)
				}
			}
		}
	}
}

// TestQuotientLiftValidates is the soundness property test and the
// symmetry on/off differential oracle: on every recognized
// non-combining family over small fabrics (P <= 8), a default synthesis
// — quotient first, then the guarded equivariance restriction — must
// agree on every probed budget with both the quotient-disabled status
// and the status of a solve with node symmetry off altogether, and every
// Sat witness — lifted from the collapsed formula by reading the aliased
// variables — must re-validate.
func TestQuotientLiftValidates(t *testing.T) {
	topos := []*topology.Topology{
		topology.BidirRing(6),
		topology.Ring(6),
		topology.Torus2D(2, 3),
		topology.DGX1(),
		topology.AMDZ52(),
		topology.Hypercube(3),
		topology.FullyConnected(4),
		topology.Line(5),
		topology.Star(5),
		mustFabric(t, "fat-tree:2:2:1:1"),
		mustFabric(t, "dragonfly:4:2:1"),
		mustFabric(t, "bus:4:1"),
		mustFabric(t, "multinode:bidir-ring:4:2:1:1"),
	}
	if !testing.Short() {
		// The slowest fabric here by far (about 2 s of the test).
		topos = append(topos, mustFabric(t, "torus3d:2x2x2"))
	}
	// Every kind at one chunk per node, plus Allgather at two chunks,
	// whose budgets straddle the Sat/Unsat boundary and so exercise the
	// quotient fallback and the guarded restriction's phases.
	fams := []struct {
		kind collective.Kind
		c    int
	}{
		{collective.Gather, 1}, {collective.Allgather, 1}, {collective.Alltoall, 1},
		{collective.Broadcast, 1}, {collective.Scatter, 1},
		{collective.Allgather, 2},
	}
	sawQuotient, sawFallback := false, false
	for _, topo := range topos {
		for _, fam := range fams {
			kind := fam.kind
			coll, err := collective.New(kind, topo.P, fam.c, 0)
			if err != nil {
				t.Fatal(err)
			}
			ecc := topo.Eccentricity(0)
			for s := ecc; s <= ecc+1; s++ {
				for r := s; r <= s+1; r++ {
					in := Instance{Coll: coll, Topo: topo, Steps: s, Round: r}
					on, err := Synthesize(in, Options{})
					if err != nil {
						t.Fatal(err)
					}
					for _, ref := range []struct {
						name string
						opts Options
					}{
						{"quotient-off", Options{NoQuotient: true}},
						{"symmetry-off", Options{NoSymmetryBreaking: true}},
					} {
						off, err := Synthesize(in, ref.opts)
						if err != nil {
							t.Fatal(err)
						}
						if on.Status != off.Status {
							t.Errorf("%s %v S=%d R=%d: default %v, %s %v",
								topo.Name, kind, s, r, on.Status, ref.name, off.Status)
						}
					}
					sawQuotient = sawQuotient || on.QuotientProbes > 0
					sawFallback = sawFallback || on.QuotientFallbacks > 0
					if on.Status == sat.Sat {
						if err := on.Algorithm.Validate(); err != nil {
							t.Errorf("%s %v S=%d R=%d: lifted witness invalid: %v",
								topo.Name, kind, s, r, err)
						}
					}
				}
			}
		}
	}
	if !sawQuotient || !sawFallback {
		t.Errorf("quotient answers seen %v, fallbacks seen %v — the property test missed a path", sawQuotient, sawFallback)
	}
}

// TestQuotientFallbackCountsBothSolves checks that a probe whose
// quotient attempt falls back to the full formula reports the search of
// both solves: more conflicts than the full formula's solve alone (the
// NoQuotient run of the same instance), while its path counters stay
// those of the full encode.
func TestQuotientFallbackCountsBothSolves(t *testing.T) {
	topo := topology.BidirRing(6)
	coll, err := collective.New(collective.Allgather, topo.P, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := Instance{Coll: coll, Topo: topo, Steps: 3, Round: 4}
	on, err := Synthesize(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Synthesize(in, Options{NoQuotient: true})
	if err != nil {
		t.Fatal(err)
	}
	if on.QuotientFallbacks != 1 || on.Status != sat.Unsat || off.Status != sat.Unsat {
		t.Fatalf("want an Unsat quotient fallback: on %v (fallbacks %d), off %v",
			on.Status, on.QuotientFallbacks, off.Status)
	}
	if on.Stats.Conflicts <= off.Stats.Conflicts {
		t.Errorf("fallback reports %d conflicts, the full solve alone %d: the quotient attempt's search is missing",
			on.Stats.Conflicts, off.Stats.Conflicts)
	}
	if on.SymmetryPerms != off.SymmetryPerms || on.Clauses != off.Clauses {
		t.Errorf("fallback path counters moved: perms %d clauses %d, full solve %d %d",
			on.SymmetryPerms, on.Clauses, off.SymmetryPerms, off.Clauses)
	}
}

// TestQuotientFrontierEquivalence is the acceptance contract at sweep
// scale: quotient-on frontiers must be identical (C, S, R) to
// quotient-off on the gated fabrics, across worker counts, and the
// quotient must actually fire on the transitive torus sweep.
func TestQuotientFrontierEquivalence(t *testing.T) {
	cases := []struct {
		topo      *topology.Topology
		kind      collective.Kind
		k         int
		maxSteps  int
		maxChunks int
		wantFire  bool
	}{
		{topology.BidirRing(10), collective.Broadcast, 1, 5, 2, false},
		{topology.Torus2D(6, 6), collective.Allgather, 1, 8, 1, true},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			var onStats, offStats ParetoStats
			on, err := ParetoSynthesize(tc.kind, tc.topo, 0, ParetoOptions{
				K: tc.k, MaxSteps: tc.maxSteps, MaxChunks: tc.maxChunks,
				Workers: workers, Stats: &onStats,
			})
			if err != nil {
				t.Fatal(err)
			}
			off, err := ParetoSynthesize(tc.kind, tc.topo, 0, ParetoOptions{
				K: tc.k, MaxSteps: tc.maxSteps, MaxChunks: tc.maxChunks,
				Workers: workers, Stats: &offStats,
				Instance: Options{NoQuotient: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			type pt struct{ C, S, R int }
			strip := func(pts []ParetoPoint) []pt {
				out := make([]pt, len(pts))
				for i, p := range pts {
					out[i] = pt{p.C, p.S, p.R}
				}
				return out
			}
			if !reflect.DeepEqual(strip(on), strip(off)) {
				t.Errorf("%s %v w%d: quotient-on frontier %v != quotient-off %v",
					tc.topo.Name, tc.kind, workers, strip(on), strip(off))
			}
			if offStats.QuotientProbes != 0 {
				t.Errorf("%s w%d: quotient-off run reported %d quotient probes",
					tc.topo.Name, workers, offStats.QuotientProbes)
			}
			if tc.wantFire && onStats.QuotientProbes == 0 {
				t.Errorf("%s %v w%d: quotient never answered a probe (fallbacks=%d declined=%d)",
					tc.topo.Name, tc.kind, workers, onStats.QuotientFallbacks, onStats.QuotientDeclined)
			}
		}
	}
}

// TestRestrictedPhaseConflicts pins the adaptive cap estimator's shape —
// bounds and monotonicity, not exact values, so clause-count drift in
// the encoder does not thrash the test.
func TestRestrictedPhaseConflicts(t *testing.T) {
	for _, clauses := range []int{0, 1, 5000, 200000, 10000000} {
		for _, order := range []int{-1, 0, 1, 2, 8, 72, 20000} {
			got := restrictedPhaseConflicts(clauses, order)
			if got < restrictedPhaseMinConflicts || got > restrictedPhaseMaxConflicts {
				t.Fatalf("cap(%d, %d) = %d outside [%d, %d]",
					clauses, order, got, restrictedPhaseMinConflicts, int64(restrictedPhaseMaxConflicts))
			}
		}
	}
	// More clauses never shrink the cap at fixed order.
	if a, b := restrictedPhaseConflicts(10000, 8), restrictedPhaseConflicts(1000000, 8); a > b {
		t.Errorf("cap not monotone in clauses: %d then %d", a, b)
	}
	// A larger (stronger) group never raises the cap at fixed size.
	if a, b := restrictedPhaseConflicts(1000000, 72), restrictedPhaseConflicts(1000000, 8); a > b {
		t.Errorf("cap not antitone in order: order 72 -> %d, order 8 -> %d", a, b)
	}
	// Tiny formulas keep the floor; an unenumerable group (order 0) is
	// treated as very strong, not as no group.
	if got := restrictedPhaseConflicts(1, 2); got != restrictedPhaseMinConflicts {
		t.Errorf("small formula cap = %d, want floor %d", got, restrictedPhaseMinConflicts)
	}
	if a, b := restrictedPhaseConflicts(1000000, 0), restrictedPhaseConflicts(1000000, 2); a > b {
		t.Errorf("unenumerable order cap %d exceeds weak-group cap %d", a, b)
	}
}

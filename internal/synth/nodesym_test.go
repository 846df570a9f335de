package synth

import (
	"context"
	"testing"

	"repro/internal/algorithm"
	"repro/internal/collective"
	"repro/internal/sat"
	"repro/internal/topology"
)

// nodeSymTopos are the acceptance topologies for node-orbit exploitation:
// vertex-transitive fabrics with non-trivial automorphism groups
// (dihedral for the ring, wreath-ish for the torus) whose generators
// include fixed-point-free ones, so unrooted collectives get a plan, and
// whose root stabilizers are non-trivial, so a rooted Gather gets one.
func nodeSymTopos() []*topology.Topology {
	return []*topology.Topology{topology.BidirRing(10), topology.Torus2D(3, 4)}
}

// planFor builds the node-symmetry plan exactly as an emission would.
func planFor(t *testing.T, topo *topology.Topology, coll *collective.Spec) *nodeSymPlan {
	t.Helper()
	enc := NewStagedEncoder(EncodePlan{
		Coll: coll, Topo: topo, Window: topo.Diameter() + 2, RoundHi: 1,
	})
	return enc.nodeSymPlan()
}

// TestNodeSymmetryPlanFound pins the plan rule, whatever the node count.
// An unrooted collective on a vertex-transitive fabric gets a plan built
// from fixed-point-free instance stabilizers only. A rooted Gather gets
// the root stabilizer: every kept generator fixes the root and moves a
// chunk. A rooted Broadcast gets none, since no root-fixing generator
// moves one of its chunks.
func TestNodeSymmetryPlanFound(t *testing.T) {
	for _, topo := range append(nodeSymTopos(), topology.BidirRing(5)) {
		ag, err := collective.New(collective.Allgather, topo.P, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		plan := planFor(t, topo, ag)
		if plan == nil || len(plan.perms) == 0 {
			t.Errorf("%s:%d allgather: no node-symmetry plan", topo.Name, topo.P)
		}
		// Every kept generator must move every node and genuinely
		// stabilize the instance: its induced class map sends each
		// signature class to an equal-size class whose signature is the
		// permuted image.
		if plan != nil {
			classes, sigs := chunkClasses(ag)
			for _, sp := range plan.perms {
				if len(sp.perm) != topo.P || !sp.perm.Valid() {
					t.Fatalf("%s: invalid generator %v", topo.Name, sp.perm)
				}
				if !fixedPointFree(sp.perm) {
					t.Errorf("%s: kept generator %v fixes a node", topo.Name, sp.perm)
				}
				if _, ok := nodeSymClassMap(sigs, classes, sp.perm); !ok {
					t.Errorf("%s: kept generator %v does not stabilize the instance", topo.Name, sp.perm)
				}
			}
		}
		ga, err := collective.New(collective.Gather, topo.P, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		plan = planFor(t, topo, ga)
		if plan == nil || len(plan.perms) == 0 {
			t.Errorf("%s:%d gather: no root-stabilizer plan", topo.Name, topo.P)
		} else {
			classes, sigs := chunkClasses(ga)
			for _, sp := range plan.perms {
				if sp.perm[0] != 0 || !movesChunk(sp.chunkMap) {
					t.Errorf("%s: gather generator %v moves the root or no chunk", topo.Name, sp.perm)
				}
				if _, ok := nodeSymClassMap(sigs, classes, sp.perm); !ok {
					t.Errorf("%s: gather generator %v does not stabilize the instance", topo.Name, sp.perm)
				}
			}
		}
		bc, err := collective.New(collective.Broadcast, topo.P, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if planFor(t, topo, bc) != nil {
			t.Errorf("%s:%d broadcast: rooted collective got a plan", topo.Name, topo.P)
		}
	}
}

// TestPinsRoot pins which instances count as rooted and so may take the
// root stabilizer: Gather, Scatter and Broadcast, never Allgather or an
// Alltoall, not even one whose chunk count breaks the fabric's symmetry.
func TestPinsRoot(t *testing.T) {
	for _, tc := range []struct {
		kind collective.Kind
		c    int
		want bool
	}{
		{collective.Gather, 2, true}, {collective.Scatter, 1, true}, {collective.Broadcast, 3, true},
		{collective.Allgather, 1, false}, {collective.Alltoall, 1, false}, {collective.Alltoall, 6, false},
	} {
		coll, err := collective.New(tc.kind, 6, tc.c, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got := pinsRoot(coll); got != tc.want {
			t.Errorf("%v C=%d: pinsRoot = %v, want %v", tc.kind, tc.c, got, tc.want)
		}
	}
}

// TestNodeSymmetryOrbitSoundness is the property the whole refinement
// rests on: applying an instance-stabilizing automorphism to a valid
// schedule yields a valid schedule. Witnesses are synthesized fresh,
// permuted by every plan generator (nodes via pi, chunks via the
// prepared chunk map), and re-validated. Gather covers the root
// stabilizer plans, Allgather and Alltoall the fixed-point-free ones
// (Broadcast gets no plan). A true Alltoall needs C = P, so its
// witnesses come from the small vertex-transitive fabrics, where the
// first Sat round count is found by walking R up from S+1.
func TestNodeSymmetryOrbitSoundness(t *testing.T) {
	type soundCase struct {
		topo *topology.Topology
		kind collective.Kind
		c    int
	}
	var cases []soundCase
	for _, topo := range nodeSymTopos() {
		cases = append(cases, soundCase{topo, collective.Allgather, 1}, soundCase{topo, collective.Gather, 1})
	}
	for _, topo := range []*topology.Topology{topology.BidirRing(6), topology.Torus2D(2, 3), topology.Hypercube(3)} {
		cases = append(cases, soundCase{topo, collective.Alltoall, topo.P})
	}
	for _, tc := range cases {
		topo, kind := tc.topo, tc.kind
		coll, err := collective.New(kind, topo.P, tc.c, 0)
		if err != nil {
			t.Fatal(err)
		}
		ecc := topo.Eccentricity(0)
		var res Result
		for r := ecc + 1; r <= ecc+3 && res.Status != sat.Sat; r++ {
			res, err = Synthesize(Instance{Coll: coll, Topo: topo, Steps: ecc, Round: r}, Options{})
			if err != nil {
				t.Fatal(err)
			}
		}
		if res.Status != sat.Sat {
			t.Fatalf("%s %v: expected Sat at S=%d within R<=%d, got %v", topo.Name, kind, ecc, ecc+3, res.Status)
		}
		plan := planFor(t, topo, coll)
		if plan == nil {
			t.Fatalf("%s %v: no plan", topo.Name, kind)
		}
		for pi, sp := range plan.perms {
			chunkOf := sp.chunkMap
			sends := make([]algorithm.Send, len(res.Algorithm.Sends))
			for i, s := range res.Algorithm.Sends {
				sends[i] = algorithm.Send{
					Chunk: chunkOf[s.Chunk],
					From:  topology.Node(sp.perm[s.From]),
					To:    topology.Node(sp.perm[s.To]),
					Step:  s.Step,
				}
			}
			permuted := algorithm.New(res.Algorithm.Name, coll, topo, res.Algorithm.Rounds, sends)
			if err := permuted.Validate(); err != nil {
				t.Errorf("%s %v perm %d (%v): permuted schedule invalid: %v",
					topo.Name, kind, pi, sp.perm, err)
			}
		}
	}
}

// TestNodeSymmetryStatusEquivalence is the phased-solve contract at
// fabric scale: the equivariance restriction may shrink the explored
// model set but never flips satisfiability. Budgets straddle the
// Sat/Unsat boundary so both the restricted-Sat and the
// guard-flipping-Unsat paths are exercised, and every Sat witness under
// the restriction re-validates.
func TestNodeSymmetryStatusEquivalence(t *testing.T) {
	for _, topo := range nodeSymTopos() {
		for _, kind := range []collective.Kind{collective.Allgather, collective.Gather, collective.Broadcast} {
			coll, err := collective.New(kind, topo.P, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			ecc := topo.Eccentricity(0)
			for s := ecc - 1; s <= ecc+1; s++ {
				for r := s; r <= s+1; r++ {
					in := Instance{Coll: coll, Topo: topo, Steps: s, Round: r}
					on, err := Synthesize(in, Options{})
					if err != nil {
						t.Fatal(err)
					}
					off, err := Synthesize(in, Options{NoSymmetryBreaking: true})
					if err != nil {
						t.Fatal(err)
					}
					if on.Status != off.Status {
						t.Errorf("%s %v S=%d R=%d: symmetry-on %v, symmetry-off %v",
							topo.Name, kind, s, r, on.Status, off.Status)
					}
					if on.Status == sat.Sat {
						if err := on.Algorithm.Validate(); err != nil {
							t.Errorf("%s %v S=%d R=%d: witness under breaking invalid: %v",
								topo.Name, kind, s, r, err)
						}
					}
				}
			}
		}
	}
}

// TestNodeSymmetrySessionAndMegaMatch checks the incremental path against
// the one-shot answer with node symmetry on: the mega-base takes no
// node symmetry (every session probe reports no generator), the one-shot
// solves of the same Allgather budgets do, and every status agrees. The
// one-shot side runs without the orbit quotient, which would otherwise
// carry its Sat budgets, so that its symmetry is the guarded phase.
func TestNodeSymmetrySessionAndMegaMatch(t *testing.T) {
	topo := topology.BidirRing(10)
	mega := NewMegaSession(topo, 0, Options{}, []collective.Kind{collective.Allgather, collective.Broadcast}, 1, 6, 1)
	if mega == nil {
		t.Fatal("no mega session")
	}
	defer mega.Close()
	for _, kind := range []collective.Kind{collective.Allgather, collective.Broadcast} {
		coll, err := collective.New(kind, topo.P, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		view := mega.View(coll)
		if view == nil {
			t.Fatalf("%v: no mega view", kind)
		}
		megaProbes, oneShotPerms := 0, 0
		for s := 4; s <= 6; s++ {
			for r := s; r <= s+1; r++ {
				in := Instance{Coll: coll, Topo: topo, Steps: s, Round: r}
				one, err := Synthesize(in, Options{NoQuotient: true})
				if err != nil {
					t.Fatal(err)
				}
				oneShotPerms += one.SymmetryPerms
				mg, err := view.Solve(context.Background(), s, r, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if mg.Status != one.Status {
					t.Errorf("%v S=%d R=%d: mega %v, one-shot %v", kind, s, r, mg.Status, one.Status)
				}
				if mg.SessionProbes != 0 {
					megaProbes++
					if mg.SymmetryPerms != 0 {
						t.Errorf("%v S=%d R=%d: mega probe reports %d node-symmetry generators, want 0",
							kind, s, r, mg.SymmetryPerms)
					}
				}
			}
		}
		if megaProbes == 0 {
			t.Errorf("%v: no probe used the mega path", kind)
		}
		if kind == collective.Allgather && oneShotPerms == 0 {
			t.Error("Allgather: the one-shot solves planted no node-symmetry generator")
		}
	}
}

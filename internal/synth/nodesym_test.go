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
// both at or above symmetryMinNodes, with non-trivial automorphism
// groups (dihedral for the ring, wreath-ish for the torus).
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

// TestNodeSymmetryPlanFound pins that the plan machinery actually finds
// instance-stabilizing generators on the acceptance topologies: an
// unrooted collective keeps full-group generators, a rooted one falls
// back to the root stabilizer rather than coming up empty.
func TestNodeSymmetryPlanFound(t *testing.T) {
	for _, topo := range nodeSymTopos() {
		ag, err := collective.New(collective.Allgather, topo.P, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		plan := planFor(t, topo, ag)
		if plan == nil || len(plan.perms) == 0 {
			t.Errorf("%s allgather: no node-symmetry plan", topo.Name)
		}
		bc, err := collective.New(collective.Broadcast, topo.P, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		plan = planFor(t, topo, bc)
		if plan == nil || len(plan.perms) == 0 {
			t.Errorf("%s broadcast: no root-stabilizer plan", topo.Name)
		}
		// Every kept generator must genuinely stabilize the instance: its
		// induced class map sends each signature class to an equal-size
		// class whose signature is the permuted image.
		if plan != nil {
			classes, sigs := chunkClasses(bc)
			for _, sp := range plan.perms {
				if len(sp.perm) != topo.P || !sp.perm.Valid() {
					t.Fatalf("%s: invalid generator %v", topo.Name, sp.perm)
				}
				if _, ok := nodeSymClassMap(sigs, classes, sp.perm); !ok {
					t.Errorf("%s: kept generator %v does not stabilize the instance", topo.Name, sp.perm)
				}
			}
		}
	}
	// Below the size threshold the plan must stay nil so small-instance
	// emissions (goldens, examples) are untouched.
	small := topology.BidirRing(5)
	ag, _ := collective.New(collective.Allgather, small.P, 1, 0)
	if planFor(t, small, ag) != nil {
		t.Error("bidir-ring:5 is below symmetryMinNodes but got a plan")
	}
}

// TestNodeSymmetryOrbitSoundness is the property the whole refinement
// rests on: applying an instance-stabilizing automorphism to a valid
// schedule yields a valid schedule. Witnesses are synthesized fresh,
// permuted by every plan generator (nodes via pi, chunks via the
// prepared chunk map), and re-validated.
func TestNodeSymmetryOrbitSoundness(t *testing.T) {
	for _, topo := range nodeSymTopos() {
		for _, kind := range []collective.Kind{collective.Allgather, collective.Broadcast} {
			coll, err := collective.New(kind, topo.P, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			ecc := topo.Eccentricity(0)
			in := Instance{Coll: coll, Topo: topo, Steps: ecc, Round: ecc + 1}
			res, err := Synthesize(in, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != sat.Sat {
				t.Fatalf("%s %v: expected Sat at S=%d R=%d, got %v", topo.Name, kind, ecc, ecc+1, res.Status)
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
}

// TestNodeSymmetryStatusEquivalence is the phased-solve contract at
// fabric scale: the equivariance restriction may shrink the explored
// model set but never flips satisfiability. Budgets straddle the
// Sat/Unsat boundary so both the restricted-Sat and the
// guard-flipping-Unsat paths are exercised, and every Sat witness under
// the restriction re-validates.
func TestNodeSymmetryStatusEquivalence(t *testing.T) {
	for _, topo := range nodeSymTopos() {
		for _, kind := range []collective.Kind{collective.Allgather, collective.Broadcast} {
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
// the one-shot answer with breaking active: the guard-conditioned mega-base
// session must answer every budget exactly like encodePaper does.
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
		megaProbes := 0
		for s := 4; s <= 6; s++ {
			for r := s; r <= s+1; r++ {
				in := Instance{Coll: coll, Topo: topo, Steps: s, Round: r}
				one, err := Synthesize(in, Options{})
				if err != nil {
					t.Fatal(err)
				}
				mg, err := view.Solve(context.Background(), s, r, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if mg.Status != one.Status {
					t.Errorf("%v S=%d R=%d: mega %v, one-shot %v", kind, s, r, mg.Status, one.Status)
				}
				if mg.SessionProbes != 0 {
					megaProbes++
				}
			}
		}
		if megaProbes == 0 {
			t.Errorf("%v: no probe used the mega path", kind)
		}
	}
	if mega.enc == nil || mega.enc.symPerms == 0 {
		t.Error("mega base should have node-symmetry generators after probing")
	}
}

package synth

import (
	"context"
	"fmt"
	"math/big"
	"testing"
	"time"

	"repro/internal/algorithm"
	"repro/internal/collective"
	"repro/internal/sat"
	"repro/internal/topology"
)

// asymmetricRing is a bidirectional 4-ring whose clockwise links carry
// twice the bandwidth of the counter-clockwise ones: the same links as
// its reverse, but not the same fabric.
func asymmetricRing() *topology.Topology {
	t := &topology.Topology{Name: "asym-ring:4", P: 4}
	for i := 0; i < 4; i++ {
		a, b := topology.Node(i), topology.Node((i+1)%4)
		t.Relations = append(t.Relations,
			topology.Relation{Links: []topology.Link{{Src: a, Dst: b}}, Bandwidth: 2},
			topology.Relation{Links: []topology.Link{{Src: b, Dst: a}}, Bandwidth: 1})
	}
	return t
}

// TestDualInstancesAndDuality: Reduce, Reducescatter and Allreduce on one
// fabric of every builder family with P <= 8 (all but dgx2; each equal to
// its reverse except the one-way ring), and on a ring with asymmetric
// bandwidth, are
// answered through DualInstances — one instance on topo itself exactly
// when the fabric is self-reverse — and the assembled answer validates
// with the dual's budget: (C, S, R) for the inverses, (P·C, 2S, 2R) for
// Allreduce.
func TestDualInstancesAndDuality(t *testing.T) {
	rows := []struct {
		spec     string
		selfRev  bool
		bcS, bcR int // a Sat Broadcast budget at C = 1
		agS, agR int // a Sat Allgather budget at C = 1
	}{
		{"dgx1", true, 2, 2, 2, 2},
		{"amd", true, 4, 4, 4, 4},
		{"bidir-ring:8", true, 4, 4, 4, 4},
		{"line:8", true, 7, 7, 7, 7},
		{"fc:8", true, 1, 1, 1, 1},
		{"star:8", true, 1, 1, 3, 7},
		{"hypercube:3", true, 3, 3, 3, 3},
		{"torus:2x4", true, 3, 3, 3, 3},
		{"torus3d:2x2x2", true, 3, 3, 3, 3},
		{"fat-tree:2:2:1:1", true, 1, 3, 1, 4},
		{"dragonfly:4:2:1", true, 3, 3, 3, 4},
		{"bus:4:1", true, 1, 3, 1, 12},
		{"multinode:bidir-ring:4:2:1:1", true, 3, 3, 5, 6},
		{"ring:4", false, 3, 3, 3, 3},
		{"", false, 2, 2, 2, 2}, // asymmetricRing
	}
	for _, row := range rows {
		topo := asymmetricRing()
		if row.spec != "" {
			topo = mustFabric(t, row.spec)
		}
		if got := topo.Reverse().Fingerprint() == topo.Fingerprint(); got != row.selfRev {
			t.Fatalf("%s: self-reverse %v, want %v", topo.Name, got, row.selfRev)
		}
		for _, kind := range []collective.Kind{collective.Reduce, collective.Reducescatter, collective.Allreduce} {
			s, r := row.agS, row.agR
			if kind == collective.Reduce {
				s, r = row.bcS, row.bcR
			}
			name := fmt.Sprintf("%v on %s (1,%d,%d)", kind, topo.Name, s, r)
			ins, err := DualInstances(kind, topo, 0, 1, s, r)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			wantLen := 1
			if kind == collective.Allreduce && !row.selfRev {
				wantLen = 2
			}
			if len(ins) != wantLen || (ins[0].Topo == topo) != row.selfRev || ins[len(ins)-1].Coll.Kind.IsCombining() {
				t.Fatalf("%s: %d dual instances, first on topo %v", name, len(ins), ins[0].Topo == topo)
			}
			alg, status, err := SynthesizeCollectiveContext(context.Background(), kind, topo, 0, 1, s, r, Options{})
			if err != nil || status != sat.Sat {
				t.Fatalf("%s: %v %v", name, status, err)
			}
			if err := alg.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := fmt.Sprintf("(1,%d,%d)", s, r)
			if kind == collective.Allreduce {
				want = fmt.Sprintf("(%d,%d,%d)", topo.P, 2*s, 2*r)
			}
			if alg.Coll.Kind != kind || alg.Topo != topo || alg.CSR() != want {
				t.Errorf("%s: %v %s on %s, want %s on the caller's topology", name, alg.Coll.Kind, alg.CSR(), alg.Topo.Name, want)
			}
		}
	}
}

// TestDualInstancesNonCombining: a non-combining kind is its own single
// instance on topo, and assembleDuals hands its algorithm back.
func TestDualInstancesNonCombining(t *testing.T) {
	topo := topology.Ring(4)
	ins, err := DualInstances(collective.Allgather, topo, 0, 1, 3, 3)
	if err != nil || len(ins) != 1 || ins[0].Topo != topo || ins[0].Coll.Kind != collective.Allgather {
		t.Fatalf("Allgather dual instances %+v, %v", ins, err)
	}
	res, err := Synthesize(ins[0], Options{})
	if err != nil || res.Status != sat.Sat {
		t.Fatal(res.Status, err)
	}
	if alg, err := assembleDuals(collective.Allgather, topo, nil); err == nil {
		t.Fatalf("assembled %v from no algorithms", alg)
	}
	if alg, err := assembleDuals(collective.Allgather, topo, []*algorithm.Algorithm{res.Algorithm}); err != nil || alg != res.Algorithm {
		t.Fatalf("assembleDuals = %v, %v", alg, err)
	}
}

// smallBuilderFabrics is one fabric of every builder family with P <= 8
// (all but dgx2).
var smallBuilderFabrics = []string{
	"dgx1", "amd", "ring:4", "bidir-ring:8", "line:8", "fc:8", "star:8",
	"hypercube:3", "torus:2x4", "torus3d:2x2x2", "fat-tree:2:2:1:1",
	"dragonfly:4:2:1", "bus:4:1", "multinode:bidir-ring:4:2:1:1",
}

// oneShot answers an instance with a fresh one-shot solve.
func oneShot(ctx context.Context, in Instance) (*algorithm.Algorithm, sat.Status, error) {
	res, err := SynthesizeContext(ctx, in, Options{})
	return res.Algorithm, res.Status, err
}

// TestSolveImpliedProperty: on every small builder fabric, for Gather at
// every root and Alltoall over budgets at and just above the Allgather's
// bounds, whenever the Allgather of the budget is Sat its witness
// projects onto the implied spec — a valid witness of exactly the
// requested (C, S, R) with no more sends — and a direct solve of the
// implied spec is Sat too. SolveImplied asks that Allgather exactly when
// its budget passes Admits and it is worth asking, answers with the
// projection when it is Sat, and otherwise answers as the direct solve.
func TestSolveImpliedProperty(t *testing.T) {
	ctx := context.Background()
	asked, projected := 0, 0
	for _, name := range smallBuilderFabrics {
		topo := mustFabric(t, name)
		const c = 1
		ag, err := collective.New(collective.Allgather, topo.P, c, 0)
		if err != nil {
			t.Fatal(err)
		}
		lat := collective.LatencyLowerBound(ag, topo)
		bw := new(big.Rat).Mul(collective.BandwidthLowerBound(ag, topo), big.NewRat(c, 1))
		minR := int(new(big.Int).Quo(new(big.Int).Add(bw.Num(), new(big.Int).Sub(bw.Denom(), big.NewInt(1))), bw.Denom()).Int64())
		implied := []*collective.Spec{}
		for root := 0; root < topo.P; root++ {
			ga, _ := collective.New(collective.Gather, topo.P, c, topology.Node(root))
			implied = append(implied, ga)
		}
		aa, _ := collective.New(collective.Alltoall, topo.P, c, 0)
		implied = append(implied, aa)
		for _, steps := range []int{lat, lat + 1} {
			for _, rounds := range []int{max(steps, minR), max(steps, minR) + 1} {
				agIn := Instance{Coll: ag, Topo: topo, Steps: steps, Round: rounds}
				agAlg, agStatus, err := oneShot(ctx, agIn)
				if err != nil {
					t.Fatal(err)
				}
				wantAsk := collective.Admits(ag, topo, steps, rounds) && worthAsking(agIn, Options{})
				for _, a := range implied {
					label := fmt.Sprintf("%s %v root %d (%d,%d,%d)", name, a.Kind, a.Root, c, steps, rounds)
					in := Instance{Coll: a, Topo: topo, Steps: steps, Round: rounds}
					_, directStatus, err := oneShot(ctx, in)
					if err != nil {
						t.Fatalf("%s: direct: %v", label, err)
					}
					if agStatus == sat.Sat {
						if directStatus != sat.Sat {
							t.Errorf("%s: Allgather Sat, direct solve %v", label, directStatus)
						}
						proj, err := algorithm.Project(agAlg, a)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						projected++
						if err := proj.Validate(); err != nil {
							t.Errorf("%s: %v", label, err)
						}
						if proj.Coll != a || proj.CSR() != fmt.Sprintf("(%d,%d,%d)", c, steps, rounds) || len(proj.Sends) > len(agAlg.Sends) {
							t.Errorf("%s: projected %v %s with %d sends, the Allgather has %d", label, proj.Coll, proj.CSR(), len(proj.Sends), len(agAlg.Sends))
						}
					}
					didAsk := false
					ask := func(ctx context.Context, b Instance) (*algorithm.Algorithm, sat.Status, error) {
						didAsk = true
						if b.Coll.Kind != collective.Allgather || b.Coll.Root != 0 || b.Steps != steps || b.Round != rounds {
							t.Fatalf("%s: asked %v root %d (%d,%d)", label, b.Coll.Kind, b.Coll.Root, b.Steps, b.Round)
						}
						return agAlg, agStatus, nil
					}
					alg, status, err := SolveImplied(ctx, in, Options{}, ask, oneShot)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if didAsk != wantAsk {
						t.Errorf("%s: asked the Allgather %v, want %v", label, didAsk, wantAsk)
					}
					if didAsk {
						asked++
					}
					if status != directStatus {
						t.Errorf("%s: SolveImplied %v, direct solve %v", label, status, directStatus)
					}
					if status != sat.Sat {
						continue
					}
					if err := alg.Validate(); err != nil {
						t.Errorf("%s: %v", label, err)
					}
					if alg.Coll != a || alg.CSR() != fmt.Sprintf("(%d,%d,%d)", c, steps, rounds) {
						t.Errorf("%s: answered %v %s", label, alg.Coll, alg.CSR())
					}
				}
			}
		}
	}
	if asked == 0 || projected == 0 {
		t.Fatalf("%d implied specs asked the Allgather, %d were projected", asked, projected)
	}
	t.Logf("%d implied specs asked the Allgather, %d were projected", asked, projected)
}

// TestWorthAsking: the Allgather is asked on fabrics whose free
// node-symmetry group has order at least P/2 (DGX-1's has order 4, a
// 4-dimensional hypercube's 16), and not where it is smaller (order 2 on
// line:8 and dragonfly:4:2:1), absent (star:8) or switched off.
func TestWorthAsking(t *testing.T) {
	for _, row := range []struct {
		spec string
		want bool
	}{
		{"dgx1", true}, {"amd", true}, {"hypercube:4", true}, {"bidir-ring:9", true},
		{"line:8", false}, {"dragonfly:4:2:1", false}, {"star:8", false},
	} {
		topo := mustFabric(t, row.spec)
		ag, _ := collective.New(collective.Allgather, topo.P, 2, 0)
		in := Instance{Coll: ag, Topo: topo, Steps: 3, Round: 3}
		if got := worthAsking(in, Options{}); got != row.want {
			t.Errorf("%s: worthAsking %v, want %v", row.spec, got, row.want)
		}
		if worthAsking(in, Options{NoSymmetryBreaking: true}) || worthAsking(in, Options{ProveUnsat: true}) {
			t.Errorf("%s: worth asking with node symmetry off", row.spec)
		}
	}
}

// TestSolveImpliedUnknown: an Unknown implying Allgather is the implied
// spec's answer, without a second solve; a cancelled context gives
// Unknown through SynthesizeCollectiveContext too.
func TestSolveImpliedUnknown(t *testing.T) {
	topo := topology.DGX1()
	ga, _ := collective.New(collective.Gather, topo.P, 6, 3)
	in := Instance{Coll: ga, Topo: topo, Steps: 7, Round: 7}
	unknown := func(context.Context, Instance) (*algorithm.Algorithm, sat.Status, error) {
		return nil, sat.Unknown, nil
	}
	solve := func(context.Context, Instance) (*algorithm.Algorithm, sat.Status, error) {
		t.Fatal("the implied spec was solved after an Unknown Allgather")
		return nil, sat.Unknown, nil
	}
	if alg, status, err := SolveImplied(context.Background(), in, Options{}, unknown, solve); alg != nil || status != sat.Unknown || err != nil {
		t.Fatalf("SolveImplied = %v, %v, %v; want Unknown", alg, status, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if alg, status, err := SynthesizeCollectiveContext(context.Background(), collective.Gather, topo, 3, 6, 7, 7, Options{}); err != nil || status != sat.Sat || alg.Coll.Kind != collective.Gather {
		t.Fatalf("Gather (6,7,7): %v %v", status, err)
	}
	if alg, status, err := SynthesizeCollectiveContext(ctx, collective.Gather, topo, 3, 6, 7, 7, Options{}); alg != nil || status != sat.Unknown || err != nil {
		t.Fatalf("cancelled Gather = %v, %v, %v; want Unknown", alg, status, err)
	}
}

// TestSolveImpliedOneDeadline: the implying Allgather and the direct
// solve after its Unsat share one deadline, opts.Timeout from the call,
// so the pair never spends more than one timeout. Without a timeout
// neither solve gets a deadline.
func TestSolveImpliedOneDeadline(t *testing.T) {
	topo := topology.DGX1()
	ga, _ := collective.New(collective.Gather, topo.P, 6, 3)
	in := Instance{Coll: ga, Topo: topo, Steps: 7, Round: 7}
	const timeout = time.Minute
	var askDeadline time.Time
	var asked, solved bool
	unsat := func(ctx context.Context, _ Instance) (*algorithm.Algorithm, sat.Status, error) {
		asked = true
		askDeadline, _ = ctx.Deadline()
		return nil, sat.Unsat, nil
	}
	var solveDeadline time.Time
	solve := func(ctx context.Context, _ Instance) (*algorithm.Algorithm, sat.Status, error) {
		solved = true
		solveDeadline, _ = ctx.Deadline()
		return nil, sat.Unsat, nil
	}
	start := time.Now()
	if _, status, err := SolveImplied(context.Background(), in, Options{Timeout: timeout}, unsat, solve); status != sat.Unsat || err != nil || !asked || !solved {
		t.Fatalf("SolveImplied = %v, %v; asked %v, solved %v", status, err, asked, solved)
	}
	end := time.Now()
	if !solveDeadline.Equal(askDeadline) || askDeadline.Before(start.Add(timeout)) || askDeadline.After(end.Add(timeout)) {
		t.Errorf("deadlines: Allgather %v, direct solve %v; want one, %v after a call made in [%v, %v]", askDeadline, solveDeadline, timeout, start, end)
	}
	noDeadline := func(ctx context.Context, _ Instance) (*algorithm.Algorithm, sat.Status, error) {
		if d, ok := ctx.Deadline(); ok {
			t.Errorf("deadline %v without a timeout", d)
		}
		return nil, sat.Unsat, nil
	}
	if _, status, err := SolveImplied(context.Background(), in, Options{}, noDeadline, noDeadline); status != sat.Unsat || err != nil {
		t.Fatalf("SolveImplied without a timeout = %v, %v", status, err)
	}
}

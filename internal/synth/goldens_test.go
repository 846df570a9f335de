package synth

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/collective"
	"repro/internal/topology"
)

// -update regenerates the staged-encoder goldens from the current emitters.
var updateGoldens = flag.Bool("update", false, "rewrite testdata goldens")

// clauseStream renders the exact CDCL emission stream of a one-shot encode
// — every AddClause call in order, pre-normalization, plus the variable
// count — via the proof recorder. This is the byte-level contract the
// staged encoder must preserve: any reordering of clause emission or
// variable allocation changes the solver's search and therefore the
// extracted witness algorithms.
func clauseStream(t *testing.T, in Instance, opts Options) string {
	t.Helper()
	opts.ProveUnsat = true
	e := encodePaper(in, opts)
	var b strings.Builder
	fmt.Fprintf(&b, "vars %d feasible %v\n", e.ctx.Solver.NumVars(), e.feasible)
	if e.proof != nil {
		for _, cl := range e.proof.Problem() {
			for i, l := range cl {
				if i > 0 {
					b.WriteByte(' ')
				}
				if l.Sign() {
					b.WriteByte('-')
				}
				fmt.Fprintf(&b, "%d", l.Var())
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// megaBaseStream renders the layered mega-base formula's problem clauses
// and variable count for a kind-scoped universe (units enqueued at level 0
// are pinned separately by the status-equality tests).
func megaBaseStream(t *testing.T, topo *topology.Topology, kinds []collective.Kind, maxChunks, horizon, k int) string {
	t.Helper()
	uni := buildMegaUniverse(topo.P, 0, kinds, maxChunks)
	if uni == nil {
		t.Fatal("no universe")
	}
	e := encodeMegaBase(uni.spec, topo, Options{}, horizon, k, nil)
	if e == nil {
		t.Fatal("mega-base infeasible")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "vars %d chunks %d\n", e.ctx.Solver.NumVars(), uni.spec.G)
	if err := e.ctx.Solver.WriteDIMACS(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestStagedEncoderGoldens pins the byte-exact output of every encoder
// family — one-shot CDCL clause streams, the layered CDCL mega-base and
// one-shot SMT-LIB documents — against committed goldens. The staged-encoder refactor (and any later change)
// must keep these stable: the clause order determines the models the CDCL
// solver finds, and the pinned witness algorithms with them.
func TestStagedEncoderGoldens(t *testing.T) {
	ring := topology.Ring(4)
	bidir := topology.BidirRing(5)
	dgx1 := topology.DGX1()

	mk := func(kind collective.Kind, topo *topology.Topology, c int) *collective.Spec {
		coll, err := collective.New(kind, topo.P, c, 0)
		if err != nil {
			t.Fatal(err)
		}
		return coll
	}

	goldens := map[string]string{}

	// One-shot CDCL clause streams.
	goldens["cdcl_ring4_ag_c2_s3_r4.txt"] = clauseStream(t,
		Instance{Coll: mk(collective.Allgather, ring, 2), Topo: ring, Steps: 3, Round: 4}, Options{})
	goldens["cdcl_bidir5_bc_c2_s3_r5.txt"] = clauseStream(t,
		Instance{Coll: mk(collective.Broadcast, bidir, 2), Topo: bidir, Steps: 3, Round: 5}, Options{})
	goldens["cdcl_dgx1_ag_c1_s2_r2.txt"] = clauseStream(t,
		Instance{Coll: mk(collective.Allgather, dgx1, 1), Topo: dgx1, Steps: 2, Round: 2}, Options{})
	goldens["cdcl_ring4_ag_c2_s3_r4_nosym.txt"] = clauseStream(t,
		Instance{Coll: mk(collective.Allgather, ring, 2), Topo: ring, Steps: 3, Round: 4},
		Options{NoSymmetryBreak: true})

	// Layered CDCL mega-base (window mode, activation-guarded sends).
	goldens["cdcl_mega_bidir5_bc_c2_h4.txt"] = megaBaseStream(t,
		bidir, []collective.Kind{collective.Broadcast}, 2, 4, 3)

	// One-shot SMT-LIB documents.
	smtOne, err := EmitSMTLIB(Instance{Coll: mk(collective.Allgather, ring, 2), Topo: ring, Steps: 3, Round: 4})
	if err != nil {
		t.Fatal(err)
	}
	goldens["smtlib_ring4_ag_c2_s3_r4.smt2"] = smtOne.String()
	smtBidir, err := EmitSMTLIB(Instance{Coll: mk(collective.Broadcast, bidir, 2), Topo: bidir, Steps: 3, Round: 5})
	if err != nil {
		t.Fatal(err)
	}
	goldens["smtlib_bidir5_bc_c2_s3_r5.smt2"] = smtBidir.String()

	dir := filepath.Join("testdata", "staged")
	if *updateGoldens {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, got := range goldens {
		path := filepath.Join(dir, name)
		if *updateGoldens {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with -update)", name, err)
		}
		if string(want) != got {
			t.Errorf("%s: emission diverged from golden (clause order or variable numbering changed); "+
				"if intentional, regenerate with -update and re-pin downstream goldens", name)
		}
	}
}

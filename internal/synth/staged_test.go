package synth

import (
	"testing"

	"repro/internal/collective"
	"repro/internal/sat"
	"repro/internal/topology"
)

// TestStage0TemplateDistances cross-checks the template's all-pairs
// distance reductions against the direct BFS helpers the encoders used
// before Stage 0 was shared.
func TestStage0TemplateDistances(t *testing.T) {
	for _, topo := range []*topology.Topology{
		topology.Ring(5), topology.Line(4), topology.BidirRing(6), topology.DGX1(),
	} {
		tmpl := NewStage0Template(topo)
		for _, kind := range []collective.Kind{collective.Allgather, collective.Broadcast} {
			coll, err := collective.New(kind, topo.P, 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < coll.G; c++ {
				wantSrc := multiSourceDistances(topo, coll.Pre.Nodes(c))
				gotSrc := tmpl.sourceDistances(coll.Pre.Nodes(c))
				wantPost := distancesToSet(topo, coll.Post, c)
				gotPost := tmpl.distancesToSet(coll.Post, c)
				for n := 0; n < topo.P; n++ {
					if gotSrc[n] != wantSrc[n] {
						t.Errorf("%s %v c=%d n=%d: template source dist %d, BFS %d",
							topo.Name, kind, c, n, gotSrc[n], wantSrc[n])
					}
					if gotPost[n] != wantPost[n] {
						t.Errorf("%s %v c=%d n=%d: template post dist %d, BFS %d",
							topo.Name, kind, c, n, gotPost[n], wantPost[n])
					}
				}
			}
		}
	}
}

// TestTemplateCacheSharing checks the Stage-0 cache contract: the first
// lookup of a topology derives, later ones share (the content is
// step-count-independent, so every horizon shares one entry), and
// distinct topologies stay separate.
func TestTemplateCacheSharing(t *testing.T) {
	tc := NewTemplateCache()
	ring := topology.Ring(4)
	a, hit := tc.Get(ring)
	if hit {
		t.Error("first lookup reported a hit")
	}
	b, hit := tc.Get(ring)
	if !hit || a != b {
		t.Error("second lookup did not share the derived template")
	}
	if _, hit := tc.Get(topology.Ring(5)); hit {
		t.Error("different topology shared a template")
	}
	if hits, misses := tc.Stats(); hits != 1 || misses != 2 {
		t.Errorf("hits=%d misses=%d, want 1/2", hits, misses)
	}
}

// TestParetoTemplateHits runs a session sweep whose candidate set holds
// several families at each step count and checks that Stage-0 templates
// were actually shared across them — the cross-family encode-wall win
// the staged refactor exists for.
func TestParetoTemplateHits(t *testing.T) {
	var stats ParetoStats
	_, err := ParetoSynthesize(collective.Broadcast, topology.BidirRing(6), 0, ParetoOptions{
		K: 2, MaxSteps: 6, MaxChunks: 6, Stats: &stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TemplateHits == 0 {
		t.Errorf("no Stage-0 template shares in a multi-family sweep: %+v", stats)
	}
}

// TestEntailedAndAddLearnt covers the sat-layer primitives portfolio
// learnt sharing vets imports with: the failed-literal entailment test
// and the learnt import.
func TestEntailedAndAddLearnt(t *testing.T) {
	s := sat.NewSolver()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	la, lb, lc := sat.PosLit(a), sat.PosLit(b), sat.PosLit(c)
	s.AddClause(la.Neg(), lb) // a -> b
	s.AddClause(lb.Neg(), lc) // b -> c
	if !s.Entailed(la.Neg(), lc) {
		t.Error("(-a or c) is propagation-entailed but not detected")
	}
	if s.Entailed(lc) {
		t.Error("unit c is not entailed but reported so")
	}
	before := s.LearntClauses()
	if imported, ok := s.AddLearnt(la.Neg(), lc); !imported || !ok {
		t.Fatal("AddLearnt of an entailed clause failed")
	}
	if s.LearntClauses() != before+1 {
		t.Errorf("learnt count %d, want %d", s.LearntClauses(), before+1)
	}
	// A clause already satisfied at the top level is dropped, not
	// counted as imported.
	s.AddClause(lb)
	if imported, ok := s.AddLearnt(lb, lc); imported || !ok {
		t.Error("top-level-satisfied clause reported as imported")
	}
	if s.LearntClauses() != before+1 {
		t.Errorf("learnt count %d after a dropped import, want %d", s.LearntClauses(), before+1)
	}
	if st := s.Solve(); st != sat.Sat {
		t.Fatalf("formula with imported lemma: %v", st)
	}
	// The solver must be reusable after an Entailed probe (state undone).
	if st := s.Solve(la); st != sat.Sat || !s.ValueLit(lc) {
		t.Error("assumption solve after Entailed/AddLearnt broken")
	}
}

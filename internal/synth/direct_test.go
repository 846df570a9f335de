package synth

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/algorithm"
	"repro/internal/collective"
	"repro/internal/pb"
	"repro/internal/sat"
	"repro/internal/smt"
	"repro/internal/topology"
)

// synthesizeDirect implements the naive encoding the paper's §5.4.3
// compares against: one Boolean x(c,n,n',s) per potential send tuple and
// one Boolean has(c,n,s) per reachability fact. It is semantically
// equivalent to the paper encoding but scales much worse. It is a test
// oracle only: TestDirectEncodingAgreesWithPaperEncoding checks the
// paper encoding's verdicts against it, and BenchmarkEncodingAblation
// times the two.
func synthesizeDirect(ctx context.Context, in Instance, opts Options) (Result, error) {
	var res Result
	t0 := time.Now()
	enc := smt.NewContext()
	coll, topo := in.Coll, in.Topo
	S, G, P := in.Steps, coll.G, coll.P
	edges := topo.Edges()

	// has[c][n][s]: chunk c present at node n at the *start* of step s,
	// for s in [0..S].
	has := make([][][]sat.Lit, G)
	for c := 0; c < G; c++ {
		has[c] = make([][]sat.Lit, P)
		for n := 0; n < P; n++ {
			has[c][n] = make([]sat.Lit, S+1)
			for s := 0; s <= S; s++ {
				has[c][n][s] = enc.BoolVar()
			}
			// Initial state.
			if coll.Pre[c][n] {
				enc.AddClause(has[c][n][0])
			} else {
				enc.AddClause(has[c][n][0].Neg())
			}
			// Postcondition.
			if coll.Post[c][n] {
				enc.AddClause(has[c][n][S])
			}
		}
	}
	// x[c][ei][s]: chunk c crosses edge ei during step s (0-based).
	x := make([][][]sat.Lit, G)
	for c := 0; c < G; c++ {
		x[c] = make([][]sat.Lit, len(edges))
		for ei := range edges {
			x[c][ei] = make([]sat.Lit, S)
			for s := 0; s < S; s++ {
				x[c][ei][s] = enc.BoolVar()
			}
		}
	}
	// Sends require the chunk at the source when the step starts.
	for c := 0; c < G; c++ {
		for ei, l := range edges {
			for s := 0; s < S; s++ {
				enc.AddClause(x[c][ei][s].Neg(), has[c][int(l.Src)][s])
			}
		}
	}
	// Frame axioms: has(s+1) <-> has(s) ∨ any incoming x at s.
	for c := 0; c < G; c++ {
		for n := 0; n < P; n++ {
			var inEdges []int
			for ei, l := range edges {
				if int(l.Dst) == n {
					inEdges = append(inEdges, ei)
				}
			}
			for s := 0; s < S; s++ {
				next, cur := has[c][n][s+1], has[c][n][s]
				// cur -> next
				enc.AddClause(cur.Neg(), next)
				// incoming -> next
				for _, ei := range inEdges {
					enc.AddClause(x[c][ei][s].Neg(), next)
				}
				// next -> cur ∨ ⋁ incoming
				cl := []sat.Lit{next.Neg(), cur}
				for _, ei := range inEdges {
					cl = append(cl, x[c][ei][s])
				}
				enc.AddClause(cl...)
			}
		}
	}
	// Receive-at-most-once across all steps (mirrors the paper's C3
	// refinement so extraction and inversion stay clean).
	for c := 0; c < G; c++ {
		for n := 0; n < P; n++ {
			var incoming []sat.Lit
			for ei, l := range edges {
				if int(l.Dst) != n {
					continue
				}
				incoming = append(incoming, x[c][ei]...)
			}
			if coll.Pre[c][n] {
				for _, l := range incoming {
					enc.AddClause(l.Neg())
				}
			} else if len(incoming) > 1 {
				pb.AtMostOne(enc.Solver, incoming)
			}
		}
	}
	// Rounds and bandwidth.
	rs := make([]*smt.IntVar, S)
	maxRounds := in.Round - S + 1
	for s := 0; s < S; s++ {
		rs[s] = enc.NewIntVar(fmt.Sprintf("r_%d", s), 1, maxRounds)
	}
	enc.AssertSumEquals(rs, in.Round)
	edgeIndex := map[topology.Link]int{}
	for ei, l := range edges {
		edgeIndex[l] = ei
	}
	for s := 0; s < S; s++ {
		for _, rel := range topo.Relations {
			var lits []sat.Lit
			for _, l := range rel.Links {
				ei, ok := edgeIndex[l]
				if !ok {
					continue
				}
				for c := 0; c < G; c++ {
					lits = append(lits, x[c][ei][s])
				}
			}
			if len(lits) > 0 {
				enc.CountLeScaled(lits, rel.Bandwidth, rs[s])
			}
		}
	}
	res.Encode = time.Since(t0)
	applySolverOpts(enc.Solver, opts)
	res.Vars = enc.Solver.NumVars()
	res.Clauses = enc.Solver.NumClauses()
	t1 := time.Now()
	res.Status = enc.SolveContext(ctx)
	res.Solve = time.Since(t1)
	res.Stats = enc.Solver.Stats()
	if res.Status != sat.Sat {
		return res, nil
	}
	rounds := make([]int, S)
	for s := range rounds {
		rounds[s] = enc.Value(rs[s])
	}
	var sends []algorithm.Send
	for c := 0; c < G; c++ {
		for ei, l := range edges {
			for s := 0; s < S; s++ {
				if enc.ValueLit(x[c][ei][s]) {
					sends = append(sends, algorithm.Send{Chunk: c, From: l.Src, To: l.Dst, Step: s})
				}
			}
		}
	}
	name := fmt.Sprintf("sccl-direct-%s-c%d-s%d-r%d", coll.Kind, coll.C, S, in.Round)
	alg := algorithm.New(name, coll, topo, rounds, sends)
	if err := alg.Validate(); err != nil {
		return res, fmt.Errorf("synth: direct-encoded algorithm failed validation: %w", err)
	}
	res.Algorithm = alg
	return res, nil
}

// BenchmarkEncodingAblation compares the paper's encoding (§3.4) against
// the direct per-(c,n,n',s) Boolean encoding on a DGX-1 Broadcast
// instance — the paper's §5.4.3 reports >30x between these. Both sides
// call the solver directly, so every iteration encodes and solves.
func BenchmarkEncodingAblation(b *testing.B) {
	coll, err := collective.New(collective.Broadcast, 8, 6, 0)
	if err != nil {
		b.Fatal(err)
	}
	inst := Instance{Coll: coll, Topo: topology.DGX1(), Steps: 3, Round: 3}
	for _, enc := range []struct {
		name  string
		solve func(context.Context, Instance, Options) (Result, error)
	}{
		{"paper", SynthesizeContext},
		{"direct", synthesizeDirect},
	} {
		b.Run(enc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := enc.solve(context.Background(), inst, Options{})
				if err != nil || res.Algorithm == nil {
					b.Fatal(res.Status, err)
				}
			}
		})
	}
}

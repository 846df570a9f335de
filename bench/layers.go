package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	sccl "repro"
	"repro/internal/pb"
	"repro/internal/sat"
	"repro/internal/smt"
	"repro/internal/topology"
)

// probeReps is how often a sub-millisecond layer call is repeated before
// its median is reported.
const probeReps = 5

// commonProbes measures, from outside, the layers every workload goes
// through: topology construction and automorphisms, lower bounds, the
// algorithm type, the Engine's cache and library, lowering, and the
// smt, pb and sat kernels on generated inputs.
func commonProbes(tr *tracer, wl workload, last passOut, seed int64, m metricSet) {
	root := tr.begin("probes", 0, 0, 0)
	defer tr.end(root)
	topologyProbes(tr, root, wl.fabrics(), m)
	boundsProbes(tr, root, last.answered, m)
	algorithmProbes(tr, root, last.witnesses, m)
	engineProbes(tr, root, last, m)
	loweringProbes(tr, root, last.witnesses, m)
	smtKernel(tr, root, m)
	pbKernel(tr, root, m)
	satKernel(tr, root, seed, m)
}

// medianOf runs fn reps times inside spans and returns the median wall.
func medianOf(tr *tracer, name string, parent, reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		ds[i] = secs(tr.timed(name, parent, 0, fn))
	}
	return time.Duration(median(ds) * float64(time.Second))
}

func topologyProbes(tr *tracer, root int, fabrics []string, m metricSet) {
	var build, aut time.Duration
	gens := 0
	for _, spec := range fabrics {
		var topo *sccl.Topology
		build += medianOf(tr, "topology.build", root, probeReps, func() {
			t, err := sccl.ParseTopology(spec)
			if err != nil {
				panic(err) // prepare already parsed the same spec
			}
			topo = t
		})
		var g *topology.Group
		aut += medianOf(tr, "topology.aut", root, probeReps, func() { g = topology.Aut(topo) })
		gens += len(g.Gens)
	}
	m["topology.build_ms"] = secs(build) * 1e3
	m["topology.aut_ms"] = secs(aut) * 1e3
	m["topology.aut_generators"] = float64(gens)
}

func boundsProbes(tr *tracer, root int, answered []sccl.Request, m metricSet) {
	type use struct {
		kind sccl.Kind
		topo string
		root sccl.Node
	}
	seen := map[use]bool{}
	var total time.Duration
	for _, req := range answered {
		u := use{req.Kind, req.Topo.Fingerprint(), req.Root}
		if seen[u] {
			continue
		}
		seen[u] = true
		total += medianOf(tr, "collective.bounds", root, 3, func() {
			if _, _, err := sccl.LowerBounds(req.Kind, req.Topo, req.Root); err != nil {
				fmt.Fprintln(os.Stderr, "bench: lower bounds:", err)
			}
		})
	}
	m["collective.bounds_ms"] = secs(total) * 1e3
}

func algorithmProbes(tr *tracer, root int, witnesses []*sccl.Algorithm, m metricSet) {
	var validate, encode, decode, size []float64
	for _, a := range witnesses {
		validate = append(validate, secs(tr.timed("algorithm.validate", root, 0, func() { _ = a.Validate() }))*1e6)
		var data []byte
		encode = append(encode, secs(tr.timed("algorithm.encode_json", root, 0, func() { data, _ = sccl.EncodeAlgorithm(a) }))*1e6)
		decode = append(decode, secs(tr.timed("algorithm.decode_json", root, 0, func() { _, _ = sccl.DecodeAlgorithm(data) }))*1e6)
		size = append(size, float64(len(data)))
	}
	m["algorithm.validate_us"] = median(validate)
	m["algorithm.encode_json_us"] = median(encode)
	m["algorithm.decode_json_us"] = median(decode)
	m["algorithm.json_bytes"] = median(size)
}

// engineProbes loads the library the last traced pass saved into a fresh
// Engine and times the Engine's own work on the way to a cached answer:
// fingerprinting and the cache hit. Loading re-validates every entry.
func engineProbes(tr *tracer, root int, last passOut, m metricSet) {
	if len(last.library) == 0 || len(last.answered) == 0 {
		return
	}
	eng := sccl.NewEngine(sccl.EngineOptions{Workers: 1})
	defer eng.Close()
	load := tr.timed("engine.load_library", root, 0, func() {
		if _, err := eng.LoadLibrary(bytes.NewReader(last.library)); err != nil {
			fmt.Fprintln(os.Stderr, "bench: load library:", err)
		}
	})
	m["engine.load_library_ms"] = secs(load) * 1e3

	const rounds = 50
	n := rounds * len(last.answered)
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, req := range last.answered {
			_, _ = eng.Fingerprint(req)
		}
	}
	m["engine.fingerprint_ns"] = secs(time.Since(t0)) * 1e9 / float64(n)

	ctx := context.Background()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 = time.Now()
	hits := 0
	for r := 0; r < rounds; r++ {
		for _, req := range last.answered {
			if res, err := eng.Synthesize(ctx, req); err == nil && res.CacheHit {
				hits++
			}
		}
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&b)
	if hits != n {
		fmt.Fprintf(os.Stderr, "bench: only %d of %d re-asked requests hit the loaded library\n", hits, n)
	}
	m["engine.cache_hit_ns"] = secs(d) * 1e9 / float64(n)
	m["engine.cache_hit_mallocs"] = float64(b.Mallocs-a.Mallocs) / float64(n)
}

// loweringProbes runs paper §4's lowering over the witnesses. It is off
// every hot path; it is here so that a change to the Algorithm layout
// that slows lowering shows somewhere.
func loweringProbes(tr *tracer, root int, witnesses []*sccl.Algorithm, m metricSet) {
	var cuda, xml, simulate time.Duration
	cfg := sccl.SimConfig{Profile: sccl.DGX1Profile(), Lowering: sccl.LowerFusedPush, Bytes: 1 << 20}
	for _, a := range witnesses {
		cuda += tr.timed("codegen.cuda", root, 0, func() { _, _ = sccl.GenerateCUDA(a, sccl.LowerFusedPush) })
		xml += tr.timed("codegen.xml", root, 0, func() { _, _ = sccl.GenerateMSCCLXML(a) })
		simulate += tr.timed("sim.simulate", root, 0, func() { _, _ = sccl.Simulate(a, cfg) })
	}
	m["codegen.cuda_ms"] = secs(cuda) * 1e3
	m["codegen.xml_ms"] = secs(xml) * 1e3
	m["sim.simulate_ms"] = secs(simulate) * 1e3
}

// smtKernel times the order encoding alone: 20 000 integers over [0,12]
// joined into a chain of guarded strict inequalities, never solved.
func smtKernel(tr *tracer, root int, m metricSet) {
	const n = 20000
	var clauses int
	d := medianOf(tr, "smt.order_encoding", root, 3, func() {
		ctx := smt.NewContext()
		guard := ctx.BoolVar()
		var prev *smt.IntVar
		for i := 0; i < n; i++ {
			v := ctx.NewIntVar("x", 0, 12)
			if prev != nil {
				ctx.ImplyLess(guard, prev, v)
			}
			prev = v
		}
		clauses = ctx.Solver.NumClauses()
	})
	m["smt.intvars_per_s"] = n / secs(d)
	m["smt.clauses_per_intvar"] = float64(clauses) / n
}

// countingAdder is the pb.Adder the totalizer probes build into: it
// counts clauses and hands out variables, so the probes time the
// encoders and not a solver's clause database.
type countingAdder struct{ vars, clauses int }

func (c *countingAdder) NewVar() sat.Var { c.vars++; return sat.Var(c.vars) }

func (c *countingAdder) AddClause(...sat.Lit) bool { c.clauses++; return true }

func (c *countingAdder) lits(n int) []sat.Lit {
	out := make([]sat.Lit, n)
	for i := range out {
		out[i] = sat.PosLit(c.NewVar())
	}
	return out
}

func pbKernel(tr *tracer, root int, m metricSet) {
	const reps = 20
	sizes := []int{64, 256}
	// rate builds into a fresh adder reps times and returns clauses per
	// second and the clauses of one build.
	rate := func(name string, build func(a *countingAdder)) (perSec float64, clauses int) {
		var total time.Duration
		for i := 0; i < reps; i++ {
			a := &countingAdder{}
			total += tr.timed(name, root, 0, func() { build(a) })
			clauses = a.clauses
		}
		return float64(clauses*reps) / secs(total), clauses
	}
	perSec, clauses := rate("pb.totalizer", func(a *countingAdder) {
		for _, n := range sizes {
			pb.NewTotalizer(a, a.lits(n))
		}
	})
	m["pb.totalizer_clauses_per_s"] = perSec
	m["pb.totalizer_clauses"] = float64(clauses)
	perSec, _ = rate("pb.upper_totalizer", func(a *countingAdder) {
		for _, n := range sizes {
			pb.NewUpperTotalizer(a, a.lits(n), 8)
		}
	})
	m["pb.upper_clauses_per_s"] = perSec
	// Merging is timed alone: the two halves are built outside the span.
	var mergeTotal time.Duration
	mergeClauses := 0
	for i := 0; i < reps; i++ {
		a := &countingAdder{}
		for _, n := range sizes {
			left, right := pb.NewTotalizer(a, a.lits(n/2)), pb.NewTotalizer(a, a.lits(n/2))
			before := a.clauses
			mergeTotal += tr.timed("pb.merge", root, 0, func() { pb.MergeTotalizers(a, left, right) })
			mergeClauses += a.clauses - before
		}
	}
	m["pb.merge_clauses_per_s"] = float64(mergeClauses) / secs(mergeTotal)
}

// pigeonhole adds PHP(holes): holes+1 pigeons into holes holes, Unsat.
func pigeonhole(s *sat.Solver, holes int) {
	in := make([][]sat.Lit, holes+1)
	for p := range in {
		in[p] = make([]sat.Lit, holes)
		for h := range in[p] {
			in[p][h] = sat.PosLit(s.NewVar())
		}
		s.AddClause(in[p]...)
	}
	for h := 0; h < holes; h++ {
		for p := 0; p <= holes; p++ {
			for q := p + 1; q <= holes; q++ {
				s.AddClause(in[p][h].Neg(), in[q][h].Neg())
			}
		}
	}
}

// random3SAT adds a uniform random 3-SAT formula over n variables at the
// given clause-to-variable ratio.
func random3SAT(s *sat.Solver, rng *rand.Rand, n int, ratio float64) {
	vars := make([]sat.Var, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	for c := 0; c < int(ratio*float64(n)); c++ {
		p := rng.Perm(n)[:3]
		s.AddClause(sat.MkLit(vars[p[0]], rng.Intn(2) == 0), sat.MkLit(vars[p[1]], rng.Intn(2) == 0), sat.MkLit(vars[p[2]], rng.Intn(2) == 0))
	}
}

// satKernel runs the solver alone on generated formulas through its
// public API: one pigeonhole refutation and ten seeded random 3-SAT
// formulas near the threshold, then a DIMACS round trip.
func satKernel(tr *tracer, root int, seed int64, m metricSet) {
	const (
		holes   = 8
		randomN = 200
		randoms = 10
	)
	rng := rand.New(rand.NewSource(seed))
	solvers := []*sat.Solver{sat.NewSolver()}
	pigeonhole(solvers[0], holes)
	for i := 0; i < randoms; i++ {
		s := sat.NewSolver()
		random3SAT(s, rng, randomN, 4.2)
		solvers = append(solvers, s)
	}
	// Round-trip first: solving adds learnt clauses DIMACS does not write,
	// but the formulas should be measured as generated.
	var dimacsBytes int
	var dimacsWall time.Duration
	for _, s := range solvers {
		var buf bytes.Buffer
		dimacsWall += tr.timed("sat.dimacs", root, 0, func() {
			if err := s.WriteDIMACS(&buf); err != nil {
				fmt.Fprintln(os.Stderr, "bench: write dimacs:", err)
			}
			dimacsBytes += buf.Len()
			if _, err := sat.ParseDIMACS(&buf); err != nil {
				fmt.Fprintln(os.Stderr, "bench: parse dimacs:", err)
			}
		})
	}
	m["sat.dimacs_mb_per_s"] = float64(2*dimacsBytes) / (1 << 20) / secs(dimacsWall)

	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	var wall time.Duration
	var st sat.Stats
	for i, s := range solvers {
		s.SetBudget(0, opTimeout)
		var status sat.Status
		wall += tr.timed("sat.kernel_solve", root, 0, func() { status = s.Solve() })
		if i == 0 && status != sat.Unsat {
			fmt.Fprintf(os.Stderr, "bench: pigeonhole(%d) answered %v\n", holes, status)
		}
		if status == sat.Unknown {
			fmt.Fprintf(os.Stderr, "bench: sat kernel formula %d timed out\n", i)
		}
		ss := s.Stats()
		st.Conflicts += ss.Conflicts
		st.Propagations += ss.Propagations
	}
	runtime.ReadMemStats(&b)
	m["sat.kernel_conflicts"] = float64(st.Conflicts)
	m["sat.kernel_props_per_s"] = ratio(float64(st.Propagations), secs(wall))
	m["sat.kernel_ns_per_conflict"] = ratio(secs(wall)*1e9, float64(st.Conflicts))
	m["sat.kernel_mallocs_per_conflict"] = ratio(float64(b.Mallocs-a.Mallocs), float64(st.Conflicts))
}

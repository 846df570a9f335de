package sccl_test

import (
	"context"
	"testing"

	sccl "repro"
	"repro/internal/eval"
)

// workloadSweep is one Pareto sweep of the benchmark harness, in the
// shape bench/pareto.go lists it.
type workloadSweep struct {
	topology            string
	kind                sccl.Kind
	k                   int
	maxSteps, maxChunks int
}

// runWorkloadSweeps runs the sweeps in order on one fresh Workers:1
// engine, as one harness pass does, and sums their stats.
func runWorkloadSweeps(t *testing.T, sweeps []workloadSweep) sccl.ParetoStats {
	t.Helper()
	eng := sccl.NewEngine(sccl.EngineOptions{Workers: 1})
	defer eng.Close()
	var sum sccl.ParetoStats
	for _, s := range sweeps {
		topo, err := sccl.ParseTopology(s.topology)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Pareto(context.Background(), sccl.ParetoRequest{
			Kind: s.kind, Topo: topo, K: s.k, MaxSteps: s.maxSteps, MaxChunks: s.maxChunks,
		})
		if err != nil {
			t.Fatalf("%s %v k=%d: %v", s.topology, s.kind, s.k, err)
		}
		sum.Probes += res.Stats.Probes
		sum.Add(res.Stats.ProbeStats)
	}
	return sum
}

// TestWorkloadCountsPinned pins the scheduler counts and the summed
// solver conflicts and clauses of the three Pareto benchmark workloads, of
// three plain session sweeps and of the table4-dgx1 requests: each in the
// listed order on one Workers:1 engine, where no decision depends on the
// wall clock. A change that is meant to leave the search alone must leave
// these literals alone. The harness shuffles the sweep order by seed, and
// the order decides which sweep adopts a pooled mega-base, so its seed-1
// pareto-rings run reports session_probes 323 and core_solves 303 instead.
func TestWorkloadCountsPinned(t *testing.T) {
	t.Run("pareto-rings", func(t *testing.T) {
		st := runWorkloadSweeps(t, []workloadSweep{
			{topology: "ring:9", kind: sccl.Broadcast, k: 2},
			{topology: "ring:8", kind: sccl.Broadcast, k: 3},
			{topology: "ring:8", kind: sccl.Broadcast, k: 2},
			{topology: "line:9", kind: sccl.Broadcast, k: 2},
			{topology: "line:8", kind: sccl.Broadcast, k: 2},
		})
		got := [4]int{st.Probes, st.SessionProbes, st.PrunedProbes, st.CoreSolves}
		want := [4]int{337, 325, 163, 305}
		if got != want {
			t.Errorf("probes, session_probes, pruned_probes, core_solves = %v, want %v", got, want)
		}
		pinSolverWork(t, st.ProbeStats, 1030, 6090050)
	})
	t.Run("pareto-fabrics", func(t *testing.T) {
		if testing.Short() {
			t.Skip("two P >= 32 sweeps; skipped under -short")
		}
		st := runWorkloadSweeps(t, []workloadSweep{
			{topology: "torus:6x6", kind: sccl.Allgather, k: 1, maxSteps: 8, maxChunks: 1},
			{topology: "multinode:dgx1:4:2:2", kind: sccl.Allgather, k: 0, maxSteps: 7, maxChunks: 1},
		})
		got := [4]int{st.Probes, st.QuotientProbes, st.QuotientFallbacks, st.SymmetryPerms}
		want := [4]int{3, 1, 0, 1}
		if got != want {
			t.Errorf("probes, quotient_probes, quotient_fallbacks, symmetry_perms = %v, want %v", got, want)
		}
		pinSolverWork(t, st.ProbeStats, 1958, 299885)
	})
	t.Run("pareto-chains", func(t *testing.T) {
		if testing.Short() {
			t.Skip("solve-bound session sweeps; skipped under -short")
		}
		st := runWorkloadSweeps(t, []workloadSweep{
			{topology: "dgx1", kind: sccl.Broadcast, k: 2, maxChunks: 12},
			{topology: "amd", kind: sccl.Broadcast, k: 3},
		})
		got := [4]int{st.Probes, st.SessionProbes, st.PrunedProbes, st.CoreSolves}
		want := [4]int{177, 171, 31, 155}
		if got != want {
			t.Errorf("probes, session_probes, pruned_probes, core_solves = %v, want %v", got, want)
		}
		pinSolverWork(t, st.ProbeStats, 16016, 6019415)
	})
	// The 32 Table 4 requests of the table4-dgx1 workload, in the order
	// eval lists them (and bench/testdata/table4_dgx1.json, which
	// eval's TestTable4MatchesBenchRows checks): 16 one-shot solves, since
	// each Allreduce is served by its Allgather's entry and each Gather is
	// that entry projected.
	t.Run("table4-dgx1", func(t *testing.T) {
		if testing.Short() {
			t.Skip("16 one-shot DGX-1 solves; skipped under -short")
		}
		eng := sccl.NewEngine(sccl.EngineOptions{Workers: 1})
		defer eng.Close()
		for _, q := range eval.Table4Requests() {
			res, err := eng.Synthesize(context.Background(), q)
			if err != nil || res.Status != sccl.Sat {
				t.Fatalf("%v %s: %v %v", q.Kind, q.Budget, res, err)
			}
		}
		// Every request misses; each Allreduce's dual lookup and each
		// Gather's implying Allgather lookup hits.
		cs := eng.CacheStats()
		got := [3]uint64{cs.Misses, cs.Hits, uint64(cs.Algorithms)}
		if want := [3]uint64{32, 16, 32}; got != want {
			t.Errorf("misses, hits, algorithms = %v, want %v", got, want)
		}
		pinSolverWork(t, cs.ProbeStats, 8480, 168124)
	})
	// Three plain sweeps off the harness: both ring Broadcasts adopt the
	// mega-base after their first three refutations (60 of 63 and 69 of 72
	// probes by activation select), and the dgx1 Allgather never does (5
	// probes, no Unsat).
	t.Run("session-sweeps", func(t *testing.T) {
		st := runWorkloadSweeps(t, []workloadSweep{
			{topology: "bidir-ring:10", kind: sccl.Broadcast, k: 3, maxSteps: 7, maxChunks: 12},
			{topology: "ring:10", kind: sccl.Broadcast, k: 2, maxSteps: 12, maxChunks: 18},
			{topology: "dgx1", kind: sccl.Allgather, k: 2, maxSteps: 7, maxChunks: 16},
		})
		got := [4]int{st.Probes, st.SessionProbes, st.PrunedProbes, st.CoreSolves}
		want := [4]int{158, 147, 51, 140}
		if got != want {
			t.Errorf("probes, session_probes, pruned_probes, core_solves = %v, want %v", got, want)
		}
		pinSolverWork(t, st.ProbeStats, 3166, 2756670)
	})
}

// pinSolverWork checks the solver conflicts and formula clauses summed
// over a workload's probes.
func pinSolverWork(t *testing.T, ps sccl.ProbeStats, conflicts int64, clauses int) {
	t.Helper()
	if ps.Conflicts != conflicts || ps.Clauses != clauses {
		t.Errorf("conflicts, clauses = %d, %d, want %d, %d", ps.Conflicts, ps.Clauses, conflicts, clauses)
	}
}

package synth

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/collective"
	"repro/internal/sat"
	"repro/internal/topology"
)

// table4Row is the solve-bound Table 4 DGX-1 budget the pinned search and
// BenchmarkSolveTable4Row share: Allgather (C, S, R) = (6, 7, 7), the
// bandwidth-optimal row.
func table4Row(tb testing.TB) Instance {
	tb.Helper()
	topo := topology.DGX1()
	coll, err := collective.New(collective.Allgather, topo.P, 6, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return Instance{Coll: coll, Topo: topo, Steps: 7, Round: 7}
}

// TestSearchCountsPinned is internal/sat's test of the same name one
// layer up: the encoders feed the solver a real formula (binary-heavy,
// half a million propagations) and a sweep drives one long-lived solver
// through assumptions, cores and carried learnts. The literals were
// recorded from the pointer-per-clause core; a storage change in sat must
// reproduce them, a search change re-records them and says so.
func TestSearchCountsPinned(t *testing.T) {
	res, err := Synthesize(table4Row(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	got := [6]int64{st.Conflicts, st.Decisions, st.Propagations, st.Restarts, st.Learnt, st.Removed}
	want := [6]int64{326, 3238, 98797, 1, 326, 0}
	if res.Status != sat.Sat || got != want || res.Vars != 7976 || res.Clauses != 24201 {
		t.Errorf("dgx1 Allgather (6,7,7): %v vars %d clauses %d {conflicts decisions propagations restarts learnt removed} = %v, want SAT 7976 24201 %v",
			res.Status, res.Vars, res.Clauses, got, want)
	}

	var ps ParetoStats
	front, err := ParetoSynthesize(collective.Broadcast, topology.DGX1(), 0,
		ParetoOptions{K: 2, MaxChunks: 6, Workers: 1, Stats: &ps})
	if err != nil {
		t.Fatal(err)
	}
	gotSweep := [6]int64{int64(len(front)), int64(ps.Probes), int64(ps.SessionProbes),
		int64(ps.CoreSolves), int64(ps.PrunedProbes), ps.CarriedLearnts}
	wantSweep := [6]int64{9, 18, 15, 6, 0, 600}
	if gotSweep != wantSweep {
		t.Errorf("dgx1 Broadcast k=2 C<=6 sweep: {points probes sessionProbes coreSolves prunedProbes carriedLearnts} = %v, want %v",
			gotSweep, wantSweep)
	}

	// A rooted sweep on a 16-node fabric: Gather's node-symmetry plan is
	// the root stabilizer, so a change to the plan rule for rooted
	// collectives moves these counts.
	var rs ParetoStats
	front, err = ParetoSynthesize(collective.Gather, topology.Hypercube(4), 0,
		ParetoOptions{K: 1, MaxSteps: 6, MaxChunks: 1, Workers: 1, Stats: &rs})
	if err != nil {
		t.Fatal(err)
	}
	gotRooted := [6]int64{int64(len(front)), int64(rs.Probes), rs.Conflicts, int64(rs.Clauses),
		int64(rs.SymmetryPerms), int64(rs.QuotientFallbacks)}
	wantRooted := [6]int64{3, 3, 1001, 129616, 9, 3}
	if gotRooted != wantRooted {
		t.Errorf("hypercube:4 Gather k=1 S<=6 C<=1 sweep: {points probes conflicts clauses symmetryPerms quotientFallbacks} = %v, want %v",
			gotRooted, wantRooted)
	}
}

// BenchmarkSolveTable4Row is the solver-layer row for a real formula: the
// encode runs outside the timer, so ns/conflict and allocs/conflict are
// the CDCL core's alone. live-heap-MB is the heap the encoded and solved
// instance retains (clause store, watch lists and the encoder's variable
// tables), measured after a forced collection.
func BenchmarkSolveTable4Row(b *testing.B) {
	in := table4Row(b)
	b.ReportAllocs()
	var conflicts int64
	var mallocs, heap uint64
	var ms runtime.MemStats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		base := ms.HeapAlloc
		e := encodePaper(in, Options{})
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		b.StartTimer()
		st := e.ctx.SolveContext(context.Background())
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		if st != sat.Sat {
			b.Fatalf("status %v, want SAT", st)
		}
		conflicts += e.ctx.Solver.Stats().Conflicts
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > base {
			heap += ms.HeapAlloc - base
		}
		runtime.KeepAlive(e)
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(conflicts), "ns/conflict")
	b.ReportMetric(float64(mallocs)/float64(conflicts), "allocs/conflict")
	b.ReportMetric(float64(heap)/float64(b.N)/(1<<20), "live-heap-MB")
}

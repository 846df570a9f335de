package synth

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/collective"
	"repro/internal/sat"
	"repro/internal/topology"
)

// sweepLog runs one default-path sweep at Workers 1 and returns its stats
// and progress lines in order.
func sweepLog(t *testing.T, kind collective.Kind, topo *topology.Topology, opts ParetoOptions) (ParetoStats, []string) {
	t.Helper()
	var stats ParetoStats
	var lines []string
	opts.Workers = 1
	opts.Stats = &stats
	opts.Progress = func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	if _, err := ParetoSynthesize(kind, topo, 0, opts); err != nil {
		t.Fatal(err)
	}
	return stats, lines
}

// TestMegaAdoptionRule is the table of the one rule that selects between
// the two probe paths: a sweep solves one-shot until it has seen
// megaAdoptUnsats one-shot refutations, then routes every later probe
// through a pooled mega-base; sweeps whose probes are Sat on first try
// and sweeps the orbit quotient carries never leave the one-shot path.
func TestMegaAdoptionRule(t *testing.T) {
	cases := []struct {
		name   string
		kind   collective.Kind
		topo   *topology.Topology
		opts   ParetoOptions
		adopts bool
	}{
		{"ring8-broadcast-k2", collective.Broadcast, topology.Ring(8), ParetoOptions{K: 2}, true},
		{"amd-broadcast-k3", collective.Broadcast, topology.AMDZ52(), ParetoOptions{K: 3}, true},
		// Almost every probe Sat on first try: the base would never pay.
		{"dgx1-allgather-k2", collective.Allgather, topology.DGX1(), ParetoOptions{K: 2, MaxSteps: 4, MaxChunks: 4}, false},
		// Fixed-point-free instance stabilizers: the orbit quotient
		// answers these.
		{"hypercube4-allgather-k1", collective.Allgather, topology.Hypercube(4), ParetoOptions{K: 1, MaxChunks: 2}, false},
		{"torus4x4-allgather-k1", collective.Allgather, topology.Torus2D(4, 4), ParetoOptions{K: 1, MaxChunks: 1}, false},
		{"dgx1-alltoall-k1", collective.Alltoall, topology.DGX1(), ParetoOptions{K: 1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stats, lines := sweepLog(t, tc.kind, tc.topo, tc.opts)
			ref := tc.opts
			ref.NoSessions = true
			refStats, _ := sweepLog(t, tc.kind, tc.topo, ref)
			if !tc.adopts {
				if stats.SessionProbes != 0 || stats.MegaEncodes != 0 || stats.Families != 0 {
					t.Errorf("sweep left the one-shot path: %+v", stats)
				}
				if stats.Probes != refStats.Probes || stats.QuotientProbes != refStats.QuotientProbes ||
					stats.QuotientFallbacks != refStats.QuotientFallbacks || stats.SymmetryPerms != refStats.SymmetryPerms {
					t.Errorf("one-shot sweep diverged from NoSessions:\n got %+v\nwant %+v", stats, refStats)
				}
				return
			}
			if stats.SessionProbes == 0 || stats.MegaEncodes != 1 {
				t.Fatalf("sweep never adopted the mega-base: %+v", stats)
			}
			// The probes before the hand-off are one-shot and end on the
			// megaAdoptUnsats-th refutation; every probe after it is a
			// session probe.
			unsats, before := 0, 0
			for _, l := range lines {
				if strings.Contains(l, "adopting the mega-base") {
					break
				}
				before++
				if strings.HasSuffix(strings.SplitN(l, " (", 2)[0], sat.Unsat.String()) {
					unsats++
				}
			}
			if unsats != megaAdoptUnsats {
				t.Errorf("%d one-shot refutations before adoption, want %d", unsats, megaAdoptUnsats)
			}
			if got := stats.Probes - stats.SessionProbes; got != before {
				t.Errorf("%d one-shot probes in the stats, %d before the hand-off", got, before)
			}
		})
	}
}

// TestMegaAdoptionDeclines pins the two ways adoption closes without a
// session — a probe that engaged the orbit quotient rules the mega-base
// out for the sweep, and the pool declines a chunk universe past
// megaMaxChunks — against the plain case that adopts on exactly the
// megaAdoptUnsats-th refutation.
func TestMegaAdoptionDeclines(t *testing.T) {
	pool := NewSessionPool()
	defer pool.Close()
	sweep := func(kind collective.Kind, topo *topology.Topology, maxChunks int) *paretoSweep {
		return &paretoSweep{
			kind: kind, topo: topo, pool: pool,
			opts:     ParetoOptions{K: 1, MaxSteps: topo.P + 2, MaxChunks: maxChunks},
			progress: SerializedProgress(nil),
		}
	}
	unsat := Result{Status: sat.Unsat}

	w := sweep(collective.Broadcast, topology.Ring(6), 2)
	w.considerAdoption(unsat)
	w.considerAdoption(Result{Status: sat.Unsat, ProbeStats: ProbeStats{QuotientFallbacks: 1}})
	for i := 0; i < megaAdoptUnsats; i++ {
		w.considerAdoption(unsat)
	}
	if w.mega != nil || pool.MegaLen() != 0 {
		t.Error("a quotient sweep adopted the mega-base")
	}

	// Allgather on 17 nodes at the default C <= 2P: 17 signatures x 34
	// copies = 578 universe chunks.
	w = sweep(collective.Allgather, topology.Ring(17), 34)
	for i := 0; i < megaAdoptUnsats; i++ {
		w.considerAdoption(unsat)
	}
	if w.mega != nil || !w.adoptClosed || pool.MegaLen() != 0 {
		t.Errorf("pool hosted a universe past megaMaxChunks=%d", megaMaxChunks)
	}

	w = sweep(collective.Broadcast, topology.Ring(6), 2)
	for i := 0; i < megaAdoptUnsats; i++ {
		if w.mega != nil {
			t.Fatalf("adopted after %d refutations, want %d", i, megaAdoptUnsats)
		}
		w.considerAdoption(Result{Status: sat.Sat})
		w.considerAdoption(unsat)
	}
	if w.mega == nil || pool.MegaLen() != 1 {
		t.Error("sweep did not adopt after megaAdoptUnsats refutations")
	}
}

// TestMegaAdoptionHandOffConcurrent drives the hand-off under load: with
// four workers, one-shot probes dispatched before adoption finish while
// mega probes dispatched after it are already running. Run under -race in
// CI; the frontier must match the one-shot reference either way.
func TestMegaAdoptionHandOffConcurrent(t *testing.T) {
	topo := topology.BidirRing(8)
	base := ParetoOptions{K: 2, MaxSteps: 6, MaxChunks: 6}
	ref := base
	ref.NoSessions = true
	want, err := ParetoSynthesize(collective.Broadcast, topo, 0, ref)
	if err != nil {
		t.Fatal(err)
	}
	// A shared pool across concurrent sweeps: the second adopter must find
	// (or race to build) the same covering session.
	pool := NewSessionPool()
	defer pool.Close()
	var wg sync.WaitGroup
	var fronts [2][]ParetoPoint
	var stats [2]ParetoStats
	var errs [2]error
	for i := range fronts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := base
			opts.Workers = 4
			opts.Pool = pool
			opts.Stats = &stats[i]
			fronts[i], errs[i] = ParetoSynthesize(collective.Broadcast, topo, 0, opts)
		}(i)
	}
	wg.Wait()
	for i := range fronts {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if string(frontierBytes(t, fronts[i])) != string(frontierBytes(t, want)) {
			t.Errorf("hand-off frontier differs from one-shot:\n got %v\nwant %v", fronts[i], want)
		}
		if stats[i].SessionProbes == 0 {
			t.Errorf("sweep never adopted: %+v", stats[i])
		}
	}
	if pool.MegaLen() != 1 {
		t.Errorf("%d mega sessions for one topology, want 1", pool.MegaLen())
	}
}

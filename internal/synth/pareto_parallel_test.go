package synth

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/topology"
)

// frontierKey flattens the determinism-relevant fields of a frontier.
func frontierKey(pts []ParetoPoint) string {
	s := ""
	for _, p := range pts {
		s += fmt.Sprintf("(%d,%d,%d,%v,%v);", p.C, p.S, p.R, p.LatencyOptimal, p.BandwidthOptimal)
	}
	return s
}

func TestParallelFrontierMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		kind collective.Kind
		topo *topology.Topology
	}{
		{"ring4-allgather", collective.Allgather, topology.Ring(4)},
		{"ring4-broadcast", collective.Broadcast, topology.Ring(4)},
		{"line4-allgather", collective.Allgather, topology.Line(4)},
		{"line4-broadcast", collective.Broadcast, topology.Line(4)},
		{"bidir4-allgather", collective.Allgather, topology.BidirRing(4)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := ParetoOptions{K: 1, MaxSteps: 6, MaxChunks: 4}
			seq, err := ParetoSynthesize(tc.kind, tc.topo, 0, base)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 8} {
				opts := base
				opts.Workers = workers
				par, err := ParetoSynthesize(tc.kind, tc.topo, 0, opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if frontierKey(par) != frontierKey(seq) {
					t.Errorf("workers=%d frontier %v != sequential %v", workers, par, seq)
				}
			}
		})
	}
}

func TestParallelFrontierMatchesSequentialDGX1(t *testing.T) {
	// The acceptance check: DGX-1 Allgather with Workers=4 must return the
	// identical frontier, in the same order, as Workers=1. K=4 lets the
	// sweep reach the paper's bandwidth-optimal (6,3,7) point.
	base := ParetoOptions{K: 4, MaxSteps: 3, MaxChunks: 6}
	seq, err := ParetoSynthesize(collective.Allgather, topology.DGX1(), 0, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) == 0 || !seq[len(seq)-1].BandwidthOptimal {
		t.Fatalf("sequential sweep should end bandwidth-optimal, got %v", seq)
	}
	opts := base
	opts.Workers = 4
	var stats ParetoStats
	opts.Stats = &stats
	par, err := ParetoSynthesize(collective.Allgather, topology.DGX1(), 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if frontierKey(par) != frontierKey(seq) {
		t.Errorf("workers=4 frontier %v != sequential %v", par, seq)
	}
	if stats.Probes == 0 || stats.ProbeTime <= 0 || stats.Wall <= 0 {
		t.Errorf("stats not populated: %+v", stats)
	}
}

func TestParetoCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts, err := ParetoSynthesize(collective.Allgather, topology.Ring(4), 0,
		ParetoOptions{K: 1, MaxSteps: 6, MaxChunks: 4, Workers: 4, Context: ctx})
	if err == nil {
		t.Fatalf("cancelled sweep should error, got %d points", len(pts))
	}
	if ctxErr := context.Cause(ctx); ctxErr == nil {
		t.Fatal("context should be cancelled")
	}
}

func TestParetoCancellationMidSweep(t *testing.T) {
	// Cancel shortly after the sweep starts on an instance family large
	// enough that probes are still running; the sweep must return quickly.
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(50*time.Millisecond, cancel)
	defer timer.Stop()
	t0 := time.Now()
	_, err := ParetoSynthesize(collective.Allgather, topology.DGX1(), 0,
		ParetoOptions{K: 4, MaxSteps: 3, MaxChunks: 6, Workers: 4, Context: ctx})
	elapsed := time.Since(t0)
	if err == nil {
		t.Fatal("cancelled sweep should error")
	}
	if elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
}

func TestParetoProgressConcurrentSafe(t *testing.T) {
	// The Progress sink must serialize callbacks; under -race this fails
	// loudly if two workers ever enter the callback concurrently.
	var lines []string
	var inCallback bool
	var mu sync.Mutex
	progress := func(format string, args ...any) {
		mu.Lock()
		if inCallback {
			mu.Unlock()
			t.Error("Progress invoked concurrently")
			return
		}
		inCallback = true
		mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Lock()
		inCallback = false
		mu.Unlock()
	}
	_, err := ParetoSynthesize(collective.Allgather, topology.BidirRing(4), 0,
		ParetoOptions{K: 1, MaxSteps: 6, MaxChunks: 4, Workers: 8, Progress: progress})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("no progress lines recorded")
	}
	for _, l := range lines {
		if l == "" {
			t.Fatal("empty progress line")
		}
	}
}

func TestParetoStatsSequential(t *testing.T) {
	var stats ParetoStats
	pts, err := ParetoSynthesize(collective.Allgather, topology.Ring(4), 0,
		ParetoOptions{K: 0, MaxSteps: 6, MaxChunks: 4, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("points: %v", pts)
	}
	if stats.Probes == 0 {
		t.Errorf("no probes recorded: %+v", stats)
	}
	if stats.Pruned != 0 {
		t.Errorf("sequential sweep pruned %d probes", stats.Pruned)
	}
}

package synth

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/sat"
	"repro/internal/topology"
)

// TestBudgetCoreDominance pins the dominance classification table.
func TestBudgetCoreDominance(t *testing.T) {
	cases := []struct {
		core        BudgetCore
		steps, rnds bool
	}{
		{BudgetCore{Empty: true}, true, true},
		{BudgetCore{PostArrival: true}, true, false},
		{BudgetCore{RoundUpper: true}, false, true},
		{BudgetCore{PostArrival: true, RoundUpper: true}, false, true},
		{BudgetCore{RoundLower: true}, false, false},
		{BudgetCore{RoundLower: true, RoundUpper: true}, false, false},
		{BudgetCore{PostArrival: true, RoundLower: true}, false, false},
		{BudgetCore{}, false, false}, // unclassified non-empty shape
	}
	for i, tc := range cases {
		if got := tc.core.DominatesSteps(); got != tc.steps {
			t.Errorf("case %d %v: DominatesSteps=%v, want %v", i, tc.core, got, tc.steps)
		}
		if got := tc.core.DominatesRounds(); got != tc.rnds {
			t.Errorf("case %d %v: DominatesRounds=%v, want %v", i, tc.core, got, tc.rnds)
		}
	}
}

// TestSessionCoreDominanceSound is the ground-truth check for the
// unsat-core pruning chain: for every session probe that reports a core,
// each budget the core claims to dominate must be Unsat under an
// independent one-shot solve. A single violation here would mean the
// sweep could skip a satisfiable budget and corrupt a frontier.
func TestSessionCoreDominanceSound(t *testing.T) {
	oneShot := map[string]sat.Status{}
	status := func(coll *collective.Spec, topo *topology.Topology, s, r int) sat.Status {
		key := fmt.Sprintf("%s|%s|%d|%d", coll.Fingerprint(), topo.Fingerprint(), s, r)
		if st, ok := oneShot[key]; ok {
			return st
		}
		res, err := Synthesize(Instance{Coll: coll, Topo: topo, Steps: s, Round: r}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		oneShot[key] = res.Status
		return res.Status
	}
	const maxSteps, k = 5, 2
	cores := 0
	kinds := []collective.Kind{collective.Allgather, collective.Broadcast}
	for _, topo := range []*topology.Topology{topology.Ring(4), topology.BidirRing(5)} {
		mega := NewMegaSession(topo, 0, Options{}, kinds, 2, maxSteps, k)
		if mega == nil {
			t.Fatalf("%s: no mega session", topo.Name)
		}
		for _, kind := range kinds {
			for _, c := range []int{1, 2} {
				coll, err := collective.New(kind, topo.P, c, 0)
				if err != nil {
					t.Fatal(err)
				}
				sess := mega.View(coll)
				if sess == nil {
					t.Fatalf("%s %v c=%d: no view", topo.Name, kind, c)
				}
				for s := 1; s <= maxSteps; s++ {
					for r := s; r <= s+k; r++ {
						res, err := sess.Solve(context.Background(), s, r, Options{})
						if err != nil {
							t.Fatal(err)
						}
						if res.Core == nil {
							continue
						}
						cores++
						if res.Status != sat.Unsat {
							t.Fatalf("%s %v c=%d s=%d r=%d: core %v on a %v answer",
								topo.Name, kind, c, s, r, res.Core, res.Status)
						}
						if res.Core.Steps != s || res.Core.Rounds != r {
							t.Fatalf("core %v carries wrong budget for s=%d r=%d", res.Core, s, r)
						}
						if res.Core.DominatesSteps() {
							for s2 := 1; s2 <= s; s2++ {
								for r2 := s2; r2 <= s2+k; r2++ {
									if got := status(coll, topo, s2, r2); got != sat.Unsat {
										t.Errorf("%s %v c=%d: core %v at (S=%d,R=%d) claims (S=%d,R=%d) dominated, but one-shot says %v",
											topo.Name, kind, c, res.Core, s, r, s2, r2, got)
									}
								}
							}
						}
						if res.Core.DominatesRounds() {
							for r2 := s; r2 <= r; r2++ {
								if got := status(coll, topo, s, r2); got != sat.Unsat {
									t.Errorf("%s %v c=%d: core %v at (S=%d,R=%d) claims (S=%d,R=%d) dominated, but one-shot says %v",
										topo.Name, kind, c, res.Core, s, r, s, r2, got)
								}
							}
						}
					}
				}
			}
		}
		mega.Close()
	}
	if cores == 0 {
		t.Fatal("no session probe produced a budget core; the analysis is dead")
	}
}

// TestParetoUnsatCorePruning is the acceptance sweep: on the bidir-ring
// Broadcast suite the scheduler must skip dominated candidates
// (PrunedProbes > 0) while returning a frontier byte-identical to the
// session-less one-shot sweep, for both worker counts. The sweep also
// loses chain-top gambles (a capped top probe that answers Unknown is
// discarded); their encode and solve walls must land in the stats like
// their probe wall does.
func TestParetoUnsatCorePruning(t *testing.T) {
	topo := topology.BidirRing(10)
	base := ParetoOptions{K: 3, MaxSteps: 7, MaxChunks: 12}
	oneShot := base
	oneShot.NoSessions = true
	var oneShotStats ParetoStats
	oneShot.Stats = &oneShotStats
	want, err := ParetoSynthesize(collective.Broadcast, topo, 0, oneShot)
	if err != nil {
		t.Fatal(err)
	}
	if oneShotStats.PrunedProbes != 0 || oneShotStats.CoreSolves != 0 {
		t.Fatalf("one-shot sweep used cores: %+v", oneShotStats)
	}
	wantBytes := frontierBytes(t, want)
	for _, workers := range []int{1, 4} {
		opts := base
		opts.Workers = workers
		var stats ParetoStats
		opts.Stats = &stats
		discarded := 0
		opts.Progress = func(format string, args ...any) {
			line := fmt.Sprintf(format, args...)
			if strings.Contains(line, "chain-top") && !strings.Contains(line, ": "+sat.Unsat.String()+" (") {
				discarded++
			}
		}
		got, err := ParetoSynthesize(collective.Broadcast, topo, 0, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if workers == 1 && discarded == 0 {
			t.Error("sweep lost no chain-top gamble; the discard accounting went unexercised")
		}
		if stats.EncodeTime+stats.SolveTime > stats.ProbeTime {
			t.Errorf("workers=%d: encode %v + solve %v exceed the probe wall %v",
				workers, stats.EncodeTime, stats.SolveTime, stats.ProbeTime)
		}
		if gotBytes := frontierBytes(t, got); string(gotBytes) != string(wantBytes) {
			t.Errorf("workers=%d: pruned frontier differs from one-shot\n got: %s\nwant: %s",
				workers, gotBytes, wantBytes)
		}
		if stats.CoreSolves == 0 {
			t.Errorf("workers=%d: no Unsat probe produced a core: %+v", workers, stats)
		}
		if stats.PrunedProbes == 0 {
			t.Errorf("workers=%d: dominance pruning never fired: %+v", workers, stats)
		}
		t.Logf("workers=%d: probes=%d pruned=%d coreSolves=%d prunedProbes=%d solve=%s",
			workers, stats.Probes, stats.Pruned, stats.CoreSolves, stats.PrunedProbes, stats.SolveTime)
	}
}

// TestDiscardedGambleCountsAllWalls feeds the accounting the run loop
// applies to a discarded gamble — a speculative chain-top probe that
// answered Sat and goes back to the pending pool — and checks its encode
// and solve time move the sweep totals alongside its probe wall, without
// counting a completed probe.
func TestDiscardedGambleCountsAllWalls(t *testing.T) {
	w := &paretoSweep{}
	w.accountWall(&probeOutcome{escalated: true, dur: 9 * time.Millisecond,
		res: Result{Status: sat.Sat, Encode: 2 * time.Millisecond, Solve: 5 * time.Millisecond}})
	if w.stats.ProbeTime != 9*time.Millisecond || w.stats.EncodeTime != 2*time.Millisecond || w.stats.SolveTime != 5*time.Millisecond {
		t.Errorf("discarded gamble folded as %+v", w.stats)
	}
	if w.stats.Probes != 0 {
		t.Errorf("discarded gamble counted as a completed probe: %+v", w.stats)
	}
}

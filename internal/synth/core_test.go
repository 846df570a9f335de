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

// TestSessionCoreIsFinalConflict pins the core rule: an Unsat session
// probe's BudgetCore is the classification of the solver's own final
// conflict, and its Stats are the cost of that one solve. A twin session
// replays the same probes and discharges the target budget's assumptions
// directly. A probe that searched again after its conflict — re-solving
// under reduced assumption sets to shrink a mixed core, say — would
// report more decisions than the twin's solve and leave the re-solve's
// failed assumptions on the solver, not the probe's.
func TestSessionCoreIsFinalConflict(t *testing.T) {
	ctx := context.Background()
	topo := topology.Ring(8)
	coll, err := collective.New(collective.Broadcast, topo.P, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	open := func() (*MegaSession, *MegaFamilyView) {
		m := NewMegaSession(topo, 0, Options{}, []collective.Kind{collective.Broadcast}, 3, 8, 2)
		v := m.View(coll)
		if v == nil {
			t.Fatal("ring:8 Broadcast C=3: no mega view")
		}
		return m, v
	}
	a, va := open()
	defer a.Close()
	b, vb := open()
	defer b.Close()
	mixed, searched := 0, 0
	for s := 1; s <= 8; s++ {
		for r := s; r <= s+2; r++ {
			res, err := va.Solve(ctx, s, r, Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Every other probe, and the one that builds the base
			// (SessionReuses 0), is replayed on the twin as it ran here.
			if c := res.Core; c == nil || !c.PostArrival || !(c.RoundLower || c.RoundUpper) || res.SessionReuses == 0 {
				if _, err := vb.Solve(ctx, s, r, Options{}); err != nil {
					t.Fatal(err)
				}
				continue
			}
			lits, marks, prune := b.enc.assumeFamily(vb.mapping, vb.active, s, r)
			if prune != nil {
				t.Fatalf("(S=%d,R=%d): twin probe pruned %v", s, r, prune)
			}
			before := b.enc.ctx.Solver.Stats()
			if st := b.enc.ctx.SolveContext(ctx, lits...); st != sat.Unsat {
				t.Fatalf("(S=%d,R=%d): twin solve says %v", s, r, st)
			}
			solve := b.enc.ctx.Solver.Stats().Since(before)
			want := marks.classify(b.enc.ctx.Solver.FailedAssumptions(), s, r)
			_, liveMarks, _ := a.enc.assumeFamily(va.mapping, va.active, s, r)
			live := liveMarks.classify(a.enc.ctx.Solver.FailedAssumptions(), s, r)
			if want == nil || live == nil || *res.Core != *want || *res.Core != *live {
				t.Fatalf("(S=%d,R=%d): core %v, the probe's final conflict %v, the twin's %v", s, r, res.Core, live, want)
			}
			if res.Stats != solve {
				t.Fatalf("(S=%d,R=%d): probe stats %+v, its solve alone %+v", s, r, res.Stats, solve)
			}
			mixed++
			if solve.Conflicts > 0 {
				searched++
			}
		}
	}
	if searched == 0 {
		t.Fatalf("%d session probes left a mixed post-arrival and round core, none after a search", mixed)
	}
}

// TestParetoUnsatCorePruning is the acceptance sweep: on the bidir-ring
// Broadcast suite the serial scheduler must skip dominated candidates
// (PrunedProbes > 0), and both worker counts must return a frontier
// byte-identical to the session-less one-shot sweep. The sweep also
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
		// At Workers 4 the speculative probes can all resolve before any
		// core that would prune them exists, so pruning is asserted only
		// in the deterministic serial half.
		if workers == 1 && stats.PrunedProbes == 0 {
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
	w := &paretoSweep{stats: &ParetoStats{}}
	w.accountWall(&probeOutcome{escalated: true, dur: 9 * time.Millisecond,
		res: Result{Status: sat.Sat, Encode: 2 * time.Millisecond, Solve: 5 * time.Millisecond}})
	if w.stats.ProbeTime != 9*time.Millisecond || w.stats.EncodeTime != 2*time.Millisecond || w.stats.SolveTime != 5*time.Millisecond {
		t.Errorf("discarded gamble folded as %+v", w.stats)
	}
	if w.stats.Probes != 0 {
		t.Errorf("discarded gamble counted as a completed probe: %+v", w.stats)
	}
}

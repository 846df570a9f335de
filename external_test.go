package sccl_test

import (
	"context"
	"testing"
	"time"

	sccl "repro"
	"repro/internal/smt"
)

// runExternal discharges the script to the named solver binary and
// returns its sat/unsat verdict.
func runExternal(t *testing.T, solver string, script *sccl.Script) (bool, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := smt.RunExternal(ctx, solver, script)
	if err != nil {
		return false, err
	}
	if res.Unknown {
		t.Skip("external solver answered unknown")
	}
	return res.Sat, nil
}

// TestExternalSolverCrossCheck uses a real SMT solver, when one is
// installed, as an oracle for the built-in pipeline: the EmitSMTLIB
// script of each instance must get the verdict Engine.Synthesize reaches.
// Skipped otherwise (offline environments).
func TestExternalSolverCrossCheck(t *testing.T) {
	solver := smt.FindExternalSolver()
	if solver == "" {
		t.Skip("no external SMT solver on PATH")
	}
	eng := sccl.NewEngine(sccl.EngineOptions{Workers: 1})
	defer eng.Close()
	for _, tc := range []struct {
		kind    sccl.Kind
		topo    *sccl.Topology
		c, s, r int
	}{
		{sccl.Allgather, sccl.Ring(4), 1, 3, 3},
		{sccl.Allgather, sccl.Ring(4), 1, 2, 2},
		{sccl.Allgather, sccl.BidirRing(4), 1, 2, 3},
		{sccl.Broadcast, sccl.Line(4), 1, 3, 3},
	} {
		coll, err := sccl.NewCollective(tc.kind, tc.topo.P, tc.c, 0)
		if err != nil {
			t.Fatal(err)
		}
		script, err := sccl.EmitSMTLIB(sccl.Instance{Coll: coll, Topo: tc.topo, Steps: tc.s, Round: tc.r})
		if err != nil {
			t.Fatal(err)
		}
		extSat, err := runExternal(t, solver, script)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Synthesize(context.Background(), sccl.Request{
			Kind: tc.kind, Topo: tc.topo, Budget: sccl.Budget{C: tc.c, S: tc.s, R: tc.r},
		})
		if err != nil {
			t.Fatal(err)
		}
		if extSat != (res.Status == sccl.Sat) {
			t.Errorf("%v on %s (C=%d,S=%d,R=%d): %s sat=%v, engine %v",
				tc.kind, tc.topo.Name, tc.c, tc.s, tc.r, solver, extSat, res.Status)
		}
	}
}

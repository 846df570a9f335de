package synth

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/collective"
	"repro/internal/sat"
	"repro/internal/smt"
	"repro/internal/topology"
)

func TestParseBackend(t *testing.T) {
	for _, spec := range []string{"", "cdcl"} {
		b, err := ParseBackend(spec)
		if err != nil {
			t.Fatalf("ParseBackend(%q): %v", spec, err)
		}
		if b.Name() != "cdcl" {
			t.Errorf("ParseBackend(%q).Name() = %q", spec, b.Name())
		}
	}
	b, err := ParseBackend("smtlib:/opt/bin/z3")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "smtlib:/opt/bin/z3" {
		t.Errorf("Name() = %q", b.Name())
	}
	if _, err := ParseBackend("bogus"); err == nil {
		t.Error("ParseBackend(bogus) should fail")
	}
}

func TestCDCLBackendMatchesSynthesize(t *testing.T) {
	topo := topology.Ring(4)
	coll := mustSpec(t, collective.Allgather, 4, 1, 0)
	in := Instance{Coll: coll, Topo: topo, Steps: 3, Round: 3}
	direct, err := Synthesize(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	viaBackend, err := NewCDCLBackend().Solve(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Status != viaBackend.Status {
		t.Fatalf("status mismatch: %v vs %v", direct.Status, viaBackend.Status)
	}
	// Dispatch through Options.Backend must take the same route.
	dispatched, err := Synthesize(in, Options{Backend: NewCDCLBackend()})
	if err != nil {
		t.Fatal(err)
	}
	if dispatched.Status != direct.Status {
		t.Fatalf("dispatched status %v != %v", dispatched.Status, direct.Status)
	}
}

// fakeSolver writes a shell script that prints canned solver output, for
// hermetic SMT-backend tests without z3 installed.
func fakeSolver(t *testing.T, output string) string {
	t.Helper()
	if runtime.GOOS == "windows" {
		t.Skip("shell-script fake solver requires POSIX sh")
	}
	path := filepath.Join(t.TempDir(), "fakesolver")
	script := "#!/bin/sh\ncat <<'EOF'\n" + output + "\nEOF\n"
	if err := os.WriteFile(path, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSMTLIBBackendUnsat(t *testing.T) {
	b := &SMTLIBBackend{Binary: fakeSolver(t, "unsat")}
	coll := mustSpec(t, collective.Allgather, 4, 1, 0)
	in := Instance{Coll: coll, Topo: topology.Ring(4), Steps: 2, Round: 2}
	res, err := b.Solve(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Unsat {
		t.Fatalf("status %v, want Unsat", res.Status)
	}
}

func TestSMTLIBBackendUnknown(t *testing.T) {
	b := &SMTLIBBackend{Binary: fakeSolver(t, "unknown")}
	coll := mustSpec(t, collective.Allgather, 4, 1, 0)
	in := Instance{Coll: coll, Topo: topology.Ring(4), Steps: 3, Round: 3}
	res, err := b.Solve(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Unknown {
		t.Fatalf("status %v, want Unknown", res.Status)
	}
}

func TestSMTLIBBackendSatModelExtraction(t *testing.T) {
	// Hand-built model for Allgather on the directed 2-ring (C=1, S=1,
	// R=1): node 0 sends chunk 0 to node 1, node 1 sends chunk 1 to node
	// 0, both arriving at time 1 in a 1-round step.
	model := `sat
((time_c0_n0 0) (time_c0_n1 1) (time_c1_n0 1) (time_c1_n1 0)
 (snd_n0_c0_n1 true) (snd_n1_c0_n0 false)
 (snd_n0_c1_n1 false) (snd_n1_c1_n0 true)
 (r_0 1))`
	b := &SMTLIBBackend{Binary: fakeSolver(t, model)}
	coll := mustSpec(t, collective.Allgather, 2, 1, 0)
	in := Instance{Coll: coll, Topo: topology.Ring(2), Steps: 1, Round: 1}
	res, err := b.Solve(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Sat {
		t.Fatalf("status %v, want Sat", res.Status)
	}
	if res.Algorithm == nil {
		t.Fatal("Sat without algorithm")
	}
	if got := len(res.Algorithm.Sends); got != 2 {
		t.Fatalf("sends = %d, want 2", got)
	}
	if err := res.Algorithm.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSMTLIBBackendBogusModelRejected(t *testing.T) {
	// A model claiming sat without the sends needed to meet the
	// postcondition must fail validation, not return a broken algorithm.
	model := `sat
((time_c0_n0 0) (time_c0_n1 1) (time_c1_n0 1) (time_c1_n1 0)
 (snd_n0_c0_n1 false) (snd_n1_c0_n0 false)
 (snd_n0_c1_n1 false) (snd_n1_c1_n0 false)
 (r_0 1))`
	b := &SMTLIBBackend{Binary: fakeSolver(t, model)}
	coll := mustSpec(t, collective.Allgather, 2, 1, 0)
	in := Instance{Coll: coll, Topo: topology.Ring(2), Steps: 1, Round: 1}
	if _, err := b.Solve(context.Background(), in, Options{}); err == nil {
		t.Fatal("bogus model should be rejected by validation")
	}
}

func TestSMTLIBBackendMissingBinary(t *testing.T) {
	b := &SMTLIBBackend{Binary: "/nonexistent/solver-binary"}
	coll := mustSpec(t, collective.Allgather, 4, 1, 0)
	in := Instance{Coll: coll, Topo: topology.Ring(4), Steps: 3, Round: 3}
	if _, err := b.Solve(context.Background(), in, Options{}); err == nil {
		t.Fatal("missing binary should error")
	}
}

// TestSMTLIBBackendAgainstCDCL cross-checks the two backends on real
// instances when an external solver is installed.
func TestSMTLIBBackendAgainstCDCL(t *testing.T) {
	bin := smt.FindExternalSolver()
	if bin == "" {
		t.Skip("no external SMT solver on PATH")
	}
	b, err := NewSMTLIBBackend("")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		topo    *topology.Topology
		kind    collective.Kind
		c, s, r int
	}{
		{topology.Ring(4), collective.Allgather, 1, 3, 3},
		{topology.Ring(4), collective.Allgather, 1, 2, 2},
		{topology.BidirRing(4), collective.Allgather, 1, 2, 3},
		{topology.Line(4), collective.Broadcast, 1, 3, 3},
	}
	for _, tc := range cases {
		coll := mustSpec(t, tc.kind, tc.topo.P, tc.c, 0)
		in := Instance{Coll: coll, Topo: tc.topo, Steps: tc.s, Round: tc.r}
		cdcl, err := Synthesize(in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ext, err := b.Solve(context.Background(), in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if cdcl.Status != ext.Status {
			t.Errorf("%v on %s (C=%d,S=%d,R=%d): cdcl=%v smtlib=%v",
				tc.kind, tc.topo.Name, tc.c, tc.s, tc.r, cdcl.Status, ext.Status)
		}
	}
}

func TestParetoWithExplicitBackend(t *testing.T) {
	// The Backend rides inside ParetoOptions.Instance; the CDCL backend
	// must reproduce the default frontier.
	base := ParetoOptions{K: 1, MaxSteps: 6, MaxChunks: 4}
	seq, err := ParetoSynthesize(collective.Allgather, topology.BidirRing(4), 0, base)
	if err != nil {
		t.Fatal(err)
	}
	withBackend := base
	withBackend.Instance.Backend = NewCDCLBackend()
	withBackend.Workers = 4
	got, err := ParetoSynthesize(collective.Allgather, topology.BidirRing(4), 0, withBackend)
	if err != nil {
		t.Fatal(err)
	}
	if frontierKey(got) != frontierKey(seq) {
		t.Errorf("backend frontier %v != default %v", got, seq)
	}
}

// TestSMTLIBSessionFallsBackOneShot checks that a sweep over the SMT-LIB
// backend — which has no incremental mode — degrades to per-probe
// one-shot solving: however many refutations it sees, it never asks the
// pool for a mega-base.
func TestSMTLIBSessionFallsBackOneShot(t *testing.T) {
	pool := NewSessionPool()
	defer pool.Close()
	var stats ParetoStats
	pts, err := ParetoSynthesize(collective.Allgather, topology.Ring(4), 0, ParetoOptions{
		K: 1, MaxSteps: 4, MaxChunks: 3, Pool: pool, Stats: &stats,
		Instance: Options{Backend: &SMTLIBBackend{Binary: fakeSolver(t, "unsat")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 0 || stats.Probes <= megaAdoptUnsats {
		t.Fatalf("want an all-Unsat sweep past the adoption threshold, got %v after %d probes", pts, stats.Probes)
	}
	if stats.SessionProbes != 0 || stats.Families != 0 || stats.MegaEncodes != 0 || pool.MegaLen() != 0 {
		t.Errorf("SMT-LIB sweep left the one-shot path: %+v (%d pooled sessions)", stats, pool.MegaLen())
	}
}

func TestBackendNameFormat(t *testing.T) {
	b, err := NewSMTLIBBackend("z3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.Name(), "smtlib:") {
		t.Errorf("Name() = %q, want smtlib: prefix", b.Name())
	}
	_ = fmt.Sprintf("%v", b.Name())
}

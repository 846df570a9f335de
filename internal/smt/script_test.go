package smt

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestScriptRendering(t *testing.T) {
	s := NewScript()
	s.DeclareInt("x", 0, 7)
	s.DeclareBool("p")
	s.Assertf("(=> p (< x %d))", 5)
	out := s.String()
	for _, want := range []string{
		"(set-logic QF_LIA)",
		"(declare-const x Int)",
		"(declare-const p Bool)",
		"(assert (and (>= x 0) (<= x 7)))",
		"(assert (=> p (< x 5)))",
		"(check-sat)",
		"(get-value (p x))",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("script missing %q:\n%s", want, out)
		}
	}
}

func TestScriptDuplicateDeclIgnored(t *testing.T) {
	s := NewScript()
	s.DeclareInt("x", 0, 1)
	s.DeclareInt("x", 5, 9)
	if n := strings.Count(s.String(), "declare-const x"); n != 1 {
		t.Fatalf("x declared %d times", n)
	}
}

func TestParseSolverOutputSat(t *testing.T) {
	raw := `sat
((x 3) (p true) (q false) (y (- 2)))
`
	res, err := ParseSolverOutput(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sat {
		t.Fatal("want sat")
	}
	if res.Ints["x"] != 3 || res.Ints["y"] != -2 {
		t.Errorf("ints: %v", res.Ints)
	}
	if !res.Bools["p"] || res.Bools["q"] {
		t.Errorf("bools: %v", res.Bools)
	}
}

func TestParseSolverOutputUnsat(t *testing.T) {
	res, err := ParseSolverOutput("unsat\n")
	if err != nil {
		t.Fatal(err)
	}
	if res.Sat || res.Unknown {
		t.Fatal("want unsat")
	}
}

func TestParseSolverOutputUnknown(t *testing.T) {
	res, err := ParseSolverOutput("unknown\n")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unknown {
		t.Fatal("want unknown")
	}
}

func TestParseSolverOutputGarbage(t *testing.T) {
	if _, err := ParseSolverOutput("segfault\n"); err == nil {
		t.Fatal("want error")
	}
	if _, err := ParseSolverOutput("(error \"bad\")\nsat\n"); err == nil {
		t.Fatal("want error on solver error line")
	}
}

// TestRunExternalWithFakeSolver exercises the subprocess path hermetically
// using a shell script standing in for z3.
func TestRunExternalWithFakeSolver(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("shell-script fake solver requires POSIX sh")
	}
	dir := t.TempDir()
	fake := filepath.Join(dir, "fakez3")
	script := `#!/bin/sh
echo sat
echo '((x 42) (p true))'
`
	if err := os.WriteFile(fake, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	s := NewScript()
	s.DeclareInt("x", 0, 100)
	s.DeclareBool("p")
	res, err := RunExternal(context.Background(), fake, s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sat || res.Ints["x"] != 42 || !res.Bools["p"] {
		t.Fatalf("unexpected result: %+v", res)
	}
}

func TestRunExternalMissingBinary(t *testing.T) {
	s := NewScript()
	s.DeclareBool("p")
	if _, err := RunExternal(context.Background(), "/nonexistent/solver-binary", s); err == nil {
		t.Fatal("want error for missing binary")
	}
}

func TestFindExternalSolverNoCrash(t *testing.T) {
	// Just make sure it runs; environment may or may not have a solver.
	_ = FindExternalSolver()
}

func TestScriptPrelude(t *testing.T) {
	s := NewScript()
	s.DeclareInt("x", 0, 3)
	s.DeclareBool("b")
	s.Assertf("(=> b (= x 1))")
	p := s.Prelude()
	for _, want := range []string{"(set-logic QF_LIA)", "(declare-const x Int)", "(declare-const b Bool)", "(assert (=> b (= x 1)))"} {
		if !strings.Contains(p, want) {
			t.Errorf("prelude missing %q:\n%s", want, p)
		}
	}
	if strings.Contains(p, "(check-sat)") || strings.Contains(p, "(get-value") {
		t.Errorf("prelude must not issue queries:\n%s", p)
	}
}

package smt

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Script builds an SMT-LIB2 (QF_LIA) document. The SCCL synthesis encoder
// can emit its instance in this form so the result can be cross-checked
// against an external SMT solver (Z3, cvc5) run as a subprocess — the same
// route the paper uses, adapted to Go's lack of Z3 bindings.
type Script struct {
	decls   []string
	asserts []string
	names   map[string]bool
}

// NewScript returns an empty SMT-LIB2 script builder.
func NewScript() *Script { return newScript() }

func newScript() *Script {
	return &Script{names: map[string]bool{}}
}

// DeclareInt declares an Int constant with bound assertions.
func (s *Script) DeclareInt(name string, lo, hi int) {
	if s.names[name] {
		return
	}
	s.names[name] = true
	s.decls = append(s.decls, fmt.Sprintf("(declare-const %s Int)", name))
	s.asserts = append(s.asserts,
		fmt.Sprintf("(and (>= %s %d) (<= %s %d))", name, lo, name, hi))
}

// DeclareBool declares a Bool constant.
func (s *Script) DeclareBool(name string) {
	if s.names[name] {
		return
	}
	s.names[name] = true
	s.decls = append(s.decls, fmt.Sprintf("(declare-const %s Bool)", name))
}

// Assert appends a raw SMT-LIB assertion body (without the outer
// "(assert ...)").
func (s *Script) Assert(body string) {
	s.asserts = append(s.asserts, body)
}

// Assertf appends a formatted assertion body.
func (s *Script) Assertf(format string, args ...any) {
	s.Assert(fmt.Sprintf(format, args...))
}

// Names returns the sorted list of declared constant names.
func (s *Script) Names() []string {
	out := make([]string, 0, len(s.names))
	for n := range s.names {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// String renders the complete SMT-LIB2 document including check-sat and
// get-value for every declared constant.
func (s *Script) String() string {
	var b strings.Builder
	b.WriteString(s.Prelude())
	b.WriteString("(check-sat)\n")
	if len(s.names) > 0 {
		b.WriteString("(get-value (")
		for i, n := range s.Names() {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(n)
		}
		b.WriteString("))\n")
	}
	return b.String()
}

// Prelude renders the script's logic declaration, constant declarations
// and assertions without any (check-sat) or (get-value) commands.
func (s *Script) Prelude() string {
	var b strings.Builder
	b.WriteString("(set-logic QF_LIA)\n")
	for _, d := range s.decls {
		b.WriteString(d)
		b.WriteByte('\n')
	}
	for _, a := range s.asserts {
		b.WriteString("(assert ")
		b.WriteString(a)
		b.WriteString(")\n")
	}
	return b.String()
}

// ExternalResult is the parsed outcome of an external solver run.
type ExternalResult struct {
	Sat     bool
	Unknown bool
	// Ints maps declared Int names to model values (only on Sat).
	Ints map[string]int
	// Bools maps declared Bool names to model values (only on Sat).
	Bools map[string]bool
	// Raw is the solver's stdout, for diagnostics.
	Raw string
}

// FindExternalSolver searches PATH for a known SMT solver binary and
// returns its name, or "" if none is available.
func FindExternalSolver() string {
	for _, cand := range []string{"z3", "cvc5", "cvc4", "yices-smt2"} {
		if _, err := exec.LookPath(cand); err == nil {
			return cand
		}
	}
	return ""
}

// RunExternal writes the script to a temp file and runs the given solver
// binary on it, parsing check-sat and get-value output. The solver must
// accept a single SMT-LIB2 file argument (z3, cvc5 and yices-smt2 all do;
// extraArgs can carry flags such as z3's "-smt2").
func RunExternal(ctx context.Context, solver string, script *Script, extraArgs ...string) (*ExternalResult, error) {
	f, err := os.CreateTemp("", "sccl-*.smt2")
	if err != nil {
		return nil, fmt.Errorf("smt: temp file: %w", err)
	}
	defer os.Remove(f.Name())
	if _, err := f.WriteString(script.String()); err != nil {
		f.Close()
		return nil, fmt.Errorf("smt: write script: %w", err)
	}
	f.Close()

	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, 5*time.Minute)
		defer cancel()
	}
	args := append(append([]string{}, extraArgs...), f.Name())
	cmd := exec.CommandContext(ctx, solver, args...)
	// After the context kills the solver, don't wait forever for its I/O
	// pipes: a solver that forked children can hold them open past the
	// parent's death.
	cmd.WaitDelay = 2 * time.Second
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	// Solvers exit non-zero on unsat in some configurations; rely on output
	// parsing rather than the exit code when there is output to parse.
	runErr := cmd.Run()
	if ctx.Err() != nil {
		return nil, fmt.Errorf("smt: external solver: %w", ctx.Err())
	}
	if runErr != nil && out.Len() == 0 {
		return nil, fmt.Errorf("smt: external solver %s: %w", solver, runErr)
	}
	return ParseSolverOutput(out.String())
}

// ParseSolverOutput parses "sat"/"unsat"/"unknown" plus a get-value
// response of the form ((name val) (name val) ...).
func ParseSolverOutput(raw string) (*ExternalResult, error) {
	res := &ExternalResult{
		Ints:  map[string]int{},
		Bools: map[string]bool{},
		Raw:   raw,
	}
	sc := bufio.NewScanner(strings.NewReader(raw))
	status := ""
	var valueText strings.Builder
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch line {
		case "sat":
			status = "sat"
			continue
		case "unsat":
			status = "unsat"
			continue
		case "unknown":
			status = "unknown"
			continue
		}
		if strings.HasPrefix(line, "(error") {
			return nil, fmt.Errorf("smt: solver error: %s", line)
		}
		valueText.WriteString(line)
		valueText.WriteByte(' ')
	}
	switch status {
	case "sat":
		res.Sat = true
	case "unsat":
		res.Sat = false
	case "unknown":
		res.Unknown = true
		return res, nil
	default:
		return nil, fmt.Errorf("smt: no check-sat answer in output: %q", raw)
	}
	if !res.Sat {
		return res, nil
	}
	if err := parseValuePairs(valueText.String(), res); err != nil {
		return nil, err
	}
	return res, nil
}

// parseValuePairs extracts (name value) pairs from a get-value response.
// Handles negative integers in the "(- 5)" form.
func parseValuePairs(text string, res *ExternalResult) error {
	toks := tokenizeSexp(text)
	for i := 0; i < len(toks); i++ {
		if toks[i] != "(" {
			continue
		}
		// Expect: ( name value... )
		if i+1 >= len(toks) || toks[i+1] == "(" || toks[i+1] == ")" {
			continue
		}
		name := toks[i+1]
		j := i + 2
		if j >= len(toks) {
			break
		}
		switch toks[j] {
		case "true":
			res.Bools[name] = true
		case "false":
			res.Bools[name] = false
		case "(":
			// (- N)
			if j+2 < len(toks) && toks[j+1] == "-" {
				if n, err := strconv.Atoi(toks[j+2]); err == nil {
					res.Ints[name] = -n
				}
			}
		default:
			if n, err := strconv.Atoi(toks[j]); err == nil {
				res.Ints[name] = n
			}
		}
	}
	return nil
}

func tokenizeSexp(text string) []string {
	var toks []string
	cur := strings.Builder{}
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	for _, r := range text {
		switch r {
		case '(', ')':
			flush()
			toks = append(toks, string(r))
		case ' ', '\t', '\n', '\r':
			flush()
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return toks
}

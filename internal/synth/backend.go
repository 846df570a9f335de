package synth

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/algorithm"
	"repro/internal/sat"
	"repro/internal/smt"
)

// Backend is a pluggable solver backend discharging one SynColl instance.
// Implementations must be safe for concurrent Solve calls: the parallel
// Pareto scheduler shares a single Backend across its worker goroutines.
//
// Two implementations ship with the repository: the built-in CDCL encoder
// (NewCDCLBackend, the default) and the SMT-LIB2 subprocess driver
// (SMTLIBBackend) — the same route the SCCL paper uses with Z3, promoted
// here from a test-only cross-check to a first-class backend.
type Backend interface {
	// Name identifies the backend for logs and CLI output.
	Name() string
	// Solve discharges the instance. Cancelling ctx makes the solve
	// return with Status Unknown rather than an error, mirroring the
	// budget-exhaustion semantics of the built-in solver.
	Solve(ctx context.Context, in Instance, opts Options) (Result, error)
}

// cdclBackend is the built-in encode-to-CDCL pipeline.
type cdclBackend struct{}

func (cdclBackend) Name() string { return "cdcl" }

func (cdclBackend) Solve(ctx context.Context, in Instance, opts Options) (Result, error) {
	return synthesizeCDCL(ctx, in, opts)
}

// NewCDCLBackend returns the built-in CDCL backend — the same pipeline
// Synthesize uses when Options.Backend is nil.
func NewCDCLBackend() Backend { return cdclBackend{} }

// isCDCL reports whether b selects the built-in pipeline (nil does): the
// only backend whose probes can be projected out of a shared mega-base.
func isCDCL(b Backend) bool {
	if b == nil {
		return true
	}
	_, ok := b.(cdclBackend)
	return ok
}

// SMTLIBBackend discharges instances to an external SMT solver run as a
// subprocess over the SMT-LIB2 (QF_LIA) emission of constraints C1–C6.
type SMTLIBBackend struct {
	// Binary is the solver executable (a PATH name or absolute path). It
	// must accept a single SMT-LIB2 file argument, as z3, cvc5 and
	// yices-smt2 do.
	Binary string
	// ExtraArgs are placed before the script filename (e.g. z3's "-smt2").
	ExtraArgs []string
}

// NewSMTLIBBackend builds an external-solver backend. An empty binary
// auto-detects a known solver on PATH and errors when none is installed.
func NewSMTLIBBackend(binary string) (*SMTLIBBackend, error) {
	if binary == "" {
		binary = smt.FindExternalSolver()
		if binary == "" {
			return nil, fmt.Errorf("synth: no external SMT solver (z3, cvc5, cvc4, yices-smt2) on PATH")
		}
	}
	return &SMTLIBBackend{Binary: binary}, nil
}

// Name identifies the backend including the resolved binary.
func (b *SMTLIBBackend) Name() string { return "smtlib:" + b.Binary }

// Solve emits the instance as SMT-LIB2, runs the solver subprocess and
// rebuilds the algorithm from its model. Options.Timeout bounds the
// subprocess; timeout or cancellation reports Unknown. Unlike the CDCL
// backend, a zero Timeout is not unbounded: the subprocess stays under
// RunExternal's 5-minute safety deadline so a wedged solver cannot hang
// the sweep.
func (b *SMTLIBBackend) Solve(ctx context.Context, in Instance, opts Options) (Result, error) {
	var res Result
	if err := in.Validate(); err != nil {
		return res, err
	}
	t0 := time.Now()
	script, err := EmitSMTLIB(in)
	res.Encode = time.Since(t0)
	if err != nil {
		return res, err
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	t1 := time.Now()
	ext, err := smt.RunExternal(ctx, b.Binary, script, b.ExtraArgs...)
	res.Solve = time.Since(t1)
	if err != nil {
		// Timeouts and cancellation report Unknown like the built-in
		// solver's budget exhaustion. RunExternal applies its own default
		// deadline on a child context when none is set, so check the
		// error chain as well as our own context.
		if ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			res.Status = sat.Unknown
			return res, nil
		}
		return res, err
	}
	switch {
	case ext.Unknown:
		res.Status = sat.Unknown
		return res, nil
	case !ext.Sat:
		res.Status = sat.Unsat
		return res, nil
	}
	alg, err := algorithmFromModel(in, ext)
	if err != nil {
		return res, err
	}
	res.Status = sat.Sat
	res.Algorithm = alg
	return res, nil
}

// algorithmFromModel rebuilds the algorithm (Q, T) from an external
// solver's get-value response over the EmitSMTLIB variable names. The
// result is Validate()d, so a bogus model surfaces as an error instead of
// an invalid schedule.
func algorithmFromModel(in Instance, ext *smt.ExternalResult) (*algorithm.Algorithm, error) {
	S := in.Steps
	rounds := make([]int, S)
	for s := 0; s < S; s++ {
		r, ok := ext.Ints[fmt.Sprintf("r_%d", s)]
		if !ok {
			return nil, fmt.Errorf("synth: external model missing r_%d", s)
		}
		rounds[s] = r
	}
	var sends []algorithm.Send
	for c := 0; c < in.Coll.G; c++ {
		for _, l := range in.Topo.Edges() {
			if !ext.Bools[fmt.Sprintf("snd_n%d_c%d_n%d", l.Src, c, l.Dst)] {
				continue
			}
			t, ok := ext.Ints[fmt.Sprintf("time_c%d_n%d", c, l.Dst)]
			if !ok {
				return nil, fmt.Errorf("synth: external model missing time_c%d_n%d", c, l.Dst)
			}
			if t >= 1 && t <= S {
				sends = append(sends, algorithm.Send{Chunk: c, From: l.Src, To: l.Dst, Step: t - 1})
			}
		}
	}
	name := fmt.Sprintf("sccl-smtlib-%s-c%d-s%d-r%d", in.Coll.Kind, in.Coll.C, S, in.Round)
	alg := algorithm.New(name, in.Coll, in.Topo, rounds, sends)
	if err := alg.Validate(); err != nil {
		return nil, fmt.Errorf("synth: external model failed validation: %w", err)
	}
	return alg, nil
}

// ParseBackend resolves a CLI backend spec: "cdcl" (or empty) selects the
// built-in solver, "smtlib" auto-detects an external SMT solver on PATH,
// and "smtlib:BIN" runs the given solver binary.
func ParseBackend(spec string) (Backend, error) {
	switch {
	case spec == "" || spec == "cdcl":
		return NewCDCLBackend(), nil
	case spec == "smt" || spec == "smtlib":
		b, err := NewSMTLIBBackend("")
		if err != nil {
			return nil, err
		}
		return b, nil
	case strings.HasPrefix(spec, "smtlib:"):
		b, err := NewSMTLIBBackend(strings.TrimPrefix(spec, "smtlib:"))
		if err != nil {
			return nil, err
		}
		return b, nil
	}
	return nil, fmt.Errorf("synth: unknown backend %q (want cdcl or smtlib[:binary])", spec)
}

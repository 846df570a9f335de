package sccl

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/collective"
)

// Budget is the exact synthesis budget of a Request: C chunks per node,
// S synchronous steps, and R total rounds — the paper's k-synchronous
// class with k = R - S (§3.1).
type Budget struct {
	C int `json:"c"`
	S int `json:"s"`
	R int `json:"r"`
}

// Validate checks the budget invariants shared by every collective.
func (b Budget) Validate() error {
	if b.C < 1 {
		return fmt.Errorf("sccl: budget needs C >= 1 chunk per node (got %d)", b.C)
	}
	if b.S < 1 {
		return fmt.Errorf("sccl: budget needs S >= 1 step (got %d)", b.S)
	}
	if b.R < b.S {
		return fmt.Errorf("sccl: budget has R=%d < S=%d (each step takes >= 1 round)", b.R, b.S)
	}
	return nil
}

func (b Budget) String() string { return fmt.Sprintf("(C=%d,S=%d,R=%d)", b.C, b.S, b.R) }

// Request describes one synthesis query to an Engine: the collective
// kind, the topology, the root (for rooted collectives), and the exact
// (C, S, R) budget. For combining collectives the budget refers to the
// dual instance (paper §3.5): an Allreduce request with Budget{C, S, R}
// synthesizes its Allgather phase at that budget and composes to a
// (C·P, 2S, 2R) algorithm. Deadlines and cancellation flow through the
// ctx argument of Engine.Synthesize; Timeout additionally bounds the
// solver itself.
type Request struct {
	Kind Kind
	Topo *Topology
	// Spec names the topology structurally as an alternative to Topo:
	// when Topo is nil, Validate builds it from the spec. Supplying both
	// is an error unless they agree (same fingerprint). The built
	// topology — not the spec — is what fingerprints and serializes, so
	// a spec-posed request is indistinguishable from the equivalent
	// Topo-posed one.
	Spec   *TopologySpec
	Root   Node
	Budget Budget
	// Timeout bounds the solver for this request; zero uses the engine
	// default.
	Timeout time.Duration
	// Options overrides the engine's solver options (encoding, conflict
	// budget, symmetry, quotient) for this request. Nil uses the engine
	// defaults. Options are engine-local and not serialized.
	Options *SynthOptions
}

// Validate checks that the request is solvable as posed: a structurally
// valid topology, a known collective kind, a root in range, a coherent
// budget, and (for Allreduce) C divisible by P.
func (r *Request) Validate() error {
	if err := resolveSpec(&r.Topo, r.Spec, "request"); err != nil {
		return err
	}
	if err := r.Topo.Validate(); err != nil {
		return err
	}
	if int(r.Root) < 0 || int(r.Root) >= r.Topo.P {
		return fmt.Errorf("sccl: root %d out of range [0,%d)", r.Root, r.Topo.P)
	}
	if err := r.Budget.Validate(); err != nil {
		return err
	}
	if r.Timeout < 0 {
		return fmt.Errorf("sccl: negative timeout %v", r.Timeout)
	}
	// The budget of a combining collective refers to its dual instance,
	// so C carries no per-kind divisibility constraint here — only the
	// kind itself must be known.
	for _, k := range collective.Kinds() {
		if k == r.Kind {
			return nil
		}
	}
	return fmt.Errorf("sccl: unknown collective kind %v", r.Kind)
}

// resolveSpec reconciles the Topo/Spec alternatives of a request: a
// spec-only request builds its topology in place, and supplying both
// demands structural agreement so the two namings cannot drift.
func resolveSpec(topo **Topology, spec *TopologySpec, what string) error {
	if *topo == nil {
		if spec == nil {
			return fmt.Errorf("sccl: %s needs a topology or a topology spec", what)
		}
		built, err := spec.Build()
		if err != nil {
			return err
		}
		*topo = built
		return nil
	}
	if spec != nil {
		built, err := spec.Build()
		if err != nil {
			return err
		}
		if built.Fingerprint() != (*topo).Fingerprint() {
			return fmt.Errorf("sccl: %s topology and spec %s disagree", what, spec)
		}
	}
	return nil
}

type requestJSON struct {
	Version   int       `json:"version"`
	Kind      string    `json:"kind"`
	Topology  *Topology `json:"topology"`
	Root      int       `json:"root"`
	Budget    Budget    `json:"budget"`
	TimeoutNs int64     `json:"timeoutNs,omitempty"`
}

const serializeVersion = 1

// MarshalJSON renders the request in the stable v1 wire format. The
// solver Options override is engine-local and not serialized; a
// spec-posed request serializes its built topology, so the wire format
// is independent of which naming posed it.
func (r Request) MarshalJSON() ([]byte, error) {
	if err := resolveSpec(&r.Topo, r.Spec, "request"); err != nil {
		return nil, err
	}
	return json.Marshal(requestJSON{
		Version:   serializeVersion,
		Kind:      r.Kind.String(),
		Topology:  r.Topo,
		Root:      int(r.Root),
		Budget:    r.Budget,
		TimeoutNs: int64(r.Timeout),
	})
}

// UnmarshalJSON decodes the v1 wire format and re-validates the request.
func (r *Request) UnmarshalJSON(data []byte) error {
	var in requestJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if in.Version != serializeVersion {
		return fmt.Errorf("sccl: unsupported request JSON version %d (want %d)", in.Version, serializeVersion)
	}
	kind, err := ParseKind(in.Kind)
	if err != nil {
		return err
	}
	dec := Request{
		Kind:    kind,
		Topo:    in.Topology,
		Root:    Node(in.Root),
		Budget:  in.Budget,
		Timeout: time.Duration(in.TimeoutNs),
	}
	if err := dec.Validate(); err != nil {
		return fmt.Errorf("sccl: decoded request invalid: %w", err)
	}
	*r = dec
	return nil
}

// Result is the outcome of one engine synthesis request.
type Result struct {
	// Algorithm is the synthesized schedule; nil unless Status is Sat.
	Algorithm *Algorithm
	Status    Status
	// CacheHit reports that the result was served from the engine's
	// algorithm cache without running the solver.
	CacheHit bool
	// Wall is the end-to-end wall clock of the call (near zero on hits).
	Wall time.Duration
	// Fingerprint is the canonical request fingerprint the engine keyed
	// its cache with.
	Fingerprint string
}

type resultJSON struct {
	Version     int        `json:"version"`
	Status      string     `json:"status"`
	CacheHit    bool       `json:"cacheHit"`
	WallNs      int64      `json:"wallNs"`
	Fingerprint string     `json:"fingerprint"`
	Algorithm   *Algorithm `json:"algorithm,omitempty"`
}

func statusFromString(s string) (Status, error) {
	switch s {
	case Sat.String():
		return Sat, nil
	case Unsat.String():
		return Unsat, nil
	case Unknown.String():
		return Unknown, nil
	}
	return Unknown, fmt.Errorf("sccl: unknown status %q", s)
}

// MarshalJSON renders the result in the stable v1 wire format.
func (r Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(resultJSON{
		Version:     serializeVersion,
		Status:      r.Status.String(),
		CacheHit:    r.CacheHit,
		WallNs:      int64(r.Wall),
		Fingerprint: r.Fingerprint,
		Algorithm:   r.Algorithm,
	})
}

// UnmarshalJSON decodes the v1 wire format; the embedded algorithm (if
// any) re-validates during its own decode.
func (r *Result) UnmarshalJSON(data []byte) error {
	var in resultJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if in.Version != serializeVersion {
		return fmt.Errorf("sccl: unsupported result JSON version %d (want %d)", in.Version, serializeVersion)
	}
	status, err := statusFromString(in.Status)
	if err != nil {
		return err
	}
	if status == Sat && in.Algorithm == nil {
		return errors.New("sccl: SAT result JSON without an algorithm")
	}
	*r = Result{
		Algorithm:   in.Algorithm,
		Status:      status,
		CacheHit:    in.CacheHit,
		Wall:        time.Duration(in.WallNs),
		Fingerprint: in.Fingerprint,
	}
	return nil
}

// ParetoRequest describes one frontier sweep to an Engine: the
// non-combining collective kind, topology, root, and the Algorithm 1
// enumeration bounds.
type ParetoRequest struct {
	Kind Kind
	Topo *Topology
	// Spec names the topology structurally as an alternative to Topo,
	// with the same semantics as Request.Spec.
	Spec *TopologySpec
	Root Node
	// K bounds the algorithm class: R <= S + K.
	K int
	// MaxSteps caps the S enumeration; 0 selects the engine default
	// (P + 2).
	MaxSteps int
	// MaxChunks caps the per-node chunk count; 0 selects the engine
	// default (2P).
	MaxChunks int
	// Timeout bounds each probe's solver; zero uses the engine default.
	Timeout time.Duration
	// Workers overrides the engine worker-pool size for this sweep; 0
	// uses the engine default. The frontier is identical for every
	// worker count, so Workers is excluded from the fingerprint.
	Workers int
	// Progress, if non-nil, receives a line per probe (otherwise the
	// engine's sink does). Not serialized.
	Progress func(format string, args ...any) `json:"-"`
	// Options overrides the engine's solver options for this sweep. Nil
	// uses the engine defaults. Not serialized.
	Options *SynthOptions `json:"-"`
	// NoSessions disables incremental solver sessions for this sweep;
	// every probe solves one-shot. The frontier is byte-identical either
	// way, so the flag is excluded from the cache fingerprint.
	NoSessions bool `json:"-"`
}

type paretoRequestJSON struct {
	Version   int       `json:"version"`
	Kind      string    `json:"kind"`
	Topology  *Topology `json:"topology"`
	Root      int       `json:"root"`
	K         int       `json:"k"`
	MaxSteps  int       `json:"maxSteps,omitempty"`
	MaxChunks int       `json:"maxChunks,omitempty"`
	TimeoutNs int64     `json:"timeoutNs,omitempty"`
	Workers   int       `json:"workers,omitempty"`
}

// MarshalJSON renders the sweep request in the stable v1 wire format.
// Progress, Options and NoSessions are engine-local and not serialized;
// Workers travels as a scheduling hint (it never changes the frontier
// and is excluded from the cache fingerprint).
func (r ParetoRequest) MarshalJSON() ([]byte, error) {
	if err := resolveSpec(&r.Topo, r.Spec, "pareto request"); err != nil {
		return nil, err
	}
	return json.Marshal(paretoRequestJSON{
		Version:   serializeVersion,
		Kind:      r.Kind.String(),
		Topology:  r.Topo,
		Root:      int(r.Root),
		K:         r.K,
		MaxSteps:  r.MaxSteps,
		MaxChunks: r.MaxChunks,
		TimeoutNs: int64(r.Timeout),
		Workers:   r.Workers,
	})
}

// UnmarshalJSON decodes the v1 wire format and re-validates the sweep
// request.
func (r *ParetoRequest) UnmarshalJSON(data []byte) error {
	var in paretoRequestJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if in.Version != serializeVersion {
		return fmt.Errorf("sccl: unsupported pareto request JSON version %d (want %d)", in.Version, serializeVersion)
	}
	kind, err := ParseKind(in.Kind)
	if err != nil {
		return err
	}
	dec := ParetoRequest{
		Kind:      kind,
		Topo:      in.Topology,
		Root:      Node(in.Root),
		K:         in.K,
		MaxSteps:  in.MaxSteps,
		MaxChunks: in.MaxChunks,
		Timeout:   time.Duration(in.TimeoutNs),
		Workers:   in.Workers,
	}
	if err := dec.Validate(); err != nil {
		return fmt.Errorf("sccl: decoded pareto request invalid: %w", err)
	}
	*r = dec
	return nil
}

// Validate checks the sweep parameters.
func (r *ParetoRequest) Validate() error {
	if err := resolveSpec(&r.Topo, r.Spec, "pareto request"); err != nil {
		return err
	}
	if err := r.Topo.Validate(); err != nil {
		return err
	}
	if int(r.Root) < 0 || int(r.Root) >= r.Topo.P {
		return fmt.Errorf("sccl: root %d out of range [0,%d)", r.Root, r.Topo.P)
	}
	if r.K < 0 || r.MaxSteps < 0 || r.MaxChunks < 0 || r.Workers < 0 {
		return errors.New("sccl: pareto request has a negative bound")
	}
	if r.Timeout < 0 {
		return fmt.Errorf("sccl: negative timeout %v", r.Timeout)
	}
	if r.Kind.IsCombining() {
		return fmt.Errorf("sccl: Pareto needs a non-combining collective; got %v (use Engine.Synthesize)", r.Kind)
	}
	if _, err := collective.ToGlobal(r.Kind, r.Topo.P, 1); err != nil {
		return err
	}
	return nil
}

// ParetoResult is the outcome of one engine frontier sweep.
type ParetoResult struct {
	Points []ParetoPoint
	// Stats reports the probe scheduler's counters; zero when the sweep
	// was served from cache.
	Stats ParetoStats
	// CacheHit reports that the frontier came from the engine cache.
	CacheHit bool
	// Wall is the end-to-end wall clock of the call.
	Wall time.Duration
	// Fingerprint is the canonical sweep fingerprint.
	Fingerprint string
}

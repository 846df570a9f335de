package topology

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// SpecVersion is the wire-format tag of the structured topology spec.
const SpecVersion = "sccl.topology-spec/v1"

// Spec is a structured, versioned topology builder spec: a family name
// from the registry plus scalar parameters, with an optional nested
// base spec for hierarchical families (multinode). It is the canonical
// way to name a constructible topology — string forms parse into it,
// and every family registers in one table below.
type Spec struct {
	Family string         `json:"family"`
	Params map[string]int `json:"params,omitempty"`
	Base   *Spec          `json:"base,omitempty"`
}

// MaxSpecNodes caps the node count a spec or a topology document may
// describe. Validate checks it from the parameters alone, before any
// builder allocates, so a string such as "fc:100000" is refused instead
// of exhausting memory; Topology.UnmarshalJSON checks a document's "p".
// It is far above what a solver can synthesize for.
const MaxSpecNodes = 256

// paramDef is one declared parameter of a family: a name and an
// inclusive minimum (builders do the deeper validation).
type paramDef struct {
	name string
	min  int
}

// familyDef is one row of the topology registry: parameter schema,
// builder, string-form aliases and the custom argument syntax (if any).
// New families register here and nowhere else — ParseTopology, spec
// validation, JSON and the canonical string form all read this table.
type familyDef struct {
	family  string
	aliases []string   // string-form names; Family itself always works
	params  []paramDef // ordered: also the positional string-arg order
	nested  bool       // takes a nested base spec before the params
	// nodes is the node count the params describe (times the base's for
	// nested families), saturated just above MaxSpecNodes.
	nodes func(p map[string]int) int
	build func(s *Spec) (*Topology, error)
	// parseArgs/formatArgs override positional int parsing for families
	// with custom argument syntax (torus RxC). Optional.
	parseArgs  func(args []string) (map[string]int, error)
	formatArgs func(p map[string]int) string
}

func dims2(args []string) (map[string]int, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("need RxC")
	}
	d := strings.Split(args[0], "x")
	if len(d) != 2 {
		return nil, fmt.Errorf("need RxC, got %q", args[0])
	}
	r, err := strconv.Atoi(d[0])
	if err != nil {
		return nil, err
	}
	c, err := strconv.Atoi(d[1])
	if err != nil {
		return nil, err
	}
	return map[string]int{"rows": r, "cols": c}, nil
}

func dims3(args []string) (map[string]int, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("need AxBxC")
	}
	d := strings.Split(args[0], "x")
	if len(d) != 3 {
		return nil, fmt.Errorf("need AxBxC, got %q", args[0])
	}
	out := map[string]int{}
	for i, key := range []string{"dim1", "dim2", "dim3"} {
		v, err := strconv.Atoi(d[i])
		if err != nil {
			return nil, err
		}
		out[key] = v
	}
	return out, nil
}

// fixed is the node count of a family without size parameters.
func fixed(n int) func(map[string]int) int {
	return func(map[string]int) int { return n }
}

// product is the node count of a family sized by the product of the
// named parameters (each already at least 1).
func product(names ...string) func(map[string]int) int {
	return func(p map[string]int) int {
		n := 1
		for _, name := range names {
			n = saturatingMul(n, p[name])
		}
		return n
	}
}

func saturatingMul(a, b int) int {
	if b > (MaxSpecNodes+1)/a {
		return MaxSpecNodes + 1
	}
	return a * b
}

var families []familyDef

// The table is populated in init because the multinode row's builder
// recurses through Spec.Build, which reads the table.
func init() { families = familyTable() }

func familyTable() []familyDef {
	return []familyDef{
		{
			family: "dgx1", aliases: []string{"dgx-1"}, nodes: fixed(8),
			build: func(*Spec) (*Topology, error) { return DGX1(), nil },
		},
		{
			family: "dgx2", aliases: []string{"dgx-2"}, nodes: fixed(16),
			build: func(*Spec) (*Topology, error) { return DGX2(), nil },
		},
		{
			family: "amd-z52", aliases: []string{"amd", "z52"}, nodes: fixed(8),
			build: func(*Spec) (*Topology, error) { return AMDZ52(), nil },
		},
		{
			family: "ring", params: []paramDef{{"n", 2}}, nodes: product("n"),
			build: func(s *Spec) (*Topology, error) { return Ring(s.Params["n"]), nil },
		},
		{
			family: "bidir-ring", aliases: []string{"bring"}, params: []paramDef{{"n", 2}}, nodes: product("n"),
			build: func(s *Spec) (*Topology, error) { return BidirRing(s.Params["n"]), nil },
		},
		{
			family: "line", aliases: []string{"path"}, params: []paramDef{{"n", 2}}, nodes: product("n"),
			build: func(s *Spec) (*Topology, error) { return Line(s.Params["n"]), nil },
		},
		{
			family: "fully-connected", aliases: []string{"fc", "complete"}, params: []paramDef{{"n", 2}}, nodes: product("n"),
			build: func(s *Spec) (*Topology, error) { return FullyConnected(s.Params["n"]), nil },
		},
		{
			family: "star", params: []paramDef{{"n", 2}}, nodes: product("n"),
			build: func(s *Spec) (*Topology, error) { return Star(s.Params["n"]), nil },
		},
		{
			family: "hypercube", aliases: []string{"cube"}, params: []paramDef{{"d", 1}},
			nodes: func(p map[string]int) int {
				n := 1
				for i := 0; i < p["d"] && n <= MaxSpecNodes; i++ {
					n *= 2
				}
				return n
			},
			build: func(s *Spec) (*Topology, error) { return Hypercube(s.Params["d"]), nil },
		},
		{
			family: "torus", params: []paramDef{{"rows", 1}, {"cols", 1}}, nodes: product("rows", "cols"),
			parseArgs: dims2,
			formatArgs: func(p map[string]int) string {
				return fmt.Sprintf("%dx%d", p["rows"], p["cols"])
			},
			build: func(s *Spec) (*Topology, error) {
				return Torus2D(s.Params["rows"], s.Params["cols"]), nil
			},
		},
		{
			family: "torus3d", params: []paramDef{{"dim1", 1}, {"dim2", 1}, {"dim3", 1}},
			nodes:     product("dim1", "dim2", "dim3"),
			parseArgs: dims3,
			formatArgs: func(p map[string]int) string {
				return fmt.Sprintf("%dx%dx%d", p["dim1"], p["dim2"], p["dim3"])
			},
			build: func(s *Spec) (*Topology, error) {
				return Torus3D(s.Params["dim1"], s.Params["dim2"], s.Params["dim3"]), nil
			},
		},
		{
			family: "fat-tree", aliases: []string{"fattree"},
			params: []paramDef{{"pods", 1}, {"hosts", 1}, {"hostbw", 1}, {"uplinkbw", 1}},
			nodes:  product("pods", "hosts"),
			build: func(s *Spec) (*Topology, error) {
				return FatTree(s.Params["pods"], s.Params["hosts"], s.Params["hostbw"], s.Params["uplinkbw"]), nil
			},
		},
		{
			family: "dragonfly", aliases: []string{"dfly"},
			params: []paramDef{{"groups", 2}, {"routers", 1}, {"globalbw", 1}},
			nodes:  product("groups", "routers"),
			build: func(s *Spec) (*Topology, error) {
				return Dragonfly(s.Params["groups"], s.Params["routers"], s.Params["globalbw"]), nil
			},
		},
		{
			family: "bus", params: []paramDef{{"n", 2}, {"bw", 1}}, nodes: product("n"),
			build: func(s *Spec) (*Topology, error) {
				return SharedBus(s.Params["n"], s.Params["bw"]), nil
			},
		},
		{
			family: "multinode", aliases: []string{"multi-node", "mn"}, nested: true,
			params: []paramDef{{"count", 2}, {"nics", 1}, {"bw", 1}},
			nodes:  product("count"),
			build: func(s *Spec) (*Topology, error) {
				base, err := s.Base.Build()
				if err != nil {
					return nil, err
				}
				return MultiNode(base, s.Params["count"], s.Params["nics"], s.Params["bw"])
			},
		},
	}
}

func lookupFamily(name string) *familyDef {
	name = strings.ToLower(name)
	for i := range families {
		f := &families[i]
		if f.family == name {
			return f
		}
		for _, a := range f.aliases {
			if a == name {
				return f
			}
		}
	}
	return nil
}

// Families lists the registered family names in registry order.
func Families() []string {
	out := make([]string, len(families))
	for i := range families {
		out[i] = families[i].family
	}
	return out
}

// Validate checks the spec against the registry schema: known family,
// exactly the declared parameters, minimum bounds, and a valid nested
// base where the family requires one.
func (s *Spec) Validate() error {
	if s == nil {
		return fmt.Errorf("topology: nil spec")
	}
	f := lookupFamily(s.Family)
	if f == nil {
		return fmt.Errorf("topology: unknown family %q", s.Family)
	}
	for _, pd := range f.params {
		v, ok := s.Params[pd.name]
		if !ok {
			return fmt.Errorf("topology: %s spec missing parameter %q", f.family, pd.name)
		}
		if v < pd.min {
			return fmt.Errorf("topology: %s parameter %q = %d below minimum %d", f.family, pd.name, v, pd.min)
		}
	}
	for name := range s.Params {
		known := false
		for _, pd := range f.params {
			if pd.name == name {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("topology: %s spec has unknown parameter %q", f.family, name)
		}
	}
	if f.nested {
		if s.Base == nil {
			return fmt.Errorf("topology: %s spec needs a base spec", f.family)
		}
		if err := s.Base.Validate(); err != nil {
			return err
		}
	} else if s.Base != nil {
		return fmt.Errorf("topology: %s spec does not take a base", f.family)
	}
	if s.nodes() > MaxSpecNodes {
		return fmt.Errorf("topology: %s spec describes more than %d nodes", f.family, MaxSpecNodes)
	}
	return nil
}

// nodes is the node count of a schema-valid spec, saturated just above
// MaxSpecNodes.
func (s *Spec) nodes() int {
	f := lookupFamily(s.Family)
	n := f.nodes(s.Params)
	if f.nested {
		n = saturatingMul(n, s.Base.nodes())
	}
	return n
}

// Build validates the spec and constructs the topology.
func (s *Spec) Build() (*Topology, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	t, err := lookupFamily(s.Family).build(s)
	if err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// String renders the canonical string form, which ParseSpec parses back
// to an equal spec.
func (s *Spec) String() string {
	f := lookupFamily(s.Family)
	if f == nil {
		return s.Family
	}
	var b strings.Builder
	b.WriteString(f.family)
	if f.nested {
		b.WriteByte(':')
		b.WriteString(s.Base.String())
	}
	if f.formatArgs != nil {
		b.WriteByte(':')
		b.WriteString(f.formatArgs(s.Params))
	} else {
		for _, pd := range f.params {
			fmt.Fprintf(&b, ":%d", s.Params[pd.name])
		}
	}
	return b.String()
}

// specJSON is the versioned wire form of a spec tree.
type specJSON struct {
	Version string `json:"version"`
	Spec
}

// MarshalJSON renders the spec with its version tag. Nested base specs
// carry no tag of their own — the document's version governs the tree.
func (s *Spec) MarshalJSON() ([]byte, error) {
	type bare Spec // avoid recursing into this method
	return json.Marshal(struct {
		Version string `json:"version"`
		bare
	}{Version: SpecVersion, bare: bare(*s)})
}

// UnmarshalJSON decodes and validates a versioned spec document.
func (s *Spec) UnmarshalJSON(data []byte) error {
	type bare Spec
	var in struct {
		Version string `json:"version"`
		bare
	}
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if in.Version != SpecVersion {
		return fmt.Errorf("topology: unsupported spec version %q (want %q)", in.Version, SpecVersion)
	}
	dec := Spec(in.bare)
	if err := dec.Validate(); err != nil {
		return err
	}
	*s = dec
	return nil
}

// ParseSpec parses a topology string form ("torus:6x6",
// "multinode:dgx1:2:1:1") into a validated spec. Hierarchical families
// take the base spec inline, so the trailing scalar arguments are
// parsed from the right.
func ParseSpec(spec string) (*Spec, error) {
	parts := strings.Split(spec, ":")
	f := lookupFamily(parts[0])
	if f == nil {
		return nil, fmt.Errorf("topology: unknown topology %q", spec)
	}
	out := &Spec{Family: f.family}
	args := parts[1:]
	if f.nested {
		if len(args) < len(f.params)+1 {
			return nil, fmt.Errorf("topology: %s needs BASE plus %d arguments, got %q", f.family, len(f.params), spec)
		}
		base, err := ParseSpec(strings.Join(args[:len(args)-len(f.params)], ":"))
		if err != nil {
			return nil, err
		}
		out.Base = base
		args = args[len(args)-len(f.params):]
	}
	switch {
	case f.parseArgs != nil:
		p, err := f.parseArgs(args)
		if err != nil {
			return nil, fmt.Errorf("topology: %s: %w", f.family, err)
		}
		out.Params = p
	case len(f.params) > 0:
		if len(args) != len(f.params) {
			return nil, fmt.Errorf("topology: %s needs %d arguments, got %d in %q",
				f.family, len(f.params), len(args), spec)
		}
		out.Params = make(map[string]int, len(args))
		for i, pd := range f.params {
			v, err := strconv.Atoi(args[i])
			if err != nil {
				return nil, fmt.Errorf("topology: %s argument %q: %w", f.family, args[i], err)
			}
			out.Params[pd.name] = v
		}
	default:
		if len(args) != 0 {
			return nil, fmt.Errorf("topology: %s takes no arguments, got %q", f.family, spec)
		}
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

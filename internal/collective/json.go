package collective

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/topology"
)

// jsonVersion is the collective wire-format version.
const jsonVersion = 1

type specJSON struct {
	Version int      `json:"version"`
	Kind    string   `json:"kind"`
	P       int      `json:"p"`
	C       int      `json:"c"`
	Root    int      `json:"root"`
	G       int      `json:"g"`
	Pre     []string `json:"pre"`
	Post    []string `json:"post"`
}

// relToStrings renders a relation as one '0'/'1' string per chunk, node
// n at byte offset n — compact, human-diffable, and order-canonical.
func relToStrings(r Rel) []string {
	out := make([]string, len(r))
	for c, row := range r {
		b := make([]byte, len(row))
		for n, ok := range row {
			if ok {
				b[n] = '1'
			} else {
				b[n] = '0'
			}
		}
		out[c] = string(b)
	}
	return out
}

func relFromStrings(rows []string, g, p int, which string) (Rel, error) {
	if len(rows) != g {
		return nil, fmt.Errorf("collective: %s relation has %d rows, want G=%d", which, len(rows), g)
	}
	// Rows are allocated as they are checked, so the claimed P never
	// sizes an allocation the document's own bytes do not back.
	r := make(Rel, g)
	for c, row := range rows {
		if len(row) != p {
			return nil, fmt.Errorf("collective: %s row %d has width %d, want P=%d", which, c, len(row), p)
		}
		r[c] = make([]bool, p)
		for n := 0; n < p; n++ {
			switch row[n] {
			case '1':
				r[c][n] = true
			case '0':
			default:
				return nil, fmt.Errorf("collective: %s row %d has byte %q (want '0' or '1')", which, c, row[n])
			}
		}
	}
	return r, nil
}

func relEqual(a, b Rel) bool {
	if len(a) != len(b) {
		return false
	}
	for c := range a {
		if len(a[c]) != len(b[c]) {
			return false
		}
		for n := range a[c] {
			if a[c][n] != b[c][n] {
				return false
			}
		}
	}
	return true
}

// MarshalJSON renders the spec in the stable v1 wire format. The pre and
// post relations are always included, so custom collectives round-trip
// and standard ones can be cross-checked on decode.
func (s *Spec) MarshalJSON() ([]byte, error) {
	return json.Marshal(specJSON{
		Version: jsonVersion,
		Kind:    s.Kind.String(),
		P:       s.P,
		C:       s.C,
		Root:    int(s.Root),
		G:       s.G,
		Pre:     relToStrings(s.Pre),
		Post:    relToStrings(s.Post),
	})
}

// UnmarshalJSON decodes the v1 wire format and re-validates: standard
// kinds are rebuilt through New and their serialized pre/post must match
// the registry relations; custom specs are rebuilt through Custom.
func (s *Spec) UnmarshalJSON(data []byte) error {
	var in specJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if in.Version != jsonVersion {
		return fmt.Errorf("collective: unsupported JSON version %d (want %d)", in.Version, jsonVersion)
	}
	pre, err := relFromStrings(in.Pre, in.G, in.P, "pre")
	if err != nil {
		return err
	}
	post, err := relFromStrings(in.Post, in.G, in.P, "post")
	if err != nil {
		return err
	}
	if in.Kind == CustomKind.String() {
		// Custom specs are defined by their relations; Custom always
		// assigns C=1, and the wire value must agree rather than being
		// trusted (G consistency is enforced by relFromStrings above).
		dec, err := Custom("custom", in.P, pre, post)
		if err != nil {
			return fmt.Errorf("collective: decoded JSON invalid: %w", err)
		}
		if in.C != dec.C {
			return fmt.Errorf("collective: custom spec JSON has C=%d, want %d", in.C, dec.C)
		}
		if in.Root < 0 || in.Root >= in.P {
			return fmt.Errorf("collective: root %d out of range [0,%d)", in.Root, in.P)
		}
		dec.Root = topology.Node(in.Root)
		s.setFields(dec)
		return nil
	}
	kind, err := ParseKind(in.Kind)
	if err != nil {
		return err
	}
	// Check G before New builds the registry relations: G rows of P were
	// read above, while a forged C could otherwise size a G x P
	// allocation far beyond the document. New itself rejects P or C < 1.
	if in.P > 0 && in.C > 0 {
		if g, err := ToGlobal(kind, in.P, in.C); err == nil && g != in.G {
			return fmt.Errorf("collective: JSON G=%d inconsistent with %v(P=%d, C=%d) which has G=%d",
				in.G, kind, in.P, in.C, g)
		}
	}
	dec, err := New(kind, in.P, in.C, topology.Node(in.Root))
	if err != nil {
		return fmt.Errorf("collective: decoded JSON invalid: %w", err)
	}
	if !relEqual(dec.Pre, pre) || !relEqual(dec.Post, post) {
		return fmt.Errorf("collective: JSON pre/post do not match the %v registry relations", kind)
	}
	s.setFields(dec)
	return nil
}

// setFields copies dec's fields into s field by field: a Spec carries its
// fingerprint memo and is not copied whole.
func (s *Spec) setFields(dec *Spec) {
	s.Kind, s.P, s.C, s.Root, s.G, s.Pre, s.Post = dec.Kind, dec.P, dec.C, dec.Root, dec.G, dec.Pre, dec.Post
}

// fingerprint is one memoized Fingerprint: the digest and the scalar
// fields and relations it was computed from.
type fingerprint struct {
	kind      Kind
	p, c, g   int
	root      topology.Node
	pre, post Rel
	digest    string
}

// matches reports whether m was computed from s's current fields: the
// same scalars and the same pre/post slices (same length, same backing
// array).
func (m *fingerprint) matches(s *Spec) bool {
	return m.kind == s.Kind && m.p == s.P && m.c == s.C && m.g == s.G && m.root == s.Root &&
		sameRel(m.pre, s.Pre) && sameRel(m.post, s.Post)
}

func sameRel(a, b Rel) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Fingerprint returns a canonical digest of the fully instantiated
// specification — kind, shape, and the pre/post relations — so custom
// collectives fingerprint by structure, not by name.
//
// The digest is computed on the first call and memoized, so later calls
// (every engine cache lookup and node-symmetry lookup makes one) cost the
// same at every chunk count. Assigning a new field or relation slice is
// noticed and digested afresh; editing a relation row in place is not, so
// build a new Spec instead of changing one in use.
func (s *Spec) Fingerprint() string {
	if m := s.fp.Load(); m != nil && m.matches(s) {
		return m.digest
	}
	m := &fingerprint{kind: s.Kind, p: s.P, c: s.C, g: s.G, root: s.Root, pre: s.Pre, post: s.Post, digest: s.digest()}
	s.fp.Store(m)
	return m.digest
}

// digest hashes the canonical text of the specification.
func (s *Spec) digest() string {
	payload := fmt.Sprintf("collective/v1|%s|p=%d|c=%d|root=%d|g=%d|pre=%s|post=%s",
		s.Kind, s.P, s.C, s.Root, s.G,
		strings.Join(relToStrings(s.Pre), ","), strings.Join(relToStrings(s.Post), ","))
	sum := sha256.Sum256([]byte(payload))
	return hex.EncodeToString(sum[:16])
}

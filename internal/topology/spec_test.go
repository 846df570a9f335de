package topology

import (
	"encoding/json"
	"testing"
)

func TestSpecStringRoundTrip(t *testing.T) {
	// Every family's canonical string form parses back to an equal spec,
	// and both build fingerprint-identical topologies.
	cases := []string{
		"dgx1", "dgx2", "amd-z52",
		"ring:5", "bidir-ring:6", "line:4", "fully-connected:4",
		"star:7", "hypercube:3", "torus:3x4", "torus3d:2x3x4",
		"fat-tree:2:4:1:2", "bus:4:2", "dragonfly:6:4:2", "dragonfly:3:2:1",
		"multinode:dgx1:2:1:1", "multinode:ring:4:2:2:3",
		"multinode:multinode:ring:4:2:1:1:2:1:1",
	}
	for _, c := range cases {
		s, err := ParseSpec(c)
		if err != nil {
			t.Errorf("%s: %v", c, err)
			continue
		}
		canon := s.String()
		s2, err := ParseSpec(canon)
		if err != nil {
			t.Errorf("%s: canonical form %q does not parse: %v", c, canon, err)
			continue
		}
		t1, err := s.Build()
		if err != nil {
			t.Errorf("%s: %v", c, err)
			continue
		}
		t2, err := s2.Build()
		if err != nil {
			t.Errorf("%s: %v", canon, err)
			continue
		}
		if t1.Fingerprint() != t2.Fingerprint() {
			t.Errorf("%s: canonical form %q builds a different topology", c, canon)
		}
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	specs := []string{
		"torus:6x6", "multinode:dgx1:2:1:1", "fat-tree:2:4:1:2", "ring:5",
	}
	for _, c := range specs {
		s, err := ParseSpec(c)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back Spec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: %v (doc %s)", c, err, data)
		}
		t1, _ := s.Build()
		t2, err := back.Build()
		if err != nil {
			t.Fatal(err)
		}
		if t1.Fingerprint() != t2.Fingerprint() {
			t.Errorf("%s: JSON round-trip changed the topology", c)
		}
	}
	// The version tag is enforced.
	var s Spec
	if err := json.Unmarshal([]byte(`{"version":"sccl.topology-spec/v0","family":"ring","params":{"n":4}}`), &s); err == nil {
		t.Error("wrong version should fail")
	}
	// Decoded documents re-validate.
	if err := json.Unmarshal([]byte(`{"version":"sccl.topology-spec/v1","family":"ring","params":{"m":4}}`), &s); err == nil {
		t.Error("unknown parameter should fail")
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Family: "warp"},
		{Family: "ring"}, // missing n
		{Family: "ring", Params: map[string]int{"n": 1}},                              // below min
		{Family: "ring", Params: map[string]int{"n": 4, "x": 1}},                      // unknown param
		{Family: "multinode", Params: map[string]int{"count": 2, "nics": 1, "bw": 1}}, // no base
		{Family: "ring", Params: map[string]int{"n": 4},
			Base: &Spec{Family: "ring", Params: map[string]int{"n": 4}}}, // base on flat family
	}
	for i, s := range bad {
		s := s
		if err := s.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
	ok := Spec{Family: "MultiNode", Params: map[string]int{"count": 2, "nics": 1, "bw": 1},
		Base: &Spec{Family: "FC", Params: map[string]int{"n": 4}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("case-insensitive family lookup: %v", err)
	}
}

// TestSpecSizeCap checks the node cap on both sides of MaxSpecNodes, for
// parameters whose product or power overflows int, and through nesting.
// Refused specs never reach a builder, so none of them allocates.
func TestSpecSizeCap(t *testing.T) {
	for _, c := range []string{
		"fc:256", "hypercube:8", "torus:16x16", "torus3d:4x8x8",
		"multinode:dgx1:32:1:1", "multinode:dgx2:2:16:1", "dragonfly:128:2:1",
	} {
		if _, err := ParseSpec(c); err != nil {
			t.Errorf("%s: %v", c, err)
		}
	}
	for _, c := range []string{
		"fc:100000", "ring:257", "hypercube:9", "hypercube:9223372036854775807",
		"torus:16x17", "torus:4611686018427387904x4", "torus3d:3037000500x3037000500x2",
		"fat-tree:65536:65536:1:1", "multinode:dgx1:33:1:1",
		"multinode:multinode:ring:16:4:1:1:5:1:1",
	} {
		if _, err := ParseSpec(c); err == nil {
			t.Errorf("%s: accepted past the %d-node cap", c, MaxSpecNodes)
		}
	}
	var s Spec
	if err := json.Unmarshal([]byte(`{"version":"sccl.topology-spec/v1","family":"ring","params":{"n":100000}}`), &s); err == nil {
		t.Error("decoded spec past the node cap should fail")
	}
}

// TestSpecFingerprintGolden pins the string↔spec equivalence contract:
// the legacy string forms and hand-built specs construct topologies with
// these exact fingerprints. A change here means cached libraries and
// CI baselines keyed on these fingerprints all invalidate — bump
// deliberately or not at all.
func TestSpecFingerprintGolden(t *testing.T) {
	golden := []struct {
		form string
		spec Spec
		fp   string
	}{
		{"dgx1", Spec{Family: "dgx1"}, "09ed47176943256d1ffbc5cc6f55c335"},
		{"ring:8", Spec{Family: "ring", Params: map[string]int{"n": 8}},
			"9ad83e5eb8a83306ca02184927e558ed"},
		{"bidir-ring:10", Spec{Family: "bidir-ring", Params: map[string]int{"n": 10}},
			"e6bc58785d87374f52e05ae2ca1f7e50"},
		{"torus:6x6", Spec{Family: "torus", Params: map[string]int{"rows": 6, "cols": 6}},
			"00e380c89482e02e4c0c5ebef89f637c"},
		{"torus3d:4x4x4", Spec{Family: "torus3d", Params: map[string]int{"dim1": 4, "dim2": 4, "dim3": 4}},
			"1077d02aa67f5cc2279882010d7dcaf9"},
		{"fat-tree:4:8:2:8", Spec{Family: "fat-tree", Params: map[string]int{"pods": 4, "hosts": 8, "hostbw": 2, "uplinkbw": 8}},
			"f628028c619878b658c35dc5dad4655f"},
		// 5 peer groups > 4 routers, so the per-group aggregate caps are
		// part of the fingerprint; the dfly alias must land on the same
		// canonical family.
		{"dragonfly:6:4:2", Spec{Family: "dragonfly", Params: map[string]int{"groups": 6, "routers": 4, "globalbw": 2}},
			"272750f87d3f8a8706aa2443942be227"},
		{"dfly:3:2:1", Spec{Family: "dragonfly", Params: map[string]int{"groups": 3, "routers": 2, "globalbw": 1}},
			"ba5b74b5355ec89940960d935f1c0284"},
		{"multinode:dgx1:4:1:1", Spec{Family: "multinode",
			Params: map[string]int{"count": 4, "nics": 1, "bw": 1},
			Base:   &Spec{Family: "dgx1"}},
			"c1d731751b2c92245efc40109d6e8ac3"},
		{"multinode:ring:8:4:1:1", Spec{Family: "multinode",
			Params: map[string]int{"count": 4, "nics": 1, "bw": 1},
			Base:   &Spec{Family: "ring", Params: map[string]int{"n": 8}}},
			"85db497446ffd13850d39b2a9ab9fb55"},
	}
	for _, g := range golden {
		g := g
		fromString, err := ParseSpec(g.form)
		if err != nil {
			t.Errorf("%s: %v", g.form, err)
			continue
		}
		t1, err := fromString.Build()
		if err != nil {
			t.Errorf("%s: %v", g.form, err)
			continue
		}
		t2, err := g.spec.Build()
		if err != nil {
			t.Errorf("%s (spec): %v", g.form, err)
			continue
		}
		if t1.Fingerprint() != g.fp {
			t.Errorf("%s: string form fingerprint %s, golden %s", g.form, t1.Fingerprint(), g.fp)
		}
		if t2.Fingerprint() != g.fp {
			t.Errorf("%s: spec form fingerprint %s, golden %s", g.form, t2.Fingerprint(), g.fp)
		}
	}
}

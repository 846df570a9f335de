package sccl_test

import (
	"bytes"
	"encoding/json"
	"testing"

	sccl "repro"
	"repro/internal/topology"
)

// The request decoders see untrusted bytes: every document a daemon is
// posted goes through one of them, and the topology and algorithm
// decoders read documents and libraries from disk. Each target must never
// panic, and a document that decodes must re-encode to bytes that survive
// another decode and encode unchanged. The committed seed corpus under
// testdata/fuzz holds EncodeRequest, EncodeParetoRequest, EncodeTopology
// and EncodeAlgorithm outputs, topology strings and topology spec
// documents; explore further with
//
//	go test -run '^$' -fuzz FuzzDecodeRequest -fuzztime 10s .

func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := sccl.DecodeRequest(data)
		if err != nil {
			return
		}
		roundTrip(t, data, func() ([]byte, error) { return sccl.EncodeRequest(req) }, func(enc []byte) ([]byte, error) {
			again, err := sccl.DecodeRequest(enc)
			if err != nil {
				return nil, err
			}
			return sccl.EncodeRequest(again)
		})
	})
}

func FuzzDecodeParetoRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := sccl.DecodeParetoRequest(data)
		if err != nil {
			return
		}
		roundTrip(t, data, func() ([]byte, error) { return sccl.EncodeParetoRequest(req) }, func(enc []byte) ([]byte, error) {
			again, err := sccl.DecodeParetoRequest(enc)
			if err != nil {
				return nil, err
			}
			return sccl.EncodeParetoRequest(again)
		})
	})
}

func FuzzDecodeTopology(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		topo, err := sccl.DecodeTopology(data)
		if err != nil {
			return
		}
		roundTrip(t, data, func() ([]byte, error) { return sccl.EncodeTopology(topo) }, func(enc []byte) ([]byte, error) {
			again, err := sccl.DecodeTopology(enc)
			if err != nil {
				return nil, err
			}
			return sccl.EncodeTopology(again)
		})
	})
}

// FuzzParseTopology feeds topology strings: a spec that parses prints a
// canonical form that parses to itself, and one that builds stays under
// the node cap and builds the same topology from its canonical form.
func FuzzParseTopology(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := sccl.ParseTopologySpec(spec)
		if err != nil {
			return
		}
		canon := s.String()
		again, err := sccl.ParseTopologySpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not parse: %v", canon, spec, err)
		}
		if again.String() != canon {
			t.Fatalf("canonical form not stable: %q -> %q", canon, again.String())
		}
		topo, err := s.Build()
		if err != nil {
			return
		}
		if topo.P > topology.MaxSpecNodes {
			t.Fatalf("%q built %d nodes past the %d-node cap", spec, topo.P, topology.MaxSpecNodes)
		}
		topo2, err := again.Build()
		if err != nil {
			t.Fatalf("canonical form %q does not build: %v", canon, err)
		}
		if topo.Fingerprint() != topo2.Fingerprint() {
			t.Fatalf("%q and its canonical form %q build different topologies", spec, canon)
		}
	})
}

// FuzzTopologySpecJSON feeds versioned topology spec documents to
// TopologySpec.UnmarshalJSON.
func FuzzTopologySpecJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var s sccl.TopologySpec
		if err := s.UnmarshalJSON(data); err != nil {
			return
		}
		roundTrip(t, data, func() ([]byte, error) { return json.Marshal(&s) }, func(enc []byte) ([]byte, error) {
			var again sccl.TopologySpec
			if err := again.UnmarshalJSON(enc); err != nil {
				return nil, err
			}
			return json.Marshal(&again)
		})
	})
}

func FuzzDecodeAlgorithm(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		alg, err := sccl.DecodeAlgorithm(data)
		if err != nil {
			return
		}
		roundTrip(t, data, func() ([]byte, error) { return sccl.EncodeAlgorithm(alg) }, func(enc []byte) ([]byte, error) {
			again, err := sccl.DecodeAlgorithm(enc)
			if err != nil {
				return nil, err
			}
			return sccl.EncodeAlgorithm(again)
		})
	})
}

// roundTrip checks that a decoded document encodes, and that its
// encoding decodes and encodes to the same bytes.
func roundTrip(t *testing.T, data []byte, encode func() ([]byte, error), reencode func([]byte) ([]byte, error)) {
	t.Helper()
	enc, err := encode()
	if err != nil {
		t.Fatalf("decoded document does not encode: %v\ninput: %q", err, data)
	}
	enc2, err := reencode(enc)
	if err != nil {
		t.Fatalf("encoding does not decode: %v\nencoding: %s", err, enc)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("encode∘decode not stable:\nfirst:  %s\nsecond: %s", enc, enc2)
	}
}

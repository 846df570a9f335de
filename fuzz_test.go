package sccl_test

import (
	"bytes"
	"testing"

	sccl "repro"
)

// The request decoders see untrusted bytes: every document a daemon is
// posted goes through one of them, and the topology and algorithm
// decoders read documents and libraries from disk. Each target must never
// panic, and a document that decodes must re-encode to bytes that survive
// another decode and encode unchanged. The committed seed corpus under
// testdata/fuzz holds EncodeRequest, EncodeParetoRequest, EncodeTopology
// and EncodeAlgorithm outputs; explore further with
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

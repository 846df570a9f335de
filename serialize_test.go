package sccl_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	sccl "repro"
	"repro/internal/topology"
)

// synthKind finds a small Sat budget for kind on topo by probing
// ascending budgets — keeps the matrix robust without hard-coding each
// topology's feasible triples.
func synthKind(t *testing.T, eng *sccl.Engine, kind sccl.Kind, topo *sccl.Topology, c int) *sccl.Algorithm {
	t.Helper()
	for s := 1; s <= topo.P+2; s++ {
		for r := s; r <= s+2*topo.P; r++ {
			res, err := eng.Synthesize(nil, sccl.Request{
				Kind: kind, Topo: topo, Budget: sccl.Budget{C: c, S: s, R: r},
			})
			if err != nil {
				t.Fatalf("%v (%d,%d,%d): %v", kind, c, s, r, err)
			}
			if res.Status == sccl.Sat {
				return res.Algorithm
			}
		}
	}
	t.Fatalf("no Sat budget found for %v on %s", kind, topo.Name)
	return nil
}

// sameAlgorithm is reflect.DeepEqual over what an algorithm document
// carries. A topology and a collective memoize their fingerprints, so the
// ones an engine has keyed and their freshly decoded copies differ in that
// memo alone; both are compared by their exported fields.
func sameAlgorithm(a, b *sccl.Algorithm) bool {
	if a == nil || b == nil {
		return a == b
	}
	x, y := *a, *b
	x.Topo, y.Topo, x.Coll, y.Coll = nil, nil, nil, nil
	ac, bc := a.Coll, b.Coll
	return reflect.DeepEqual(x, y) && a.Topo.Name == b.Topo.Name && a.Topo.P == b.Topo.P &&
		reflect.DeepEqual(a.Topo.Relations, b.Topo.Relations) && reflect.DeepEqual(a.Topo.Blocks, b.Topo.Blocks) &&
		ac.Kind == bc.Kind && ac.P == bc.P && ac.C == bc.C && ac.Root == bc.Root && ac.G == bc.G &&
		reflect.DeepEqual(ac.Pre, bc.Pre) && reflect.DeepEqual(ac.Post, bc.Post)
}

// sameFrontier is reflect.DeepEqual over frontier points with their
// algorithms compared by sameAlgorithm.
func sameFrontier(a, b []sccl.ParetoPoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		x.Algorithm, y.Algorithm = nil, nil
		if x != y || !sameAlgorithm(a[i].Algorithm, b[i].Algorithm) {
			return false
		}
	}
	return true
}

// TestJSONRoundTrip covers the acceptance matrix: for every collective
// kind, Algorithm/Topology/Collective encode to stable JSON, decode with
// re-validation, compare equal, and re-encode byte-identically.
func TestJSONRoundTrip(t *testing.T) {
	eng := sccl.NewEngine(sccl.EngineOptions{})
	topo := sccl.FullyConnected(3)

	// Topology round-trip across every exported constructor shape.
	topos := []*sccl.Topology{
		topo, sccl.DGX1(), sccl.DGX2(), sccl.AMDZ52(), sccl.Ring(5),
		sccl.BidirRing(4), sccl.Line(3), sccl.Star(4), sccl.Hypercube(3),
		sccl.Torus2D(2, 3), sccl.SharedBus(4, 2),
	}
	if mn, err := sccl.MultiNode(sccl.Ring(4), 2, 1, 1); err != nil {
		t.Fatal(err)
	} else {
		topos = append(topos, mn)
	}
	for _, tp := range topos {
		data, err := sccl.EncodeTopology(tp)
		if err != nil {
			t.Fatalf("%s: %v", tp.Name, err)
		}
		dec, err := sccl.DecodeTopology(data)
		if err != nil {
			t.Fatalf("%s: %v", tp.Name, err)
		}
		if !reflect.DeepEqual(tp, dec) {
			t.Errorf("%s: decoded topology differs", tp.Name)
		}
		data2, err := sccl.EncodeTopology(dec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, data2) {
			t.Errorf("%s: re-encode not byte-identical", tp.Name)
		}
	}

	// Collective + Algorithm round-trips for every kind. Allreduce needs
	// C divisible by P; everything else uses C=1.
	for _, kind := range []sccl.Kind{
		sccl.Gather, sccl.Allgather, sccl.Alltoall, sccl.Broadcast,
		sccl.Scatter, sccl.Reduce, sccl.Reducescatter, sccl.Allreduce,
	} {
		c := 1
		if kind == sccl.Allreduce {
			c = topo.P
		}
		coll, err := sccl.NewCollective(kind, topo.P, c, 0)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		cdata, err := sccl.EncodeCollective(coll)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		cdec, err := sccl.DecodeCollective(cdata)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !reflect.DeepEqual(coll, cdec) {
			t.Errorf("%v: decoded collective differs", kind)
		}
		if coll.Fingerprint() != cdec.Fingerprint() {
			t.Errorf("%v: collective fingerprint changed across round-trip", kind)
		}

		alg := synthKind(t, eng, kind, topo, c)
		adata, err := sccl.EncodeAlgorithm(alg)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		adec, err := sccl.DecodeAlgorithm(adata)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !sameAlgorithm(alg, adec) {
			t.Errorf("%v: decoded algorithm differs", kind)
		}
		adata2, err := sccl.EncodeAlgorithm(adec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(adata, adata2) {
			t.Errorf("%v: algorithm re-encode not byte-identical", kind)
		}
	}

	// Custom collectives (AllgatherV) round-trip through the same format.
	agv, err := sccl.AllgatherV(3, []int{2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	cdata, err := sccl.EncodeCollective(agv)
	if err != nil {
		t.Fatal(err)
	}
	cdec, err := sccl.DecodeCollective(cdata)
	if err != nil {
		t.Fatal(err)
	}
	if cdec.G != agv.G || cdec.P != agv.P || agv.Fingerprint() != cdec.Fingerprint() {
		t.Error("custom collective round-trip differs")
	}
}

// TestJSONRoundTripRequestResult covers the Request/Result documents and
// the frontier format.
func TestJSONRoundTripRequestResult(t *testing.T) {
	eng := sccl.NewEngine(sccl.EngineOptions{})
	topo := sccl.BidirRing(4)
	req := sccl.Request{
		Kind: sccl.Allgather, Topo: topo,
		Budget:  sccl.Budget{C: 1, S: 2, R: 3},
		Timeout: 30 * time.Second,
	}
	rdata, err := sccl.EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	rdec, err := sccl.DecodeRequest(rdata)
	if err != nil {
		t.Fatal(err)
	}
	if rdec.Kind != req.Kind || rdec.Budget != req.Budget || rdec.Timeout != req.Timeout ||
		!reflect.DeepEqual(rdec.Topo, req.Topo) {
		t.Error("decoded request differs")
	}

	res, err := eng.Synthesize(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sccl.Sat {
		t.Fatalf("status %v", res.Status)
	}
	data, err := sccl.EncodeResult(*res)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := sccl.DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Status != res.Status || dec.Fingerprint != res.Fingerprint ||
		!sameAlgorithm(dec.Algorithm, res.Algorithm) {
		t.Error("decoded result differs")
	}
	data2, err := sccl.EncodeResult(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("result re-encode not byte-identical")
	}

	// Frontier round-trip (small sweep; wall clocks zeroed for the byte
	// comparison since SynthesisTime is nondeterministic).
	front, err := eng.Pareto(nil, sccl.ParetoRequest{
		Kind: sccl.Allgather, Topo: sccl.Ring(3), MaxSteps: 3, MaxChunks: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := append([]sccl.ParetoPoint(nil), front.Points...)
	for i := range pts {
		pts[i].SynthesisTime = 0
	}
	fdata, err := sccl.EncodeFrontier(pts)
	if err != nil {
		t.Fatal(err)
	}
	fdec, err := sccl.DecodeFrontier(fdata)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFrontier(pts, fdec) {
		t.Error("decoded frontier differs")
	}
	fdata2, err := sccl.EncodeFrontier(fdec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fdata, fdata2) {
		t.Error("frontier re-encode not byte-identical")
	}
}

// TestJSONDecodeRejectsInvalid checks that decoding re-validates: a
// tampered document must fail instead of yielding an invalid value.
func TestJSONDecodeRejectsInvalid(t *testing.T) {
	if _, err := sccl.DecodeTopology([]byte(`{"format":"sccl.topology/v1","payload":{"version":1,"name":"bad","p":2,"relations":[{"links":[[0,5]],"bandwidth":1}]}}`)); err == nil {
		t.Error("out-of-range link accepted")
	}
	if _, err := sccl.DecodeTopology([]byte(`{"format":"sccl.algorithm/v1","payload":{}}`)); err == nil {
		t.Error("wrong envelope format accepted")
	}
	if _, err := sccl.DecodeTopology([]byte(`{"format":"sccl.topology/v1","payload":{"version":99,"name":"x","p":2}}`)); err == nil {
		t.Error("future version accepted")
	}
	// Libraries only persist settled verdicts: an Unknown entry would be
	// served as a cache hit forever.
	if _, err := sccl.DecodeLibrary([]byte(`{"format":"sccl.library/v1","entries":[{"fingerprint":"x","kind":"Allgather","topology":"ring","budget":{"c":1,"s":2,"r":2},"status":"UNKNOWN"}]}`)); err == nil {
		t.Error("UNKNOWN library entry accepted")
	}
	// An algorithm whose sends violate its own collective must fail the
	// re-validation pass.
	eng := sccl.NewEngine(sccl.EngineOptions{})
	res, err := eng.Synthesize(nil, sccl.Request{
		Kind: sccl.Allgather, Topo: sccl.Ring(3),
		Budget: sccl.Budget{C: 1, S: 2, R: 2},
	})
	if err != nil || res.Status != sccl.Sat {
		t.Fatalf("setup synthesis: %v %v", res, err)
	}
	data, err := sccl.EncodeAlgorithm(res.Algorithm)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(data, []byte(`"rounds":[`), []byte(`"rounds":[0,`), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("tamper pattern did not apply")
	}
	if _, err := sccl.DecodeAlgorithm(tampered); err == nil {
		t.Error("tampered algorithm accepted")
	}
}

// TestDecodeRejectsOversizedTopology checks the node cap on topology
// documents, alone and embedded in requests: "p" up to
// topology.MaxSpecNodes decodes, anything past it is refused before a
// miss could size a G x P relation by it.
func TestDecodeRejectsOversizedTopology(t *testing.T) {
	topo := func(p int) string {
		return fmt.Sprintf(`{"version":1,"name":"big","p":%d,"relations":[{"links":[[0,1]],"bandwidth":1}]}`, p)
	}
	decoders := map[string]func(p int) error{
		"topology": func(p int) error {
			_, err := sccl.DecodeTopology([]byte(`{"format":"sccl.topology/v1","payload":` + topo(p) + `}`))
			return err
		},
		"request": func(p int) error {
			_, err := sccl.DecodeRequest([]byte(`{"format":"sccl.request/v1","payload":{"version":1,"kind":"Broadcast","topology":` +
				topo(p) + `,"root":0,"budget":{"c":1,"s":1,"r":1}}}`))
			return err
		},
		"pareto request": func(p int) error {
			_, err := sccl.DecodeParetoRequest([]byte(`{"format":"sccl.pareto-request/v1","payload":{"version":1,"kind":"Broadcast","topology":` +
				topo(p) + `,"root":0,"k":0,"maxSteps":1,"maxChunks":1}}`))
			return err
		},
	}
	for name, decode := range decoders {
		for _, tc := range []struct {
			p  int
			ok bool
		}{
			{topology.MaxSpecNodes, true},
			{topology.MaxSpecNodes + 1, false},
			{1000000000, false},
		} {
			if err := decode(tc.p); (err == nil) != tc.ok {
				t.Errorf("%s with p=%d: err = %v, want accepted = %v", name, tc.p, err, tc.ok)
			}
		}
	}
}

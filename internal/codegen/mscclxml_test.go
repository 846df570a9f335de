package codegen

import (
	"context"
	"encoding/xml"
	"strings"
	"testing"

	"repro/internal/collective"
	"repro/internal/synth"
	"repro/internal/topology"
)

// xmlAlgo mirrors the emitted schema for parse-back validation.
type xmlAlgo struct {
	Name           string   `xml:"name,attr"`
	NChunksPerLoop int      `xml:"nchunksperloop,attr"`
	NGpus          int      `xml:"ngpus,attr"`
	Coll           string   `xml:"coll,attr"`
	Gpus           []xmlGpu `xml:"gpu"`
}

type xmlGpu struct {
	ID      int     `xml:"id,attr"`
	IChunks int     `xml:"i_chunks,attr"`
	OChunks int     `xml:"o_chunks,attr"`
	Tbs     []xmlTb `xml:"tb"`
}

type xmlTb struct {
	ID    int       `xml:"id,attr"`
	Send  int       `xml:"send,attr"`
	Recv  int       `xml:"recv,attr"`
	Steps []xmlStep `xml:"step"`
}

type xmlStep struct {
	S      int    `xml:"s,attr"`
	Type   string `xml:"type,attr"`
	SrcOff int    `xml:"srcoff,attr"`
	Cnt    int    `xml:"cnt,attr"`
}

func TestMSCCLXMLWellFormed(t *testing.T) {
	alg := testAlg(t) // ring-4 allgather from codegen_test.go
	out, err := MSCCLXML(alg)
	if err != nil {
		t.Fatal(err)
	}
	var parsed xmlAlgo
	if err := xml.Unmarshal([]byte(out), &parsed); err != nil {
		t.Fatalf("emitted XML does not parse: %v\n%s", err, out)
	}
	if parsed.NGpus != 4 || parsed.NChunksPerLoop != 4 || parsed.Coll != "allgather" {
		t.Fatalf("header: %+v", parsed)
	}
	if len(parsed.Gpus) != 4 {
		t.Fatalf("gpus = %d", len(parsed.Gpus))
	}
	// Every GPU on a unidirectional ring has exactly one send-threadblock
	// and one recv-threadblock.
	for _, g := range parsed.Gpus {
		if len(g.Tbs) != 2 {
			t.Errorf("gpu %d has %d threadblocks", g.ID, len(g.Tbs))
		}
		for _, tb := range g.Tbs {
			if tb.Send == -1 && tb.Recv == -1 {
				t.Errorf("gpu %d tb %d has no peer", g.ID, tb.ID)
			}
			if len(tb.Steps) != 3 {
				t.Errorf("gpu %d tb %d has %d steps, want 3", g.ID, tb.ID, len(tb.Steps))
			}
		}
	}
}

func TestMSCCLXMLTotalTransfersMatchSends(t *testing.T) {
	alg := testAlg(t)
	out, err := MSCCLXML(alg)
	if err != nil {
		t.Fatal(err)
	}
	var parsed xmlAlgo
	if err := xml.Unmarshal([]byte(out), &parsed); err != nil {
		t.Fatal(err)
	}
	sendSteps, recvSteps := 0, 0
	for _, g := range parsed.Gpus {
		for _, tb := range g.Tbs {
			for _, s := range tb.Steps {
				switch s.Type {
				case "s":
					sendSteps++
				case "r", "rrc":
					recvSteps++
				}
			}
		}
	}
	if sendSteps != len(alg.Sends) || recvSteps != len(alg.Sends) {
		t.Fatalf("send steps %d, recv steps %d, want %d each", sendSteps, recvSteps, len(alg.Sends))
	}
}

func TestMSCCLXMLReduceUsesRRC(t *testing.T) {
	rs, _, err := synth.SynthesizeCollectiveContext(context.Background(), collective.Reducescatter, topology.Ring(4), 0, 1, 3, 3, synth.Options{})
	if err != nil || rs == nil {
		t.Fatal(err)
	}
	out, err := MSCCLXML(rs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `type="rrc"`) {
		t.Error("reduce receives should emit receive-reduce-copy steps")
	}
	if strings.Contains(out, `coll="allgather"`) {
		t.Error("collective name wrong")
	}
}

func TestMSCCLXMLDeterministic(t *testing.T) {
	alg := testAlg(t)
	a, _ := MSCCLXML(alg)
	b, _ := MSCCLXML(alg)
	if a != b {
		t.Error("XML emission must be deterministic")
	}
}

func TestMSCCLXMLRejectsInvalid(t *testing.T) {
	coll, _ := collective.New(collective.Allgather, 3, 1, 0)
	bad := newInvalid(coll)
	if _, err := MSCCLXML(bad); err == nil {
		t.Fatal("invalid algorithm must be rejected")
	}
}

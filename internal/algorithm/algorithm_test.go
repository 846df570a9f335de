package algorithm

import (
	"encoding/json"
	"math/big"
	"strings"
	"testing"

	"repro/internal/collective"
	"repro/internal/topology"
)

// ringAllgather builds the classic ring Allgather with C=1 on a
// unidirectional ring of n nodes: n-1 steps, one chunk forwarded per step.
func ringAllgather(t testing.TB, n int) *Algorithm {
	t.Helper()
	topo := topology.Ring(n)
	coll, err := collective.New(collective.Allgather, n, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sends []Send
	rounds := make([]int, n-1)
	for s := 0; s < n-1; s++ {
		rounds[s] = 1
		for node := 0; node < n; node++ {
			chunk := ((node-s)%n + n) % n
			sends = append(sends, Send{
				Chunk: chunk,
				From:  topology.Node(node),
				To:    topology.Node((node + 1) % n),
				Step:  s,
			})
		}
	}
	return New("ring-allgather", coll, topo, rounds, sends)
}

// figure2Allgather builds the paper's Figure 2: the 1-synchronous
// recursive-doubling Allgather on a bidirectional ring of 4 nodes
// (S=2, R=3, C=1).
func figure2Allgather(t *testing.T) *Algorithm {
	t.Helper()
	topo := topology.BidirRing(4)
	coll, err := collective.New(collective.Allgather, 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	sends := []Send{
		// Step 0 (1 round): neighbors exchange their own chunk.
		{Chunk: 0, From: 0, To: 1, Step: 0},
		{Chunk: 1, From: 1, To: 0, Step: 0},
		{Chunk: 2, From: 2, To: 3, Step: 0},
		{Chunk: 3, From: 3, To: 2, Step: 0},
		// Step 1 (2 rounds): each pair forwards both of its chunks across.
		{Chunk: 0, From: 0, To: 3, Step: 1},
		{Chunk: 1, From: 0, To: 3, Step: 1},
		{Chunk: 0, From: 1, To: 2, Step: 1},
		{Chunk: 1, From: 1, To: 2, Step: 1},
		{Chunk: 2, From: 2, To: 1, Step: 1},
		{Chunk: 3, From: 2, To: 1, Step: 1},
		{Chunk: 2, From: 3, To: 0, Step: 1},
		{Chunk: 3, From: 3, To: 0, Step: 1},
	}
	return New("figure2", coll, topo, []int{1, 2}, sends)
}

func TestRingAllgatherValid(t *testing.T) {
	for _, n := range []int{2, 3, 4, 6, 8} {
		a := ringAllgather(t, n)
		if err := a.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if a.Steps() != n-1 || a.TotalRounds() != n-1 {
			t.Errorf("n=%d: S=%d R=%d", n, a.Steps(), a.TotalRounds())
		}
		if a.KSync() != 0 {
			t.Errorf("ring allgather should be 0-synchronous, k=%d", a.KSync())
		}
	}
}

func TestFigure2Valid(t *testing.T) {
	a := figure2Allgather(t)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Steps() != 2 || a.TotalRounds() != 3 {
		t.Fatalf("S=%d R=%d, want 2, 3", a.Steps(), a.TotalRounds())
	}
	if a.KSync() != 1 {
		t.Fatalf("k = %d, want 1 (1-synchronous per paper)", a.KSync())
	}
	if got := a.BandwidthCost(); got.Cmp(big.NewRat(3, 1)) != 0 {
		t.Fatalf("bandwidth cost %v, want 3", got)
	}
}

func TestRunSemantics(t *testing.T) {
	a := figure2Allgather(t)
	v := a.Run()
	for c := 0; c < 4; c++ {
		for n := 0; n < 4; n++ {
			if !v[c][n] {
				t.Errorf("chunk %d missing at node %d", c, n)
			}
		}
	}
}

func TestRunRespectsStepBoundary(t *testing.T) {
	// A chunk received in step s must not be forwardable within step s.
	topo := topology.Line(3)
	coll, _ := collective.New(collective.Broadcast, 3, 1, 0)
	sends := []Send{
		{Chunk: 0, From: 0, To: 1, Step: 0},
		{Chunk: 0, From: 1, To: 2, Step: 0}, // illegal same-step relay
	}
	a := New("relay", coll, topo, []int{2}, sends)
	v := a.Run()
	if v[0][2] {
		t.Error("same-step relay should not deliver chunk to node 2")
	}
	if err := a.Validate(); err == nil {
		t.Error("Validate should reject same-step relay")
	}
}

func TestValidateRejectsMissingPost(t *testing.T) {
	topo := topology.Ring(3)
	coll, _ := collective.New(collective.Allgather, 3, 1, 0)
	// Only one step of the ring: chunks don't make it around.
	sends := []Send{
		{Chunk: 0, From: 0, To: 1, Step: 0},
		{Chunk: 1, From: 1, To: 2, Step: 0},
		{Chunk: 2, From: 2, To: 0, Step: 0},
	}
	a := New("partial", coll, topo, []int{1}, sends)
	err := a.Validate()
	if err == nil || !strings.Contains(err.Error(), "postcondition") {
		t.Fatalf("want postcondition error, got %v", err)
	}
}

func TestValidateRejectsBandwidthViolation(t *testing.T) {
	topo := topology.Ring(4)
	coll, _ := collective.New(collective.Allgather, 4, 2, 0)
	// Two chunks on link 0->1 in a 1-round step (bandwidth 1).
	var sends []Send
	sends = append(sends,
		Send{Chunk: 0, From: 0, To: 1, Step: 0},
		Send{Chunk: 4, From: 0, To: 1, Step: 0},
	)
	a := New("overload", coll, topo, []int{1}, sends)
	err := a.Validate()
	if err == nil || !strings.Contains(err.Error(), "bandwidth") {
		t.Fatalf("want bandwidth error, got %v", err)
	}
	// The same sends with 2 rounds are fine bandwidth-wise (though the
	// postcondition still fails, bandwidth must pass first).
	a2 := New("ok-bw", coll, topo, []int{2}, sends)
	if err := a2.validateBandwidth(indexLinks(topo), a2.stepSends()); err != nil {
		t.Fatalf("2-round step should absorb 2 sends: %v", err)
	}
}

func TestValidateRejectsMissingLink(t *testing.T) {
	topo := topology.Ring(4) // unidirectional: no 1->0 link
	coll, _ := collective.New(collective.Allgather, 4, 1, 0)
	a := New("badlink", coll, topo, []int{1},
		[]Send{{Chunk: 1, From: 1, To: 0, Step: 0}})
	err := a.Validate()
	if err == nil || !strings.Contains(err.Error(), "link") {
		t.Fatalf("want link error, got %v", err)
	}
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	topo := topology.Ring(4)
	coll, _ := collective.New(collective.Allgather, 4, 1, 0)
	if err := New("badchunk", coll, topo, []int{1},
		[]Send{{Chunk: 99, From: 0, To: 1, Step: 0}}).Validate(); err == nil {
		t.Error("chunk out of range should fail")
	}
	if err := New("badstep", coll, topo, []int{1},
		[]Send{{Chunk: 0, From: 0, To: 1, Step: 5}}).Validate(); err == nil {
		t.Error("step out of range should fail")
	}
	if err := New("badround", coll, topo, []int{0},
		nil).Validate(); err == nil {
		t.Error("zero-round step should fail")
	}
}

func TestInvertRingAllgatherToReducescatter(t *testing.T) {
	a := ringAllgather(t, 4)
	inv, err := Invert(a)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Coll.Kind != collective.Reducescatter {
		t.Fatalf("kind = %v", inv.Coll.Kind)
	}
	if err := inv.Validate(); err != nil {
		t.Fatalf("inverted algorithm invalid: %v", err)
	}
	if inv.Steps() != a.Steps() || inv.TotalRounds() != a.TotalRounds() {
		t.Error("inversion must preserve S and R")
	}
	for _, snd := range inv.Sends {
		if !snd.Reduce {
			t.Fatal("inverted Allgather sends must be reduces")
		}
	}
}

func TestInvertFigure2(t *testing.T) {
	inv, err := Invert(figure2Allgather(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := inv.Validate(); err != nil {
		t.Fatalf("inverted figure-2 invalid: %v", err)
	}
	// Rounds must be reversed: [1,2] -> [2,1].
	if inv.Rounds[0] != 2 || inv.Rounds[1] != 1 {
		t.Fatalf("rounds = %v, want [2 1]", inv.Rounds)
	}
}

func TestInvertRejectsDoubleReceive(t *testing.T) {
	topo := topology.BidirRing(3)
	coll, _ := collective.New(collective.Broadcast, 3, 1, 0)
	sends := []Send{
		{Chunk: 0, From: 0, To: 1, Step: 0},
		{Chunk: 0, From: 0, To: 2, Step: 0},
		{Chunk: 0, From: 1, To: 2, Step: 1}, // node 2 receives twice
	}
	a := New("dup", coll, topo, []int{1, 1}, sends)
	if _, err := Invert(a); err == nil {
		t.Fatal("double receive must block inversion")
	}
}

func TestInvertRejectsCombining(t *testing.T) {
	a := ringAllgather(t, 4)
	inv, err := Invert(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Invert(inv); err == nil {
		t.Fatal("inverting a combining algorithm must fail")
	}
}

func TestInvertScatterGivesGather(t *testing.T) {
	// Scatter on a line 0->1->2: root 0 sends chunk for node 2 through 1.
	topo := topology.Line(3)
	coll, _ := collective.New(collective.Scatter, 3, 1, 0)
	// G = 3: chunk c belongs at node c (Scattered post).
	sends := []Send{
		{Chunk: 1, From: 0, To: 1, Step: 0},
		{Chunk: 2, From: 0, To: 1, Step: 0},
		{Chunk: 2, From: 1, To: 2, Step: 1},
	}
	a := New("scatter-line", coll, topo, []int{2, 1}, sends)
	if err := a.Validate(); err != nil {
		t.Fatalf("scatter invalid: %v", err)
	}
	inv, err := Invert(a)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Coll.Kind != collective.Gather {
		t.Fatalf("kind = %v, want Gather", inv.Coll.Kind)
	}
	for _, snd := range inv.Sends {
		if snd.Reduce {
			t.Fatal("gather sends must be copies")
		}
	}
	if err := inv.Validate(); err != nil {
		t.Fatalf("gather invalid: %v", err)
	}
}

func TestComposeAllreduce(t *testing.T) {
	// RS phase: invert an Allgather built on the reversed ring;
	// AG phase: Allgather on the ring.
	n := 4
	agFwd := ringAllgather(t, n)

	// Build ring allgather on the reversed ring (sends to n-1).
	topoRev := topology.Ring(n).Reverse()
	coll, _ := collective.New(collective.Allgather, n, 1, 0)
	var sends []Send
	rounds := make([]int, n-1)
	for s := 0; s < n-1; s++ {
		rounds[s] = 1
		for node := 0; node < n; node++ {
			chunk := (node + s) % n
			sends = append(sends, Send{
				Chunk: chunk,
				From:  topology.Node(node),
				To:    topology.Node(((node-1)%n + n) % n),
				Step:  s,
			})
		}
	}
	agRev := New("ring-allgather-rev", coll, topoRev, rounds, sends)
	if err := agRev.Validate(); err != nil {
		t.Fatalf("reverse allgather invalid: %v", err)
	}

	ar, err := AllreduceFromAllgathers(agRev, agFwd)
	if err != nil {
		t.Fatal(err)
	}
	if ar.Coll.Kind != collective.Allreduce {
		t.Fatalf("kind = %v", ar.Coll.Kind)
	}
	if ar.C != n { // Allreduce C equals the dual's G
		t.Fatalf("C = %d, want %d", ar.C, n)
	}
	if ar.Steps() != 2*(n-1) || ar.TotalRounds() != 2*(n-1) {
		t.Fatalf("S=%d R=%d", ar.Steps(), ar.TotalRounds())
	}
	if err := ar.Validate(); err != nil {
		t.Fatalf("allreduce invalid: %v", err)
	}
}

func TestComposeShapeMismatch(t *testing.T) {
	rs, err := Invert(ringAllgather(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	ag6 := ringAllgather(t, 6)
	if _, err := ComposeAllreduce(rs, ag6); err == nil {
		t.Fatal("mismatched P must fail")
	}
	if _, err := ComposeAllreduce(ag6, ag6); err == nil {
		t.Fatal("wrong first-phase kind must fail")
	}
	if _, err := ComposeAllreduce(rs, rs); err == nil {
		t.Fatal("wrong second-phase kind must fail")
	}
}

func TestCombiningValidatorCatchesDoubleCount(t *testing.T) {
	topo := topology.BidirRing(3)
	coll, _ := collective.New(collective.Reduce, 3, 1, 0)
	// Node 1 reduces into 0 twice: the second reduce re-adds node 1's
	// own contribution.
	sends := []Send{
		{Chunk: 0, From: 1, To: 0, Step: 0, Reduce: true},
		{Chunk: 0, From: 2, To: 1, Step: 0, Reduce: true},
		{Chunk: 0, From: 1, To: 0, Step: 1, Reduce: true},
	}
	a := New("dbl", coll, topo, []int{1, 1}, sends)
	err := a.Validate()
	if err == nil || !strings.Contains(err.Error(), "double-counts") {
		t.Fatalf("want double-count error, got %v", err)
	}
}

func TestCombiningValidatorCatchesPartialCopy(t *testing.T) {
	topo := topology.BidirRing(3)
	coll, _ := collective.New(collective.Reduce, 3, 1, 0)
	sends := []Send{
		{Chunk: 0, From: 1, To: 0, Step: 0}, // copy of a partial value
		{Chunk: 0, From: 2, To: 0, Step: 1, Reduce: true},
	}
	a := New("partialcopy", coll, topo, []int{1, 1}, sends)
	err := a.Validate()
	if err == nil || !strings.Contains(err.Error(), "partial") {
		t.Fatalf("want partial-copy error, got %v", err)
	}
}

func TestCombiningValidatorRequiresAllContributions(t *testing.T) {
	topo := topology.BidirRing(3)
	coll, _ := collective.New(collective.Reduce, 3, 1, 0)
	sends := []Send{
		{Chunk: 0, From: 1, To: 0, Step: 0, Reduce: true},
		// node 2's contribution never reaches the root
	}
	a := New("missing", coll, topo, []int{1}, sends)
	err := a.Validate()
	if err == nil || !strings.Contains(err.Error(), "contributions") {
		t.Fatalf("want contributions error, got %v", err)
	}
}

func TestFormatAndCSR(t *testing.T) {
	a := figure2Allgather(t)
	if got := a.CSR(); got != "(1,2,3)" {
		t.Errorf("CSR = %s", got)
	}
	text := a.Format()
	for _, want := range []string{"figure2", "step 0", "step 1", "c0", "->"} {
		if !strings.Contains(text, want) {
			t.Errorf("Format missing %q", want)
		}
	}
}

func TestJSONRoundTripStructure(t *testing.T) {
	a := figure2Allgather(t)
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m["version"].(float64) != 1 {
		t.Errorf("json version: %v", m["version"])
	}
	coll, ok := m["collective"].(map[string]any)
	if !ok || coll["kind"] != "Allgather" {
		t.Errorf("json collective: %v", m["collective"])
	}
	topo, ok := m["topology"].(map[string]any)
	if !ok || topo["name"] != "bidir-ring" {
		t.Errorf("json topology: %v", m["topology"])
	}
	if m["steps"].(float64) != 2 || m["r"].(float64) != 3 {
		t.Errorf("json S/R: %v %v", m["steps"], m["r"])
	}

	// The self-contained document decodes back to a validated, equal
	// algorithm, and re-encodes byte-identically.
	var dec Algorithm
	if err := json.Unmarshal(data, &dec); err != nil {
		t.Fatal(err)
	}
	if dec.Name != a.Name || dec.CSR() != a.CSR() || len(dec.Sends) != len(a.Sends) {
		t.Errorf("decoded algorithm differs: %s %s", dec.Name, dec.CSR())
	}
	data2, err := json.Marshal(&dec)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Error("re-encoded JSON is not byte-identical")
	}
	if a.Fingerprint() != dec.Fingerprint() {
		t.Error("fingerprint changed across round-trip")
	}
}

func TestSendsAtStepSortedDeterministic(t *testing.T) {
	a := figure2Allgather(t)
	s1 := a.SendsAtStep(1)
	if len(s1) != 8 {
		t.Fatalf("step 1 sends = %d", len(s1))
	}
	for i := 1; i < len(s1); i++ {
		if s1[i].Chunk < s1[i-1].Chunk {
			// sorted by chunk then from/to within a step
			if s1[i].Chunk == s1[i-1].Chunk {
				t.Error("unsorted sends")
			}
		}
	}
}

package synth

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/collective"
	"repro/internal/topology"
)

// symmetryPin is one node-symmetry group as an emission resolves it: the
// generators kept, the order of the group they close over (1 when none
// is kept, 0 past enumeration) and whether that group pays (groupPays).
type symmetryPin struct {
	fabric string
	kind   collective.Kind
	c      int
	perms  int
	order  int
	pays   bool
}

// symmetryPins covers Allgather at C = 1, Alltoall at C = P (at C = 1
// every Alltoall chunk ends at node 0) and Gather and Broadcast at root 0
// on the fabrics the workloads and the group-order rule exercise, plus a
// 2-node fabric, where even "no group" pays.
var symmetryPins = []symmetryPin{
	{"dgx1", collective.Allgather, 1, 2, 4, true},
	{"dgx1", collective.Alltoall, 8, 2, 4, true},
	{"dgx1", collective.Gather, 1, 0, 1, false},
	{"dgx1", collective.Broadcast, 1, 0, 1, false},
	{"amd", collective.Allgather, 1, 3, 8, true},
	{"amd", collective.Alltoall, 8, 3, 8, true},
	{"amd", collective.Gather, 1, 1, 2, false},
	{"amd", collective.Broadcast, 1, 0, 1, false},
	{"torus:6x6", collective.Allgather, 1, 3, 36, true},
	{"torus:6x6", collective.Alltoall, 36, 3, 36, true},
	{"torus:6x6", collective.Gather, 1, 3, 8, false},
	{"torus:6x6", collective.Broadcast, 1, 0, 1, false},
	{"hypercube:4", collective.Allgather, 1, 4, 16, true},
	{"hypercube:4", collective.Alltoall, 16, 4, 16, true},
	{"hypercube:4", collective.Gather, 1, 3, 24, true},
	{"hypercube:4", collective.Broadcast, 1, 0, 1, false},
	{"multinode:dgx1:4:2:2", collective.Allgather, 1, 1, 4, false},
	{"multinode:dgx1:4:2:2", collective.Alltoall, 32, 1, 4, false},
	{"multinode:dgx1:4:2:2", collective.Gather, 1, 1, 2, false},
	{"multinode:dgx1:4:2:2", collective.Broadcast, 1, 0, 1, false},
	{"line:8", collective.Allgather, 1, 1, 2, false},
	{"line:8", collective.Alltoall, 8, 1, 2, false},
	{"line:8", collective.Gather, 1, 0, 1, false},
	{"line:8", collective.Broadcast, 1, 0, 1, false},
	{"dragonfly:4:2:1", collective.Allgather, 1, 1, 2, false},
	{"dragonfly:4:2:1", collective.Alltoall, 8, 1, 2, false},
	{"dragonfly:4:2:1", collective.Gather, 1, 0, 1, false},
	{"dragonfly:4:2:1", collective.Broadcast, 1, 0, 1, false},
	{"ring:8", collective.Allgather, 1, 1, 8, true},
	{"ring:8", collective.Alltoall, 8, 1, 8, true},
	{"ring:8", collective.Gather, 1, 0, 1, false},
	{"ring:8", collective.Broadcast, 1, 0, 1, false},
	{"bidir-ring:9", collective.Allgather, 1, 1, 9, true},
	{"bidir-ring:9", collective.Alltoall, 9, 1, 9, true},
	{"bidir-ring:9", collective.Gather, 1, 1, 2, false},
	{"bidir-ring:9", collective.Broadcast, 1, 0, 1, false},
	{"line:2", collective.Allgather, 1, 1, 2, true},
	{"line:2", collective.Alltoall, 2, 1, 2, true},
	{"line:2", collective.Gather, 1, 0, 1, true},
	{"line:2", collective.Broadcast, 1, 0, 1, true},
}

// TestSymmetryRecordPinned pins the node-symmetry group each emission
// breaks over, read through the encoder's plan (no plan: no generator,
// order 1), and, for the unrooted kinds, the implied-Allgather gate
// (worthAsking), which must agree with the group's pays.
func TestSymmetryRecordPinned(t *testing.T) {
	for _, row := range symmetryPins {
		topo := mustFabric(t, row.fabric)
		coll, err := collective.New(row.kind, topo.P, row.c, 0)
		if err != nil {
			t.Fatal(err)
		}
		perms, order := 0, 1
		if plan := planFor(t, topo, coll); plan != nil {
			perms, order = len(plan.perms), plan.order
		}
		if pays := groupPays(order, topo.P); perms != row.perms || order != row.order || pays != row.pays {
			t.Errorf("%s %v C=%d: {perms order pays} = {%d %d %v}, want {%d %d %v}",
				row.fabric, row.kind, row.c, perms, order, pays, row.perms, row.order, row.pays)
		}
		if !row.kind.IsRooted() {
			if got := worthAsking(Instance{Coll: coll, Topo: topo}, Options{}); got != row.pays {
				t.Errorf("%s %v C=%d: worthAsking = %v, want %v", row.fabric, row.kind, row.c, got, row.pays)
			}
		}
	}
}

// gateInstance is the implied-Allgather gate's input on torus:6x6: the
// Allgather at C = 1.
func gateInstance(tb testing.TB) Instance {
	tb.Helper()
	topo := topology.Torus2D(6, 6)
	coll, err := collective.New(collective.Allgather, topo.P, 1, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return Instance{Coll: coll, Topo: topo, Steps: 6, Round: 6}
}

// BenchmarkWorthAsking times the warm implied-Allgather gate on
// torus:6x6 Allgather C = 1.
func BenchmarkWorthAsking(b *testing.B) {
	in := gateInstance(b)
	if !worthAsking(in, Options{}) {
		b.Fatal("torus:6x6 Allgather: gate declined")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		worthAsking(in, Options{})
	}
}

// TestSymmetryOfMatchesPins reads the pinned groups from the record
// itself, gate and quotient aside.
func TestSymmetryOfMatchesPins(t *testing.T) {
	for _, row := range symmetryPins {
		topo := mustFabric(t, row.fabric)
		coll, err := collective.New(row.kind, topo.P, row.c, 0)
		if err != nil {
			t.Fatal(err)
		}
		sym := symmetryOf(coll, topo)
		if len(sym.perms) != row.perms || sym.order != row.order || sym.pays != row.pays {
			t.Errorf("%s %v C=%d: record {perms order pays} = {%d %d %v}, want {%d %d %v}",
				row.fabric, row.kind, row.c, len(sym.perms), sym.order, sym.pays, row.perms, row.order, row.pays)
		}
	}
}

// resetSymMemo empties the process-wide symmetry memo.
func resetSymMemo() {
	symMemo.mu.Lock()
	symMemo.cells, symMemo.keys = nil, nil
	symMemo.mu.Unlock()
}

// TestSymmetryRecordShared checks that the memo is keyed by fabric, not
// by object: two topologies built separately from one spec string share
// one record and one automorphism search, even when many goroutines ask
// at once. Past symMemoCap fabrics the memo keeps only the newest, and
// an evicted record is computed again, equal to the first.
func TestSymmetryRecordShared(t *testing.T) {
	resetSymMemo()
	defer resetSymMemo()
	var searches atomic.Int64
	defer func(f func(*topology.Topology, ...int) *topology.Group) { autFixing = f }(autFixing)
	autFixing = func(topo *topology.Topology, fixed ...int) *topology.Group {
		searches.Add(1)
		return topology.AutFixing(topo, fixed...)
	}

	topos := []*topology.Topology{mustFabric(t, "torus:4x4"), mustFabric(t, "torus:4x4")}
	coll, err := collective.New(collective.Allgather, 16, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*nodeSymPlan, 16)
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = symmetryOf(coll, topos[i%2])
		}(i)
	}
	wg.Wait()
	for _, r := range recs {
		if r != recs[0] {
			t.Fatal("two records for one fabric and chunk layout")
		}
	}
	if n := searches.Load(); n != 1 {
		t.Fatalf("automorphism group computed %d times, want 1", n)
	}
	if len(recs[0].perms) == 0 || !recs[0].pays {
		t.Fatalf("torus:4x4 Allgather: %d generators, pays %v", len(recs[0].perms), recs[0].pays)
	}

	bus, err := collective.New(collective.Allgather, 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for bw := 1; bw <= symMemoCap+3; bw++ {
		symmetryOf(bus, topology.SharedBus(4, bw)) // a new fabric per bandwidth
	}
	symMemo.mu.Lock()
	held := len(symMemo.cells)
	_, kept := symMemo.cells[topos[0].Fingerprint()]
	symMemo.mu.Unlock()
	if held > symMemoCap || kept {
		t.Fatalf("memo holds %d fabrics (cap %d), torus:4x4 kept %v", held, symMemoCap, kept)
	}
	again := symmetryOf(coll, topos[0])
	if again == recs[0] || !reflect.DeepEqual(again, recs[0]) {
		t.Fatal("an evicted record must be computed again, equal to the first")
	}
}

// TestWorthAskingWarmAllocs bounds the warm implied-Allgather gate: once
// the record is memoized, asking costs two memoized fingerprints and a
// lookup, not the closure enumeration behind the group order nor a fresh
// digest of the collective's G×P relations.
func TestWorthAskingWarmAllocs(t *testing.T) {
	in := gateInstance(t)
	if !worthAsking(in, Options{}) {
		t.Fatal("torus:6x6 Allgather: gate declined")
	}
	if n := testing.AllocsPerRun(20, func() { worthAsking(in, Options{}) }); n > 0 {
		t.Fatalf("warm gate allocates %.0f per call, want 0", n)
	}
}

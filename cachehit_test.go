package sccl_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	sccl "repro"
)

// TestCacheHitCostIndependentOfFabric pins what a cache hit costs: the
// same number of allocations on a 4-link ring as on a 384-link 3D torus,
// and for an Allreduce as for an Allgather (a combining hit looks up its
// own entry only, never its duals'). Every answer comes from a loaded
// library entry, so nothing is solved.
func TestCacheHitCostIndependentOfFabric(t *testing.T) {
	const maxAllocs = 17
	eng := sccl.NewEngine(sccl.EngineOptions{})
	defer eng.Close()
	ctx := context.Background()
	specs := []string{"ring:4", "torus:6x6", "torus3d:4x4x4"}
	kinds := []sccl.Kind{sccl.Allgather, sccl.Allreduce}
	allocs := map[string]float64{}
	for _, spec := range specs {
		topo, err := sccl.ParseTopology(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range kinds {
			req := sccl.Request{Kind: kind, Topo: topo, Budget: sccl.Budget{C: 1, S: 1, R: 1}}
			fp, err := eng.Fingerprint(req)
			if err != nil {
				t.Fatal(err)
			}
			lib := fmt.Sprintf(`{"format":%q,"entries":[{"fingerprint":%q,"kind":%q,"topology":%q,"root":0,"budget":{"c":1,"s":1,"r":1},"status":"UNSAT"}]}`,
				sccl.FormatLibrary, fp, kind, topo.Name)
			if _, err := eng.LoadLibrary(strings.NewReader(lib)); err != nil {
				t.Fatal(err)
			}
			key := spec + " " + kind.String()
			allocs[key] = testing.AllocsPerRun(50, func() {
				res, err := eng.Synthesize(ctx, req)
				if err != nil || !res.CacheHit {
					t.Fatalf("%s: not a cache hit (%v)", key, err)
				}
			})
		}
	}
	first := allocs[specs[0]+" "+kinds[0].String()]
	for _, n := range allocs {
		if n != first || n > maxAllocs {
			t.Fatalf("allocations per cache hit %v; want one figure <= %d for every fabric and kind", allocs, maxAllocs)
		}
	}
}

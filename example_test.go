package sccl_test

import (
	"context"
	"fmt"

	sccl "repro"
)

// The sessionful API: an Engine answers Requests, caching algorithms by
// canonical request fingerprint — the second identical request is served
// without running the solver.
func ExampleEngine_Synthesize() {
	eng := sccl.NewEngine(sccl.EngineOptions{})
	req := sccl.Request{
		Kind:   sccl.Allgather,
		Topo:   sccl.DGX1(),
		Budget: sccl.Budget{C: 1, S: 2, R: 2},
	}
	res, _ := eng.Synthesize(context.Background(), req)
	again, _ := eng.Synthesize(context.Background(), req)
	fmt.Println(res.Status, res.Algorithm.CSR(), res.CacheHit, again.CacheHit)
	// Output:
	// SAT (1,2,2) false true
}

// Synthesize the paper's 2-step latency-optimal DGX-1 Allgather and prove
// that nothing with a lower bandwidth cost exists at that step count.
func ExampleEngine_Synthesize_latencyOptimal() {
	eng := sccl.NewEngine(sccl.EngineOptions{})
	req := sccl.Request{Kind: sccl.Allgather, Topo: sccl.DGX1(), Budget: sccl.Budget{C: 1, S: 2, R: 2}}
	res, _ := eng.Synthesize(context.Background(), req)
	fmt.Println(res.Status, res.Algorithm.CSR())

	req.Budget.C = 2
	res, _ = eng.Synthesize(context.Background(), req)
	fmt.Println(res.Status)
	// Output:
	// SAT (1,2,2)
	// UNSAT
}

// Lower bounds drive the Pareto procedure: the DGX-1 has diameter 2 and a
// 7/6 cut bound for Allgather (paper §2.4–2.5).
func ExampleLowerBounds() {
	steps, bw, _ := sccl.LowerBounds(sccl.Allgather, sccl.DGX1(), 0)
	fmt.Printf("S >= %d, R/C >= %s\n", steps, bw.RatString())
	// Output:
	// S >= 2, R/C >= 7/6
}

// The NCCL baseline is an explicit schedule with the paper's Table 3
// shape.
func ExampleNCCLAllgather() {
	ag, _ := sccl.NCCLAllgather()
	fmt.Println(ag.CSR(), "k =", ag.KSync())
	// Output:
	// (6,7,7) k = 0
}

// Combining collectives derive from their duals: a ring Reducescatter is
// the inverse of the ring Allgather.
func ExampleInvert() {
	eng := sccl.NewEngine(sccl.EngineOptions{})
	ag, _ := eng.Synthesize(context.Background(), sccl.Request{
		Kind: sccl.Allgather, Topo: sccl.Ring(4), Budget: sccl.Budget{C: 1, S: 3, R: 3},
	})
	rs, _ := sccl.Invert(ag.Algorithm)
	fmt.Println(rs.Coll.Kind, rs.CSR())
	// Output:
	// Reducescatter (1,3,3)
}

// Executing a schedule on goroutine-GPUs validates it end to end.
func ExampleExecute() {
	eng := sccl.NewEngine(sccl.EngineOptions{})
	res, _ := eng.Synthesize(context.Background(), sccl.Request{
		Kind: sccl.Allreduce, Topo: sccl.BidirRing(4), Budget: sccl.Budget{C: 1, S: 3, R: 3},
	})
	alg := res.Algorithm
	err := sccl.Execute(alg, 256)
	fmt.Println(alg.CSR(), err)
	// Output:
	// (4,6,6) <nil>
}

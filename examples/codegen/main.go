// Codegen example (§4): synthesize the latency-optimal DGX-1 Allgather
// through an Engine and lower it three ways — a fused CUDA kernel with
// flag synchronization, one kernel per step, and DMA-engine cudaMemcpy
// calls — printing the generated source.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	sccl "repro"
)

func main() {
	topo := sccl.DGX1()
	eng := sccl.NewEngine(sccl.EngineOptions{})
	res, err := eng.Synthesize(context.Background(), sccl.Request{
		Kind: sccl.Allgather, Topo: topo,
		Budget: sccl.Budget{C: 1, S: 2, R: 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	if res.Algorithm == nil {
		log.Fatalf("synthesis: %v", res.Status)
	}

	for _, low := range []sccl.Lowering{
		sccl.LowerFusedPush,
		sccl.LowerMultiKernel,
		sccl.LowerCudaMemcpy,
	} {
		src, err := sccl.GenerateCUDA(res.Algorithm, low)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %v lowering: %d lines ===\n", low, strings.Count(src, "\n"))
		// Print the head of each variant; full source goes to a file in
		// real use.
		lines := strings.SplitN(src, "\n", 25)
		fmt.Println(strings.Join(lines[:min(24, len(lines))], "\n"))
		fmt.Println("...")
	}

	// The SMT-LIB2 route: the same instance as a QF_LIA script for an
	// external solver (the paper's Z3 path).
	coll, err := sccl.NewCollective(sccl.Allgather, topo.P, 1, 0)
	if err != nil {
		log.Fatal(err)
	}
	script, err := sccl.EmitSMTLIB(sccl.Instance{Coll: coll, Topo: topo, Steps: 2, Round: 2})
	if err != nil {
		log.Fatal(err)
	}
	text := script.String()
	fmt.Printf("=== SMT-LIB2 encoding: %d assertions ===\n", strings.Count(text, "(assert"))
	fmt.Println("synthesis above used the built-in CDCL solver; discharge this script by hand with `sccl smtlib ... > x.smt2 && z3 x.smt2`")
}

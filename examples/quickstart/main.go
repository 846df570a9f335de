// Quickstart: build a synthesis Engine, synthesize an Allgather for a
// 4-node ring via a Request, inspect the schedule, see the algorithm
// cache serve a repeated request, persist the result as JSON, and
// execute it on real buffers with one goroutine per "GPU".
package main

import (
	"context"
	"fmt"
	"log"

	sccl "repro"
)

func main() {
	ctx := context.Background()

	// A unidirectional ring of 4 nodes with unit link bandwidth.
	topo := sccl.Ring(4)
	fmt.Println("topology:", topo)

	// Lower bounds tell us what to ask for: the ring has diameter 3 and
	// each node must ingest 3 foreign chunks over 1 link, so any Allgather
	// needs S >= 3 steps and bandwidth cost R/C >= 3.
	steps, bw, err := sccl.LowerBounds(sccl.Allgather, topo, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lower bounds: S >= %d, R/C >= %s\n", steps, bw.RatString())

	// The engine owns a worker pool, pooled solver sessions and an in-memory
	// algorithm cache keyed by canonical request fingerprints.
	eng := sccl.NewEngine(sccl.EngineOptions{})

	// Synthesize the (C=1, S=3, R=3) algorithm — simultaneously latency-
	// and bandwidth-optimal on this topology.
	req := sccl.Request{
		Kind: sccl.Allgather, Topo: topo,
		Budget: sccl.Budget{C: 1, S: 3, R: 3},
	}
	res, err := eng.Synthesize(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("synthesis:", res.Status)
	fmt.Print(res.Algorithm.Format())

	// The same request again is served from the cache: no solver work.
	again, err := eng.Synthesize(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("repeated request: cache hit = %v (%.4fs)\n", again.CacheHit, again.Wall.Seconds())

	// Asking for fewer steps is provably impossible — and the UNSAT
	// verdict is cached too, so re-asking is free.
	unsat, err := eng.Synthesize(ctx, sccl.Request{
		Kind: sccl.Allgather, Topo: topo,
		Budget: sccl.Budget{C: 1, S: 2, R: 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("2-step variant:", unsat.Status, "(the solver proves no such algorithm exists)")

	// Algorithms serialize to a stable, self-contained JSON document that
	// re-validates on decode — the basis of persisted algorithm libraries
	// (see Engine.SaveLibrary and `sccl library`).
	data, err := sccl.EncodeAlgorithm(res.Algorithm)
	if err != nil {
		log.Fatal(err)
	}
	decoded, err := sccl.DecodeAlgorithm(data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("JSON round-trip: %d bytes, decoded %s %s\n", len(data), decoded.Name, decoded.CSR())

	// Execute the synthesized schedule on real buffers: 4 goroutines
	// exchange chunks over channels and the result is verified bit-exactly.
	if err := sccl.Execute(decoded, 1024); err != nil {
		log.Fatal(err)
	}
	fmt.Println("executed on 4 goroutine-GPUs with 1024-element chunks: verified")
}

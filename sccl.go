// Package sccl is a Go implementation of SCCL — the Synthesized
// Collective Communication Library from "Synthesizing Optimal Collective
// Algorithms" (Cai, Liu, Maleki, Musuvathi, Mytkowicz, Nelson, Saarikivi;
// PPoPP 2021, arXiv:2008.08708).
//
// Given a hardware topology (a node count and a bandwidth relation over
// directed links) and a collective primitive (pre/post conditions over
// chunk placements), SCCL synthesizes k-synchronous algorithms along the
// Pareto frontier between latency-optimal and bandwidth-optimal, by
// encoding the search as constraints discharged to a built-in CDCL SAT
// solver through an order-encoded integer layer (Go has no maintained Z3
// bindings; an SMT-LIB2 emitter exports any instance for an external
// solver to cross-check by hand).
//
// The package also contains the paper's evaluation substrate: NCCL/RCCL
// ring baselines, the (α, β) cost model with lowering variants (fused
// push kernels, multi-kernel, cudaMemcpy DMA), a link-level discrete-event
// simulator, a goroutine-per-GPU executor that runs schedules on real
// buffers, and a CUDA-flavored code generator.
//
// The primary entry points are the three nouns of the sessionful API:
// an Engine owns a worker pool, pooled solver sessions and an algorithm
// cache; a Request names a collective, a topology, a root and a (C, S, R)
// Budget; a Result carries the algorithm, the solver verdict and a
// cache-hit flag. Algorithms, topologies, collectives, requests and
// frontiers all have stable versioned JSON forms (EncodeAlgorithm and
// friends), and an engine's cache persists as a reloadable library
// (Engine.SaveLibrary / Engine.LoadLibrary) so synthesized algorithms
// can be served without re-solving.
//
// Quick start:
//
//	eng := sccl.NewEngine(sccl.EngineOptions{})
//	res, err := eng.Synthesize(ctx, sccl.Request{
//		Kind:   sccl.Allgather,
//		Topo:   sccl.DGX1(),
//		Budget: sccl.Budget{C: 6, S: 3, R: 7},
//	})
//	// res.Algorithm is the bandwidth-optimal 3-step DGX-1 Allgather from
//	// the paper; repeating the request sets res.CacheHit instead of
//	// running the solver again.
//
// See examples/ for runnable walkthroughs and cmd/scclbench for the
// harness that regenerates every table and figure of the paper.
package sccl

import (
	"math/big"

	"repro/internal/algorithm"
	"repro/internal/collective"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/nccl"
	"repro/internal/sat"
	"repro/internal/sim"
	"repro/internal/smt"
	"repro/internal/synth"
	"repro/internal/topology"
)

// Core types re-exported from the implementation packages.
type (
	// Topology is a node count plus bandwidth relation (paper §3.2.1).
	Topology = topology.Topology
	// Node identifies an endpoint in [0, P).
	Node = topology.Node
	// Link is a directed link between nodes.
	Link = topology.Link
	// Relation is one bandwidth-relation entry.
	Relation = topology.Relation
	// TopologySpec is a structured, versioned topology builder spec
	// ({family, params} plus an optional nested base), backed by the
	// family registry in internal/topology. It JSON round-trips under
	// the sccl.topology-spec/v1 tag, and its Build method constructs a
	// topology fingerprint-identical to the legacy string form.
	TopologySpec = topology.Spec
	// Collective is an instantiated collective specification.
	Collective = collective.Spec
	// Kind enumerates collective primitives.
	Kind = collective.Kind
	// Algorithm is a synthesized or hand-built k-synchronous schedule.
	Algorithm = algorithm.Algorithm
	// Send is one scheduled chunk transfer.
	Send = algorithm.Send
	// SynthOptions tunes a synthesis call.
	SynthOptions = synth.Options
	// ParetoPoint is one frontier member.
	ParetoPoint = synth.ParetoPoint
	// ParetoStats reports probe counts and aggregate speedup of a sweep.
	ParetoStats = synth.ParetoStats
	// ProbeStats is the per-probe record of solver work and path counters
	// that ParetoStats and CacheStats embed.
	ProbeStats = synth.ProbeStats
	// Instance is a raw SynColl instance for direct control.
	Instance = synth.Instance
	// Status is the solver verdict (Sat / Unsat / Unknown).
	Status = sat.Status
	// Profile holds (α, β) calibration for a machine.
	Profile = cost.Profile
	// Lowering selects the implementation strategy (paper §4).
	Lowering = cost.Lowering
	// CostPoint summarizes an algorithm for cost evaluation.
	CostPoint = cost.Point
	// SimConfig parameterizes the discrete-event simulator.
	SimConfig = sim.Config
	// SimResult is a simulation outcome.
	SimResult = sim.Result
	// Buffers holds per-node per-chunk data for the executor.
	Buffers = machine.Buffers
	// Script is an SMT-LIB2 document for external solvers.
	Script = smt.Script
)

// Collective kinds (paper Table 2 plus combining duals).
const (
	Gather        = collective.Gather
	Allgather     = collective.Allgather
	Alltoall      = collective.Alltoall
	Broadcast     = collective.Broadcast
	Scatter       = collective.Scatter
	Reduce        = collective.Reduce
	Reducescatter = collective.Reducescatter
	Allreduce     = collective.Allreduce
)

// Solver verdicts.
const (
	Sat     = sat.Sat
	Unsat   = sat.Unsat
	Unknown = sat.Unknown
)

// Lowering variants (paper §4).
const (
	LowerBaseline    = cost.LowerBaseline
	LowerFusedPush   = cost.LowerFusedPush
	LowerFusedPull   = cost.LowerFusedPull
	LowerMultiKernel = cost.LowerMultiKernel
	LowerCudaMemcpy  = cost.LowerCudaMemcpy
)

// DGX1 returns the NVIDIA DGX-1 NVLink topology (paper Figure 1).
func DGX1() *Topology { return topology.DGX1() }

// AMDZ52 returns the Gigabyte Z52 topology as modeled in §5.2.2.
func AMDZ52() *Topology { return topology.AMDZ52() }

// Ring returns a unidirectional unit-bandwidth ring.
func Ring(n int) *Topology { return topology.Ring(n) }

// BidirRing returns a bidirectional unit-bandwidth ring.
func BidirRing(n int) *Topology { return topology.BidirRing(n) }

// Line returns a bidirectional path.
func Line(n int) *Topology { return topology.Line(n) }

// FullyConnected returns the complete directed graph.
func FullyConnected(n int) *Topology { return topology.FullyConnected(n) }

// Star returns a hub-and-spoke topology centered at node 0.
func Star(n int) *Topology { return topology.Star(n) }

// Hypercube returns a d-dimensional hypercube.
func Hypercube(d int) *Topology { return topology.Hypercube(d) }

// Torus2D returns an r x c wraparound mesh.
func Torus2D(r, c int) *Topology { return topology.Torus2D(r, c) }

// SharedBus returns n nodes sharing one bw-chunks-per-round medium.
func SharedBus(n, bw int) *Topology { return topology.SharedBus(n, bw) }

// DGX2 returns a 16-GPU NVSwitch model (all-to-all links with per-GPU
// 6-port ingress/egress caps).
func DGX2() *Topology { return topology.DGX2() }

// Torus3D returns an a x b x c wraparound mesh.
func Torus3D(a, b, c int) *Topology { return topology.Torus3D(a, b, c) }

// FatTree returns a two-level switched fat-tree of pods*hosts GPUs with
// per-host NIC caps and per-pod uplink caps (see internal/topology).
func FatTree(pods, hosts, hostBW, uplinkBW int) *Topology {
	return topology.FatTree(pods, hosts, hostBW, uplinkBW)
}

// MultiNode joins `count` copies of a base topology with NIC links
// between gateway GPUs (machine ring), capping per-machine NIC traffic.
func MultiNode(base *Topology, count, nics, nicBW int) (*Topology, error) {
	return topology.MultiNode(base, count, nics, nicBW)
}

// TopologyFamilies lists the registered topology family names, in
// registry order.
func TopologyFamilies() []string { return topology.Families() }

// CustomCollective builds a collective directly from pre/post relations
// over (chunk, node) pairs — the escape hatch for exotic collectives the
// paper's global chunk numbering enables (§3.2.2).
func CustomCollective(name string, p int, pre, post Rel) (*Collective, error) {
	return collective.Custom(name, p, pre, post)
}

// Rel is a (chunk, node) relation used by custom collectives.
type Rel = collective.Rel

// NewRel allocates an empty G x P relation.
func NewRel(g, p int) Rel { return collective.NewRel(g, p) }

// AllgatherV builds an uneven Allgather (node n contributes counts[n]
// chunks).
func AllgatherV(p int, counts []int) (*Collective, error) {
	return collective.AllgatherV(p, counts)
}

// GatherV builds an uneven Gather to a root.
func GatherV(p int, counts []int, root Node) (*Collective, error) {
	return collective.GatherV(p, counts, root)
}

// CollectTrace simulates an algorithm while recording per-transfer
// timings; export with Trace.ChromeTraceJSON for chrome://tracing.
func CollectTrace(a *Algorithm, cfg SimConfig) (*sim.Trace, error) {
	return sim.CollectTrace(a, cfg)
}

// Trace is a simulated transfer timeline.
type Trace = sim.Trace

// NewCollective instantiates a collective spec with per-node chunk count c
// and root (for rooted collectives).
func NewCollective(kind Kind, p, c int, root Node) (*Collective, error) {
	return collective.New(kind, p, c, root)
}

// LowerBounds returns the latency (steps) and bandwidth (R/C) lower
// bounds used by the synthesis procedure.
func LowerBounds(kind Kind, topo *Topology, root Node) (steps int, bandwidth *big.Rat, err error) {
	b, err := collective.EffectiveLowerBounds(kind, topo.P, 1, root, topo)
	if err != nil {
		return 0, nil, err
	}
	return b.Steps, b.Bandwidth, nil
}

// Invert derives the combining dual's algorithm by reversing dataflow
// (Broadcast -> Reduce, Allgather -> Reducescatter).
func Invert(a *Algorithm) (*Algorithm, error) { return algorithm.Invert(a) }

// ComposeAllreduce builds Allreduce = Reducescatter ∘ Allgather.
func ComposeAllreduce(rs, ag *Algorithm) (*Algorithm, error) {
	return algorithm.ComposeAllreduce(rs, ag)
}

// NCCLAllgather returns the NCCL DGX-1 ring Allgather baseline (6,7,7).
func NCCLAllgather() (*Algorithm, error) { return nccl.Allgather() }

// NCCLAllreduce returns the NCCL DGX-1 ring Allreduce baseline (48,14,14).
func NCCLAllreduce() (*Algorithm, error) { return nccl.Allreduce() }

// NCCLBroadcast returns the NCCL pipelined Broadcast with multiplier m.
func NCCLBroadcast(root Node, m int) (*Algorithm, error) { return nccl.Broadcast(root, m) }

// RCCLAllgather returns the RCCL Z52 ring Allgather baseline (2,7,7).
func RCCLAllgather() (*Algorithm, error) { return nccl.RCCLAllgather() }

// RCCLAllreduce returns the RCCL Z52 ring Allreduce baseline (16,14,14).
func RCCLAllreduce() (*Algorithm, error) { return nccl.RCCLAllreduce() }

// DGX1Profile returns (α, β) constants calibrated for the DGX-1.
func DGX1Profile() Profile { return cost.DGX1Profile() }

// AMDProfile returns (α, β) constants for the Gigabyte Z52.
func AMDProfile() Profile { return cost.AMDProfile() }

// Simulate runs the discrete-event link-level simulator.
func Simulate(a *Algorithm, cfg SimConfig) (SimResult, error) { return sim.Simulate(a, cfg) }

// Execute runs the algorithm on real buffers (one goroutine per node) and
// verifies the collective's semantics bit-exactly.
func Execute(a *Algorithm, chunkElems int) error {
	return machine.ExecuteAndVerify(a, chunkElems)
}

// GenerateCUDA emits CUDA-flavored C++ for the algorithm under the given
// lowering (paper §4).
func GenerateCUDA(a *Algorithm, lowering Lowering) (string, error) {
	return codegenCUDA(a, lowering)
}

// EmitSMTLIB renders a SynColl instance as an SMT-LIB2 script mirroring
// constraints C1–C6, for discharge by hand to an external solver (z3,
// cvc5): the paper's own solve route, exported as an artefact.
func EmitSMTLIB(in Instance) (*Script, error) { return synth.EmitSMTLIB(in) }

// Selector dispatches to the fastest algorithm per input size (the
// paper's "automatically switch between multiple implementations" mode).
type Selector = cost.Selector

// NewSelector builds a size-dispatch table over candidate cost points.
func NewSelector(p Profile, candidates []CostPoint, lo, hi float64) (*Selector, error) {
	return cost.NewSelector(p, candidates, lo, hi)
}

// PointOf summarizes an algorithm as a cost point under a lowering.
func PointOf(a *Algorithm, low Lowering) CostPoint {
	return CostPoint{Name: a.Name + " " + a.CSR(), S: a.Steps(), R: a.TotalRounds(), C: a.C, Low: low}
}

// GenerateMSCCLXML renders the algorithm in the MSCCL runtime's XML
// interchange format (the output format of the original SCCL tooling).
func GenerateMSCCLXML(a *Algorithm) (string, error) { return codegenMSCCLXML(a) }

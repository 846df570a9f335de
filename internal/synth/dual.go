package synth

import (
	"context"
	"fmt"

	"repro/internal/algorithm"
	"repro/internal/collective"
	"repro/internal/sat"
	"repro/internal/topology"
)

// DualInstances lists the non-combining instances a request for kind at
// budget (c, s, r) on topo is answered through (paper §3.5). A
// non-combining kind is its own single instance. Reduce and Reducescatter
// are the inverse of a Broadcast or an Allgather on the reversed
// topology, and Allreduce is that inverted Allgather followed by an
// Allgather on topo. When topo equals its reverse (the same
// Topology.Fingerprint) every dual runs on topo itself, so Allreduce
// lists one Allgather that serves both phases; otherwise it lists the
// reversed instance first. AssembleDuals builds the answer from the
// instances' algorithms in the same order.
func DualInstances(kind collective.Kind, topo *topology.Topology, root topology.Node, c, s, r int) ([]Instance, error) {
	dual := kind
	switch kind {
	case collective.Reduce:
		dual = collective.Broadcast
	case collective.Reducescatter, collective.Allreduce:
		dual = collective.Allgather
	}
	coll, err := collective.New(dual, topo.P, c, root)
	if err != nil {
		return nil, err
	}
	in := Instance{Coll: coll, Topo: topo, Steps: s, Round: r}
	if !kind.IsCombining() {
		return []Instance{in}, nil
	}
	rev := topo.Reverse()
	if rev.Fingerprint() == topo.Fingerprint() {
		return []Instance{in}, nil
	}
	revIn := in
	revIn.Topo = rev
	if kind == collective.Allreduce {
		return []Instance{revIn, in}, nil
	}
	return []Instance{revIn}, nil
}

// AssembleDuals builds the answer to a kind request on topo from the Sat
// algorithms of its DualInstances, in their order. A non-combining kind
// is its one algorithm. Otherwise the first algorithm is inverted and
// rebound to topo; for Allreduce the last one (the same algorithm on a
// self-reverse fabric) follows as the Allgather phase. The result is
// validated on topo.
func AssembleDuals(kind collective.Kind, topo *topology.Topology, algs []*algorithm.Algorithm) (*algorithm.Algorithm, error) {
	if n := len(algs); n != 1 && (n != 2 || kind != collective.Allreduce) {
		return nil, fmt.Errorf("synth: %v from %d dual algorithms", kind, len(algs))
	}
	if !kind.IsCombining() {
		return algs[0], nil
	}
	inv, err := algorithm.Invert(algs[0])
	if err != nil {
		return nil, err
	}
	// The inverse runs on the dual's reverse, which is topo (reverse of
	// reverse, or a fabric equal to its reverse): rebind it to the
	// caller's topology object.
	inv = algorithm.New(inv.Name, inv.Coll, topo, inv.Rounds, inv.Sends)
	if kind != collective.Allreduce {
		if err := inv.Validate(); err != nil {
			return nil, fmt.Errorf("synth: inverted algorithm invalid: %w", err)
		}
		return inv, nil
	}
	ar, err := algorithm.ComposeAllreduce(inv, algs[len(algs)-1])
	if err != nil {
		return nil, err
	}
	ar = algorithm.New(ar.Name, ar.Coll, topo, ar.Rounds, ar.Sends)
	if err := ar.Validate(); err != nil {
		return nil, fmt.Errorf("synth: composed Allreduce invalid: %w", err)
	}
	return ar, nil
}

// SynthesizeCollective synthesizes any collective kind — including
// combining ones via their duals (§3.5) — for a specific (C, S, R). For
// combining collectives S and R refer to the dual instance; the resulting
// algorithm's step/round counts are those of the derived algorithm
// (doubled for Allreduce).
func SynthesizeCollective(kind collective.Kind, topo *topology.Topology, root topology.Node, c, s, r int, opts Options) (*algorithm.Algorithm, sat.Status, error) {
	return SynthesizeCollectiveContext(context.Background(), kind, topo, root, c, s, r, opts)
}

// SynthesizeCollectiveContext is SynthesizeCollective with cooperative
// cancellation threaded through every dual's solver call: it solves each
// of DualInstances once and assembles them with AssembleDuals.
func SynthesizeCollectiveContext(ctx context.Context, kind collective.Kind, topo *topology.Topology, root topology.Node, c, s, r int, opts Options) (*algorithm.Algorithm, sat.Status, error) {
	ins, err := DualInstances(kind, topo, root, c, s, r)
	if err != nil {
		return nil, sat.Unknown, err
	}
	algs := make([]*algorithm.Algorithm, len(ins))
	for i, in := range ins {
		res, err := SynthesizeContext(ctx, in, opts)
		if err != nil || res.Status != sat.Sat {
			return nil, res.Status, err
		}
		algs[i] = res.Algorithm
	}
	alg, err := AssembleDuals(kind, topo, algs)
	if err != nil {
		return nil, sat.Sat, err
	}
	return alg, sat.Sat, nil
}

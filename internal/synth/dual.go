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
// reversed instance first. assembleDuals builds the answer from the
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

// assembleDuals builds the answer to a kind request on topo from the Sat
// algorithms of its DualInstances, in their order. A non-combining kind
// is its one algorithm. Otherwise the first algorithm is inverted and
// rebound to topo; for Allreduce the last one (the same algorithm on a
// self-reverse fabric) follows as the Allgather phase. The result is
// validated on topo.
func assembleDuals(kind collective.Kind, topo *topology.Topology, algs []*algorithm.Algorithm) (*algorithm.Algorithm, error) {
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

// SolveFunc answers one non-combining instance: Sat with a validated
// algorithm, Unsat, or Unknown when a timeout or cancellation cut the
// solve short.
type SolveFunc func(ctx context.Context, in Instance) (*algorithm.Algorithm, sat.Status, error)

// implying returns the instance that answers in through its witness: the
// Allgather at root 0 and in's budget, when it implies in
// (collective.Spec.Implies) and in does not imply it back. Of the
// built-in kinds that is Gather at any root and Alltoall.
func implying(in Instance) (Instance, bool) {
	a := in.Coll
	if a.G%a.P != 0 {
		return Instance{}, false
	}
	b, err := collective.New(collective.Allgather, a.P, a.G/a.P, 0)
	if err != nil || !b.Implies(a) || a.Implies(b) {
		return Instance{}, false
	}
	return Instance{Coll: b, Topo: in.Topo, Steps: in.Steps, Round: in.Round}, true
}

// worthAsking reports whether the implying Allgather b is the cheaper
// route to a spec it implies under opts: node symmetry is on, and b's
// node-symmetry group pays (symmetryOf; b is unrooted, so that is its
// fixed-point-free group). Where the group is smaller (order 2 on
// eight-node dragonfly and multinode fabrics) or absent, and with
// symmetry off, the Allgather has measured costlier than the spec's own
// solve.
func worthAsking(b Instance, opts Options) bool {
	return !opts.NoSymmetryBreaking && !opts.ProveUnsat && symmetryOf(b.Coll, b.Topo).pays
}

// groupPays reports whether a node-symmetry group of the given order
// (0 when it outgrew enumeration) on P nodes is worth a restriction
// built on it: order at least P/2, so that the group reduces the
// instance to the chunks of at most two nodes. symmetryOf evaluates it
// once per record; the implied Allgather (worthAsking) and the orbit
// quotient (quotientPlanOf) read the result. Below it each has measured
// costlier than the plain solve.
func groupPays(order, P int) bool {
	return order == 0 || 2*order >= P
}

// SolveImplied answers the non-combining instance in. When an Allgather
// implies it (see implying), that Allgather's budget passes
// collective.Admits and it is worth asking (worthAsking), ask answers
// the Allgather first: Sat is projected onto in (algorithm.Project, the
// same rounds and fewer sends), and Unknown is in's answer too.
// Otherwise — no implying spec, a budget Admits rejects, a symmetry
// group too small, or an Unsat Allgather — solve answers in itself.
// Both solves share one deadline, opts.Timeout from the call, so an
// Unsat Allgather leaves the direct solve only the time it did not use
// and the call never spends more than one timeout.
func SolveImplied(ctx context.Context, in Instance, opts Options, ask, solve SolveFunc) (*algorithm.Algorithm, sat.Status, error) {
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	if b, ok := implying(in); ok && collective.Admits(b.Coll, b.Topo, b.Steps, b.Round) && worthAsking(b, opts) {
		alg, status, err := ask(ctx, b)
		if err != nil || status == sat.Unknown {
			return nil, status, err
		}
		if status == sat.Sat {
			alg, err = algorithm.Project(alg, in.Coll)
			return alg, sat.Sat, err
		}
	}
	return solve(ctx, in)
}

// SolveCollective answers a request for any collective kind at budget
// (c, s, r) on topo, combining ones included (paper §3.5): ask answers
// each of its DualInstances in order, and the first that is not Sat is
// the answer; otherwise assembleDuals builds it from their algorithms.
// For a combining kind s and r refer to the dual instance, so the
// answer's step and round counts are those of the derived algorithm
// (doubled for Allreduce).
func SolveCollective(ctx context.Context, kind collective.Kind, topo *topology.Topology, root topology.Node, c, s, r int, ask SolveFunc) (*algorithm.Algorithm, sat.Status, error) {
	ins, err := DualInstances(kind, topo, root, c, s, r)
	if err != nil {
		return nil, sat.Unknown, err
	}
	algs := make([]*algorithm.Algorithm, len(ins))
	for i, in := range ins {
		alg, status, err := ask(ctx, in)
		if err != nil || status != sat.Sat {
			return nil, status, err
		}
		algs[i] = alg
	}
	alg, err := assembleDuals(kind, topo, algs)
	if err != nil {
		return nil, sat.Sat, err
	}
	return alg, sat.Sat, nil
}

// SynthesizeCollectiveContext is SolveCollective over one-shot solves:
// each dual instance is answered through SolveImplied, with no cache. It
// is the reference the engine's cached route is checked against.
func SynthesizeCollectiveContext(ctx context.Context, kind collective.Kind, topo *topology.Topology, root topology.Node, c, s, r int, opts Options) (*algorithm.Algorithm, sat.Status, error) {
	solve := func(ctx context.Context, in Instance) (*algorithm.Algorithm, sat.Status, error) {
		res, err := SynthesizeContext(ctx, in, opts)
		return res.Algorithm, res.Status, err
	}
	return SolveCollective(ctx, kind, topo, root, c, s, r, func(ctx context.Context, in Instance) (*algorithm.Algorithm, sat.Status, error) {
		return SolveImplied(ctx, in, opts, solve, solve)
	})
}

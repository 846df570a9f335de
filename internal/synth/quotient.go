package synth

import (
	"repro/internal/topology"
)

// Chunk-orbit quotient encoding. PR 9's equivariance restriction steers
// the *search* toward group-invariant schedules but still carries every
// orbit member's variables; the quotient shrinks the *formula*: for each
// chunk orbit under the instance-stabilizing symmetry group only the
// representative (minimum chunk id) gets time/send variables, and every
// non-representative occurrence is rewritten through a fixed group
// element at emit time, so non-representative variables never exist.
//
// Concretely, the planner picks per non-representative chunk c one
// group element (π, σ) with σ(rep) = c (BFS over the kept generators,
// composing node maps along the way). Instance stabilization gives
// Pre[c][n] = Pre[rep][π⁻¹n] (same for Post, BFS distances and
// distances-to-post), so the emission may alias
//
//	time(c, n)  := time(rep, π⁻¹n)
//	snd(c, e)   := snd(rep, π⁻¹e)
//
// and every pruning decision the full encoder would make for (c, ·)
// coincides with the one already made for (rep, π⁻¹·). Per-chunk
// constraint families (receive, causality, minimality) for c are the
// exact π-images of rep's clauses over the aliased literals, so they
// are skipped; cross-chunk families (bandwidth, chunk-symmetry chains,
// the shared round variables) are emitted over the aliases. Under the
// aliases many (relation, step) pairs collect the same multiset of
// arrival literals, so bandwidth (C5) lowers each distinct constraint —
// same step, same factor, same literal multiset — once
// (cdclStageSink.Bandwidth).
//
// Soundness contract: the quotient formula is the full formula with
// variables identified along the chosen transversal — a RESTRICTION. A
// Sat model lifts to a full schedule by reading the aliases (extract()
// needs no changes) and is re-validated before being reported. An Unsat
// or a conflict-cap exhaustion proves nothing about the instance
// (bandwidth couples chunks across orbits, so an instance can be
// satisfiable while every invariant schedule is not); callers MUST fall
// back to the full formula then. The attempt runs under a fixed conflict
// cap, restrictedPhaseMaxConflicts, not one sized by the quotient's
// clause count. Answers therefore never depend on the
// quotient, which is what keeps frontier (C, S, R) costs identical with
// quotienting on or off.
//
// The mega-base declines quotienting, as it declines node symmetry
// altogether (mega.go): its activation families select arbitrary chunk
// subsets per probe, and a subset that is not a union of orbits breaks
// the invariance the aliasing bakes into the formula.

// quotientPlan is the resolved chunk-orbit quotient of one emission.
type quotientPlan struct {
	// rep[c] is c's orbit representative (the orbit's minimum chunk id;
	// rep[c] == c exactly for representatives).
	rep []int
	// reps counts the representatives (the quotient's chunk count).
	reps int
	// invNode[c][n] = π⁻¹(n) for the element carrying rep[c] onto c
	// (nil for representatives).
	invNode [][]int
	// invEdge[c][ei] is the edge index of the π⁻¹-image of edge ei
	// (nil for representatives; -1 when the image is not an edge, which
	// a true automorphism never produces).
	invEdge [][]int
}

// quotientEligible reports whether opts allow a quotient attempt at all.
// ProveUnsat wants a plain refutation of the full formula; symmetry-off
// has no group to quotient by.
func quotientEligible(opts Options) bool {
	return !opts.NoQuotient && !opts.ProveUnsat && !opts.NoSymmetryBreaking
}

// quotientPlanOf resolves the emission's chunk-orbit quotient: nil when
// the plan did not ask for one, the node-symmetry plan is empty, its
// group does not pay (groupPays: on multinode:dgx1:4:2:2 the order-4
// quotient ran out of its conflict cap and fell back at both budgets of
// its Allgather sweep), or every chunk orbit is a singleton (nothing to
// collapse). Orbits are walked by BFS over the kept generators' chunk maps; iterating seeds
// in ascending chunk order makes each orbit's first-seen chunk its
// minimum, matching the canonical representative order of
// topology.Group.Representatives.
func (e *StagedEncoder) quotientPlanOf() *quotientPlan {
	if !e.Plan.Quotient {
		return nil
	}
	sym := e.nodeSymPlan()
	G, P := e.Plan.Coll.G, e.Plan.Topo.P
	if sym == nil || !sym.pays {
		return nil
	}
	rep := make([]int, G)
	elem := make([]topology.Perm, G)
	for c := range rep {
		rep[c] = -1
	}
	reps := 0
	for c0 := 0; c0 < G; c0++ {
		if rep[c0] >= 0 {
			continue
		}
		reps++
		rep[c0] = c0
		elem[c0] = topology.Identity(P)
		queue := []int{c0}
		for len(queue) > 0 {
			c := queue[0]
			queue = queue[1:]
			for _, g := range sym.perms {
				c2 := g.chunkMap[c]
				if rep[c2] >= 0 {
					continue
				}
				rep[c2] = c0
				elem[c2] = g.perm.Compose(elem[c])
				queue = append(queue, c2)
			}
		}
	}
	if reps == G {
		return nil
	}
	q := &quotientPlan{
		rep:     rep,
		reps:    reps,
		invNode: make([][]int, G),
		invEdge: make([][]int, G),
	}
	edges, idx := e.Template.Edges, e.Template.EdgeIndex
	for c := 0; c < G; c++ {
		if rep[c] == c {
			continue
		}
		inv := elem[c].Inverse()
		q.invNode[c] = inv
		em := make([]int, len(edges))
		for ei, l := range edges {
			img := topology.Link{Src: topology.Node(inv[l.Src]), Dst: topology.Node(inv[l.Dst])}
			if j, ok := idx[img]; ok {
				em[ei] = j
			} else {
				em[ei] = -1
			}
		}
		q.invEdge[c] = em
	}
	return q
}

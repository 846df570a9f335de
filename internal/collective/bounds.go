package collective

import (
	"math/big"

	"repro/internal/topology"
)

// LatencyLowerBound computes the minimum number of steps any algorithm for
// the non-combining spec needs on the topology: every chunk must reach all
// its post nodes from some pre node, and a chunk moves at most one hop per
// step. Combining collectives are handled through their duals (see
// EffectiveLowerBounds). Returns -1 if some requirement is unreachable.
func LatencyLowerBound(s *Spec, t *topology.Topology) int {
	return latencyLowerBound(s, func(m, n int) int {
		return t.Distance(topology.Node(m), topology.Node(n))
	})
}

// LatencyLowerBoundDist is LatencyLowerBound over precomputed all-pairs
// hop distances (dist[src][dst], negative = unreachable) — e.g. the BFS
// matrix a staged-encoder Stage-0 template already derived — so bound
// computations stop re-walking the topology per (pre, post) pair.
func LatencyLowerBoundDist(s *Spec, dist [][]int) int {
	return latencyLowerBound(s, func(m, n int) int { return dist[m][n] })
}

// latencyLowerBound is the shared implementation over an abstract hop
// distance (negative = unreachable).
func latencyLowerBound(s *Spec, dist func(from, to int) int) int {
	max := 0
	for c := 0; c < s.G; c++ {
		for n := 0; n < s.P; n++ {
			if !s.Post[c][n] || s.Pre[c][n] {
				continue
			}
			best := -1
			for m := 0; m < s.P; m++ {
				if !s.Pre[c][m] {
					continue
				}
				d := dist(m, n)
				if d >= 0 && (best == -1 || d < best) {
					best = d
				}
			}
			if best == -1 {
				return -1
			}
			if best > max {
				max = best
			}
		}
	}
	return max
}

// cutDemand counts chunks that must cross from the node set A (inA true)
// to its complement at least once: chunks whose every pre node lies in A
// and that are required somewhere outside A.
func cutDemand(s *Spec, inA func(topology.Node) bool) int {
	demand := 0
	for c := 0; c < s.G; c++ {
		allPreInA := true
		anyPre := false
		for n := 0; n < s.P; n++ {
			if s.Pre[c][n] {
				anyPre = true
				if !inA(topology.Node(n)) {
					allPreInA = false
					break
				}
			}
		}
		if !anyPre || !allPreInA {
			continue
		}
		for n := 0; n < s.P; n++ {
			if s.Post[c][n] && !inA(topology.Node(n)) {
				demand++
				break
			}
		}
	}
	return demand
}

// BandwidthLowerBound computes the best cut-based lower bound on the
// bandwidth cost R/C of any algorithm for the non-combining spec: for a
// cut (A, B) with demand d chunks and capacity cap chunks/round,
// R >= d/cap, so R/C >= d/(cap*C). All 2^P-2 cuts are enumerated for
// P <= maxExactCutNodes; beyond that only single-node cuts (and their
// complements) are used, which covers the node-ingress/egress bounds the
// paper relies on.
func BandwidthLowerBound(s *Spec, t *topology.Topology) *big.Rat {
	best := big.NewRat(0, 1)
	capacity := t.CutCapacities()
	consider := func(inA func(topology.Node) bool) {
		d := cutDemand(s, inA)
		if d == 0 {
			return
		}
		cap := capacity(inA)
		if cap == 0 {
			return // unachievable collective; latency bound reports it
		}
		r := big.NewRat(int64(d), int64(cap)*int64(s.C))
		if r.Cmp(best) > 0 {
			best = r
		}
	}
	const maxExactCutNodes = 14
	if s.P <= maxExactCutNodes {
		for mask := 1; mask < (1<<uint(s.P))-1; mask++ {
			m := mask
			consider(func(n topology.Node) bool { return m&(1<<uint(n)) != 0 })
		}
	} else {
		singleNodeCuts(s.P, func(inA func(topology.Node) bool) bool {
			consider(inA)
			return true
		})
		// Hierarchical fabrics: node-subset enumeration is infeasible at
		// this P, but the builder recorded the machine partition, so the
		// NIC-level bottlenecks are the block-mask cuts. These dominate on
		// multi-machine topologies, where a machine's aggregate NIC
		// capacity is far below its members' summed in-degrees.
		if b := t.BlockCount(); b >= 2 && b <= maxExactCutNodes {
			for mask := 1; mask < (1<<uint(b))-1; mask++ {
				m := mask
				consider(func(n topology.Node) bool { return m&(1<<uint(t.Blocks[n])) != 0 })
			}
		}
	}
	return best
}

// singleNodeCuts calls visit on every cut that separates one node from
// the rest — {n} against the rest, then the rest against {n}, node by
// node — until visit returns false, and reports whether it visited all
// of them.
func singleNodeCuts(p int, visit func(inA func(topology.Node) bool) bool) bool {
	for n := 0; n < p; n++ {
		nn := topology.Node(n)
		if !visit(func(m topology.Node) bool { return m == nn }) || !visit(func(m topology.Node) bool { return m != nn }) {
			return false
		}
	}
	return true
}

// Admits is a necessary condition for the non-combining spec s to have
// an algorithm on t with steps steps and rounds rounds in all, cheap
// enough to check per request: every post pair lies within steps hops
// of a pre node of its chunk, and no single-node cut must carry more
// chunks than its capacity times rounds. It is the latency bound and
// the single-node part of the cut bound, so every budget it rejects the
// exact LatencyLowerBound and BandwidthLowerBound reject too; it skips
// the 2^P cut enumeration those run.
func Admits(s *Spec, t *topology.Topology, steps, rounds int) bool {
	if l := LatencyLowerBoundDist(s, t.Distances()); l < 0 || l > steps {
		return false
	}
	capacity := t.CutCapacities()
	return singleNodeCuts(s.P, func(inA func(topology.Node) bool) bool {
		d := cutDemand(s, inA)
		return d == 0 || d <= capacity(inA)*rounds
	})
}

// Bounds carries the latency (steps) and bandwidth (R/C) lower bounds for
// a collective on a topology.
type Bounds struct {
	Steps     int
	Bandwidth *big.Rat
}

// EffectiveLowerBounds computes lower bounds for any collective kind,
// including combining ones, by composing the bounds of the dual
// non-combining collective (paper §3.5 and Algorithm 1):
//
//   - non-combining: bounds of the spec itself;
//   - Reduce/Reducescatter: bounds of the dual on the reversed topology
//     (inversion preserves step and round counts);
//   - Allreduce: Reducescatter + Allgather composition — steps add, and
//     the bandwidth bound per its own C divides by P (its C is the dual
//     instance's G).
func EffectiveLowerBounds(kind Kind, p, c int, root topology.Node, t *topology.Topology) (Bounds, error) {
	return EffectiveLowerBoundsDist(kind, p, c, root, t, nil)
}

// EffectiveLowerBoundsDist is EffectiveLowerBounds with an optional
// precomputed all-pairs distance matrix of t (dist[src][dst], negative =
// unreachable); nil falls back to per-pair topology BFS. Probes on the
// reversed topology read the matrix transposed, so one forward matrix —
// the staged encoder's Stage-0 template BFS — serves every dual route.
func EffectiveLowerBoundsDist(kind Kind, p, c int, root topology.Node, t *topology.Topology, dist [][]int) (Bounds, error) {
	if dist != nil && len(dist) != p {
		dist = nil // foreign matrix: ignore rather than misindex
	}
	latency := func(sp *Spec, tt *topology.Topology, transposed bool) int {
		if dist == nil {
			return LatencyLowerBound(sp, tt)
		}
		if transposed {
			return latencyLowerBound(sp, func(m, n int) int { return dist[n][m] })
		}
		return LatencyLowerBoundDist(sp, dist)
	}
	probe := func(k Kind, cc int, tt *topology.Topology, transposed bool) (Bounds, error) {
		sp, err := New(k, p, cc, root)
		if err != nil {
			return Bounds{}, err
		}
		return Bounds{
			Steps:     latency(sp, tt, transposed),
			Bandwidth: BandwidthLowerBound(sp, tt),
		}, nil
	}
	switch kind {
	case Gather, Allgather, Alltoall, Broadcast, Scatter:
		return probe(kind, c, t, false)
	case Reduce:
		return probe(Broadcast, c, t.Reverse(), true)
	case Reducescatter:
		return probe(Allgather, c, t.Reverse(), true)
	case Allreduce:
		if c%p != 0 {
			c = p * c // interpret c as the dual's per-node count if not divisible
		}
		cd := c / p
		rs, err := probe(Allgather, cd, t.Reverse(), true)
		if err != nil {
			return Bounds{}, err
		}
		ag, err := probe(Allgather, cd, t, false)
		if err != nil {
			return Bounds{}, err
		}
		bw := new(big.Rat).Add(rs.Bandwidth, ag.Bandwidth)
		bw.Quo(bw, big.NewRat(int64(p), 1))
		steps := -1
		if rs.Steps >= 0 && ag.Steps >= 0 {
			steps = rs.Steps + ag.Steps
		}
		return Bounds{Steps: steps, Bandwidth: bw}, nil
	}
	sp, err := New(kind, p, c, root)
	if err != nil {
		return Bounds{}, err
	}
	_ = sp
	return Bounds{}, nil
}

// Package topology models hardware interconnect topologies the way the
// SCCL paper does (§3.2.1): a node count P and a bandwidth relation
// B ⊆ P([P]×[P]) × N. Each relation entry bounds the total number of
// chunks that its set of directed links may carry in one round; this
// uniformly expresses point-to-point links, per-node egress caps and
// shared buses.
package topology

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Node identifies a GPU / endpoint in [0, P).
type Node int

// Link is a directed communication link.
type Link struct {
	Src, Dst Node
}

func (l Link) String() string { return fmt.Sprintf("%d->%d", l.Src, l.Dst) }

// Relation is one entry of the bandwidth relation B: the links in Links
// may jointly carry at most Bandwidth chunks per round.
type Relation struct {
	Links     []Link
	Bandwidth int
}

// Topology is a communication topology: P nodes and the bandwidth
// relation. A topology is immutable once in use: Fingerprint memoizes its
// digest, so build a new topology instead of editing one.
type Topology struct {
	Name      string
	P         int
	Relations []Relation
	// Blocks, when non-nil, records a hierarchical partition of the nodes
	// (Blocks[n] is node n's machine in a multi-machine fabric). Builders
	// that know the hierarchy (MultiNode) set it so cut-based bound
	// computations can enumerate machine-granularity cuts at node counts
	// where exhaustive node-subset enumeration is infeasible. Nil means a
	// flat (single-machine) topology.
	Blocks []int

	// fp memoizes Fingerprint. It also makes a Topology unsafe to copy by
	// value once in use; pass *Topology.
	fp atomic.Pointer[fingerprint]
}

// BlockCount returns the number of blocks in the hierarchical partition,
// or 0 for a flat topology.
func (t *Topology) BlockCount() int {
	if len(t.Blocks) != t.P {
		return 0
	}
	max := -1
	for _, b := range t.Blocks {
		if b > max {
			max = b
		}
	}
	return max + 1
}

// Validate checks structural invariants: node indices in range, positive
// node count, no empty relations.
func (t *Topology) Validate() error {
	if t.P <= 0 {
		return fmt.Errorf("topology %q: non-positive node count %d", t.Name, t.P)
	}
	for i, r := range t.Relations {
		if len(r.Links) == 0 {
			return fmt.Errorf("topology %q: relation %d has no links", t.Name, i)
		}
		if r.Bandwidth < 0 {
			return fmt.Errorf("topology %q: relation %d has negative bandwidth", t.Name, i)
		}
		for _, l := range r.Links {
			if l.Src < 0 || int(l.Src) >= t.P || l.Dst < 0 || int(l.Dst) >= t.P {
				return fmt.Errorf("topology %q: relation %d link %v out of range", t.Name, i, l)
			}
			if l.Src == l.Dst {
				return fmt.Errorf("topology %q: relation %d has self-loop %v", t.Name, i, l)
			}
		}
	}
	if t.Blocks != nil {
		if len(t.Blocks) != t.P {
			return fmt.Errorf("topology %q: blocks length %d != P %d", t.Name, len(t.Blocks), t.P)
		}
		seen := make([]bool, t.P)
		last := 0
		for n, b := range t.Blocks {
			if b < 0 || b >= t.P {
				return fmt.Errorf("topology %q: node %d in out-of-range block %d", t.Name, n, b)
			}
			seen[b] = true
			last = max(last, b)
		}
		for b := 0; b < last; b++ {
			if !seen[b] {
				return fmt.Errorf("topology %q: block ids not contiguous (missing %d)", t.Name, b)
			}
		}
	}
	return nil
}

// Edges returns the usable directed links: those appearing in at least one
// relation and in no zero-bandwidth relation (the paper's set E). The
// result is sorted for determinism.
func (t *Topology) Edges() []Link {
	seen := map[Link]bool{}
	banned := map[Link]bool{}
	for _, r := range t.Relations {
		for _, l := range r.Links {
			if r.Bandwidth == 0 {
				banned[l] = true
			} else {
				seen[l] = true
			}
		}
	}
	var out []Link
	for l := range seen {
		if !banned[l] {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// HasEdge reports whether (src,dst) is a usable link.
func (t *Topology) HasEdge(src, dst Node) bool {
	for _, l := range t.Edges() {
		if l.Src == src && l.Dst == dst {
			return true
		}
	}
	return false
}

// OutNeighbors returns nodes reachable from n over one usable link.
func (t *Topology) OutNeighbors(n Node) []Node {
	var out []Node
	for _, l := range t.Edges() {
		if l.Src == n {
			out = append(out, l.Dst)
		}
	}
	return out
}

// InNeighbors returns nodes with a usable link into n.
func (t *Topology) InNeighbors(n Node) []Node {
	var out []Node
	for _, l := range t.Edges() {
		if l.Dst == n {
			out = append(out, l.Src)
		}
	}
	return out
}

// LinkBandwidth returns the per-round capacity of a single link: the
// minimum bandwidth over all relations containing it, and 0 if the link is
// unusable.
func (t *Topology) LinkBandwidth(src, dst Node) int {
	l := Link{src, dst}
	min := -1
	for _, r := range t.Relations {
		for _, rl := range r.Links {
			if rl == l {
				if min == -1 || r.Bandwidth < min {
					min = r.Bandwidth
				}
			}
		}
	}
	if min == -1 {
		return 0
	}
	return min
}

// Reverse returns the topology with every link direction flipped. This is
// the topology on which inverted (combining) collectives run (paper §3.5).
func (t *Topology) Reverse() *Topology {
	rev := &Topology{Name: t.Name + "-reversed", P: t.P}
	for _, r := range t.Relations {
		nr := Relation{Bandwidth: r.Bandwidth}
		for _, l := range r.Links {
			nr.Links = append(nr.Links, Link{Src: l.Dst, Dst: l.Src})
		}
		rev.Relations = append(rev.Relations, nr)
	}
	return rev
}

// distances computes BFS hop distances from src over usable links.
// Unreachable nodes get -1.
func (t *Topology) distances(src Node) []int {
	return bfs(t.adjacency(), src)
}

// Distances returns the all-pairs hop distance matrix over usable links,
// dist[src][dst] (-1 when unreachable): one BFS per node over one
// adjacency list.
func (t *Topology) Distances() [][]int {
	adj := t.adjacency()
	dist := make([][]int, t.P)
	for src := range dist {
		dist[src] = bfs(adj, Node(src))
	}
	return dist
}

// adjacency lists each node's out-neighbours over usable links.
func (t *Topology) adjacency() [][]Node {
	adj := make([][]Node, t.P)
	for _, l := range t.Edges() {
		adj[l.Src] = append(adj[l.Src], l.Dst)
	}
	return adj
}

func bfs(adj [][]Node, src Node) []int {
	dist := make([]int, len(adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []Node{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, m := range adj[n] {
			if dist[m] == -1 {
				dist[m] = dist[n] + 1
				queue = append(queue, m)
			}
		}
	}
	return dist
}

// Distance returns the hop distance from src to dst (-1 if unreachable).
func (t *Topology) Distance(src, dst Node) int {
	return t.distances(src)[dst]
}

// Eccentricity returns the maximum distance from src to any node, or -1 if
// some node is unreachable.
func (t *Topology) Eccentricity(src Node) int {
	max := 0
	for _, d := range t.distances(src) {
		if d == -1 {
			return -1
		}
		if d > max {
			max = d
		}
	}
	return max
}

// Diameter returns the maximum hop distance between any ordered node pair,
// or -1 if the topology is not strongly connected. This is the latency
// lower bound a_l of the Pareto synthesis procedure (Algorithm 1).
func (t *Topology) Diameter() int {
	max := 0
	for n := 0; n < t.P; n++ {
		e := t.Eccentricity(Node(n))
		if e == -1 {
			return -1
		}
		if e > max {
			max = e
		}
	}
	return max
}

// CutCapacity returns an upper bound on the chunks per round that can
// cross from the node set A to its complement. Any family of relation
// entries covering every cut link bounds the flow by its total bandwidth,
// so the result is the better of two covers: all intersecting relations,
// and a greedy minimum-bandwidth cover (which recognizes per-node
// ingress/egress caps that overlap point-to-point entries, as in the
// DGX-2 NVSwitch model). Exact when relations are link-disjoint — true
// for the DGX-1 and Z52 models.
func (t *Topology) CutCapacity(inA func(Node) bool) int {
	return t.CutCapacities()(inA)
}

// CutCapacities returns CutCapacity with the usable links resolved once,
// for a caller that measures many cuts of one topology.
func (t *Topology) CutCapacities() func(inA func(Node) bool) int {
	usable := map[Link]bool{}
	for _, l := range t.Edges() {
		usable[l] = true
	}
	return func(inA func(Node) bool) int { return t.cutCapacity(inA, usable) }
}

func (t *Topology) cutCapacity(inA func(Node) bool, usable map[Link]bool) int {
	cutLinks := map[Link]bool{}
	// Relations indexed by which cut links they cover.
	type relCover struct {
		bw    int
		links []Link
	}
	var covers []relCover
	sumAll := 0
	for _, r := range t.Relations {
		var crossing []Link
		for _, l := range r.Links {
			if inA(l.Src) && !inA(l.Dst) && usable[l] {
				crossing = append(crossing, l)
				cutLinks[l] = true
			}
		}
		if len(crossing) > 0 {
			covers = append(covers, relCover{bw: r.Bandwidth, links: crossing})
			sumAll += r.Bandwidth
		}
	}
	if len(cutLinks) == 0 {
		return 0
	}
	// Greedy weighted set cover: repeatedly take the relation with the
	// best bandwidth-per-newly-covered-link ratio.
	uncovered := make(map[Link]bool, len(cutLinks))
	for l := range cutLinks {
		uncovered[l] = true
	}
	greedy := 0
	for len(uncovered) > 0 {
		bestIdx, bestNew := -1, 0
		for i, c := range covers {
			n := 0
			for _, l := range c.links {
				if uncovered[l] {
					n++
				}
			}
			if n == 0 {
				continue
			}
			if bestIdx == -1 ||
				c.bw*bestNew < covers[bestIdx].bw*n { // c.bw/n < best.bw/bestNew
				bestIdx, bestNew = i, n
			}
		}
		if bestIdx == -1 {
			// Shouldn't happen (every cut link came from some relation);
			// fall back to the safe bound.
			return sumAll
		}
		greedy += covers[bestIdx].bw
		for _, l := range covers[bestIdx].links {
			delete(uncovered, l)
		}
	}
	if greedy < sumAll {
		return greedy
	}
	return sumAll
}

// InBandwidth returns the per-round chunk capacity into node n (the
// capacity of the cut everything→{n}).
func (t *Topology) InBandwidth(n Node) int {
	return t.CutCapacity(func(m Node) bool { return m != n })
}

// OutBandwidth returns the per-round chunk capacity out of node n.
func (t *Topology) OutBandwidth(n Node) int {
	return t.CutCapacity(func(m Node) bool { return m == n })
}

// String summarizes the topology.
func (t *Topology) String() string {
	return fmt.Sprintf("%s(P=%d, %d relations, %d links)",
		t.Name, t.P, len(t.Relations), len(t.Edges()))
}

// p2p appends a single point-to-point relation entry.
func p2p(rs *[]Relation, src, dst Node, bw int) {
	*rs = append(*rs, Relation{Links: []Link{{src, dst}}, Bandwidth: bw})
}

// biP2P appends point-to-point entries in both directions.
func biP2P(rs *[]Relation, a, b Node, bw int) {
	p2p(rs, a, b, bw)
	p2p(rs, b, a, bw)
}

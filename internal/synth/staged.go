package synth

import (
	"sync"

	"repro/internal/collective"
	"repro/internal/topology"
)

// This file is the unified staged encoder: one parameterized,
// clause-order-stable walker that emits the SCCL constraint system
// (C1–C6 plus the minimality refinements) in three explicit stages,
// consumed by pluggable sinks: the one-shot CDCL encoding, the mega-base's
// layered CDCL base and the one-shot SMT-LIB script are one walk under
// three plans, not three emitters kept in lock step by hand.
//
// The stages:
//
//   - Stage 0 — topology/step-horizon template (Stage0Template): the
//     budget- and chunk-count-independent routing substructure — directed
//     edge list, edge index, and the all-pairs BFS distance matrix every
//     reachability prune derives from. Shared per (topology, S) across
//     all families of a sweep via the SessionPool's TemplateCache.
//   - Stage 1 — per-family base: C1 (pre availability), C3 (exactly-one
//     receive), C4 (causality), C5 (per-step bandwidth), plus the
//     CDCL-only satisfiability-preserving refinements (chunk-symmetry
//     breaking, minimality m1–m3), at a step window B.
//   - Stage 2 — budget: C2 (post arrival within S) and C6 (round total
//     R). In bound mode (EncodePlan.Budget non-nil) the stage is
//     flattened into the stream at its canonical positions, reproducing
//     the one-shot emissions byte for byte; in window mode it is left
//     out, and the mega-base supplies it per probe as assumption
//     literals (megaEncoding.assumeFamily).
//
// Order stability is the load-bearing property: the CDCL sink allocates
// solver variables and emits clauses eagerly in walk order, so the walk
// order *is* the legacy clause order, and every pinned golden model
// depends on it (see TestStagedEncoderGoldens). Change the walk only
// together with the goldens.

// Stage0Template is the Stage-0 routing substructure of one topology at
// one step horizon: everything the per-family encoders derive from the
// graph alone, independent of collective, chunk count and budget.
// Templates are immutable after construction and safe for concurrent
// use; sweeps share them across families through a TemplateCache.
type Stage0Template struct {
	topoFP string
	// Edges is the usable directed link list, in topology order — the
	// canonical edge enumeration every stage iterates.
	Edges []topology.Link
	// EdgeIndex maps a link to its position in Edges.
	EdgeIndex map[topology.Link]int
	// Dist[u][v] is the BFS hop distance from node u to node v over the
	// directed edges; -1 when unreachable. Per-chunk source distances and
	// distances-to-post both reduce to minima over this matrix.
	Dist [][]int

	// Automorphism groups are cached here alongside the BFS distances —
	// graph-structural Stage-0 data every family of the topology shares.
	// Resolved lazily under the mutex; the lazy cache keeps the template
	// safe for concurrent use.
	autMu  sync.Mutex
	aut    *topology.Group
	autFix map[topology.Node]*topology.Group
}

// Aut returns the topology's automorphism generator set, computed once
// per template (backed by a process-wide cache for private skeleton
// templates; see cachedAut).
func (t *Stage0Template) Aut(topo *topology.Topology) *topology.Group {
	t.autMu.Lock()
	defer t.autMu.Unlock()
	if t.aut == nil {
		t.aut = cachedAut(topo)
	}
	return t.aut
}

// AutFixing returns generators of the subgroup fixing the given node —
// the stabilizer rooted collectives break over.
func (t *Stage0Template) AutFixing(topo *topology.Topology, root topology.Node) *topology.Group {
	t.autMu.Lock()
	defer t.autMu.Unlock()
	if g, ok := t.autFix[root]; ok {
		return g
	}
	g := cachedAut(topo, root)
	if t.autFix == nil {
		t.autFix = map[topology.Node]*topology.Group{}
	}
	t.autFix[root] = g
	return g
}

// NewStage0Template derives the template for a topology. Routing
// substructure is step-count-independent, so one template serves every
// family and step horizon of the topology — in particular all families
// with the same (topo, S) in a sweep share one derivation.
func NewStage0Template(topo *topology.Topology) *Stage0Template {
	t := newStage0Skeleton(topo)
	t.Dist = topo.Distances()
	return t
}

// sourceDistances returns, per node, the hop distance from the nearest
// of the given source nodes (-1 if none reaches it) — the template form
// of the encoders' multi-source BFS.
func (t *Stage0Template) sourceDistances(srcs []topology.Node) []int {
	out := make([]int, len(t.Dist))
	for n := range out {
		out[n] = -1
		for _, s := range srcs {
			if d := t.Dist[s][n]; d >= 0 && (out[n] < 0 || d < out[n]) {
				out[n] = d
			}
		}
	}
	return out
}

// distancesToSet returns, per node, the hop distance to the nearest post
// node of chunk c (-1 if none reachable) — the template form of the
// encoders' reverse BFS.
func (t *Stage0Template) distancesToSet(post collective.Rel, c int) []int {
	targets := post.Nodes(c)
	out := make([]int, len(t.Dist))
	for n := range out {
		out[n] = -1
		for _, m := range targets {
			if d := t.Dist[n][m]; d >= 0 && (out[n] < 0 || d < out[n]) {
				out[n] = d
			}
		}
	}
	return out
}

// matches reports whether the template was built for the given topology
// (horizon aside — the content is horizon-independent).
func (t *Stage0Template) matches(topo *topology.Topology) bool {
	return t != nil && t.topoFP == topo.Fingerprint()
}

// TemplateCache shares Stage-0 templates per topology across the
// families of a sweep: candidates with the same S but different chunk
// counts no longer re-derive identical routing substructure — and since
// the template's content is step-count-independent, neither do probes at
// different step horizons or re-bases of the same family. Safe for
// concurrent use.
type TemplateCache struct {
	mu     sync.Mutex
	m      map[string]*Stage0Template
	order  []string // insertion order, oldest first
	hits   uint64
	misses uint64
}

// templateCacheCap bounds how many topologies' templates a cache keeps:
// each holds an O(P^2) distance matrix, and unlike the LRU-capped
// mega-base pool the cache would otherwise grow with every distinct
// topology an engine ever probes. Evicted templates are simply
// re-derived on the next miss.
const templateCacheCap = 64

// NewTemplateCache returns an empty template cache.
func NewTemplateCache() *TemplateCache {
	return &TemplateCache{m: map[string]*Stage0Template{}}
}

// Get returns the cached template for the topology, deriving and
// caching it on first use. hit reports whether the template was shared.
func (tc *TemplateCache) Get(topo *topology.Topology) (tmpl *Stage0Template, hit bool) {
	key := topo.Fingerprint()
	tc.mu.Lock()
	if t, ok := tc.m[key]; ok {
		tc.hits++
		tc.mu.Unlock()
		return t, true
	}
	tc.misses++
	tc.mu.Unlock()
	// Derive outside the lock; a racing miss builds a duplicate and the
	// second store wins harmlessly (templates are pure derived data).
	t := NewStage0Template(topo)
	tc.mu.Lock()
	if _, ok := tc.m[key]; !ok {
		tc.order = append(tc.order, key)
		for len(tc.order) > templateCacheCap {
			delete(tc.m, tc.order[0])
			tc.order = tc.order[1:]
		}
	}
	tc.m[key] = t
	tc.mu.Unlock()
	return t, false
}

// Stats returns the cache's hit/miss counters.
func (tc *TemplateCache) Stats() (hits, misses uint64) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.hits, tc.misses
}

// BudgetSpec is a concrete (S, R) budget baked into a bound-mode
// emission.
type BudgetSpec struct {
	Steps, Rounds int
}

// EncodePlan parameterizes one staged emission.
type EncodePlan struct {
	Coll *collective.Spec
	Topo *topology.Topology
	// Window is the step bound B of Stage 1: the concrete S in bound
	// mode, the mega-base horizon H in window mode. Time domains span
	// [dist, Window+1] (Window+1 encodes "never arrives"), bandwidth
	// constraints cover steps 1..Window.
	Window int
	// RoundHi is the per-step round variable domain top: R-S+1 in bound
	// mode, K+1 (the k-synchronous class bound) in window mode.
	RoundHi int
	// Budget, when non-nil, selects bound mode: Stage 2 is flattened
	// into the stream — C2 tightens the post-arrival time domains, C6 is
	// asserted after the round variables — reproducing the one-shot
	// emissions exactly. Nil selects window mode: Stage 2 is left to the
	// mega-base's per-probe assumptions.
	Budget *BudgetSpec
	// NoSymmetryBreak disables the chunk-symmetry-breaking refinement.
	NoSymmetryBreak bool
	// NoNodeSymmetry disables the node-orbit (automorphism equivariance)
	// restriction; see nodesym.go. Independent of NoSymmetryBreak — the
	// two symmetry exploits compose but are opted out of separately.
	NoNodeSymmetry bool
	// Quotient asks the CDCL sink to emit a chunk-orbit quotient of the
	// Stage-1 formula: variables exist only for orbit representative
	// chunks, every non-representative occurrence is rewritten through
	// the group action at emit time (see quotient.go). The quotient is a
	// restriction — callers must treat a quotient Unsat or cap exhaustion
	// as "fall back to the full formula", never as an answer. Ignored
	// when the node-symmetry plan resolves empty (the emission is then
	// byte-identical to a plain one).
	Quotient bool
	// Template, if non-nil, supplies the Stage-0 routing substructure
	// (it must have been derived from Topo); nil derives a private one.
	Template *Stage0Template
}

// StageSink consumes the staged constraint stream. The walker calls each
// method in a fixed canonical order (see StagedEncoder.Emit); sinks own
// their encoding-specific pruning and emission details, so the same
// stream drives both the CDCL order-encoding pipeline and the SMT-LIB
// (QF_LIA) script builder. Methods returning bool abort the walk on
// false — a sink that proved the instance infeasible outright.
type StageSink interface {
	// TimeVar introduces the arrival-time variable of (chunk c, node n).
	TimeVar(c, n int) bool
	// OrderSymmetric orders the arrival times of an interchangeable
	// chunk group at witness node w (CDCL refinement; SMT sinks ignore).
	OrderSymmetric(group []int, w int)
	// NodeSymmetry emits the guarded equivariance restrictions for the
	// instance-stabilizing automorphism generators (CDCL refinement; SMT
	// sinks ignore). Called at most once, after the send variables (the
	// restriction spans times and sends), and only when the plan
	// resolved a non-empty symmetry group — small instances never see
	// the call, so their emissions stay byte-identical to the pinned
	// goldens.
	NodeSymmetry(plan *nodeSymPlan)
	// SendVar introduces the send Boolean of chunk c over edge ei.
	SendVar(c, ei int)
	// Minimality emits the minimal-solution refinements m1–m3 for chunk
	// c (CDCL refinement; SMT sinks ignore).
	Minimality(c int)
	// RoundVar introduces the per-step round variable r_s.
	RoundVar(s int)
	// RoundTotal is the Stage-2 flattening point of C6: bound-mode sinks
	// assert the round total here; window-mode emission defers it to the
	// per-probe budget assumptions.
	RoundTotal()
	// Receive emits C3 (exactly-one receive) for the non-pre (c, n).
	Receive(c, n int) bool
	// Causality emits C4 for (chunk c, edge ei).
	Causality(c, ei int)
	// Bandwidth emits C5 for step s and topology relation ri.
	Bandwidth(s, ri int)
	// Finish completes the emission (SMT sinks assemble their buffered
	// assertion groups here).
	Finish()
}

// StagedEncoder walks one EncodePlan's constraint structure in the
// canonical order and drives a StageSink. The walk order is the contract
// every byte-identity golden depends on; it must not change without
// regenerating them.
type StagedEncoder struct {
	Plan EncodePlan
	// Template is the resolved Stage-0 substructure (Plan.Template or a
	// privately derived one). Cache-share accounting lives with the
	// caller that looked the template up (TemplateCache.Get's hit
	// result), not here.
	Template *Stage0Template
	// dist[c] is the per-chunk source-distance map (Stage 0 applied to
	// the family's pre placements).
	dist [][]int
	// distToPost[c] is the per-chunk distance-to-post map (minimality).
	distToPost [][]int
	// symPlan memoizes the resolved node-symmetry plan: the quotient
	// planner (sink construction) and the Emit walk both read it, and
	// resolution enumerates subgroup closures — worth doing once.
	symPlan     *nodeSymPlan
	symPlanDone bool
}

// NewStagedEncoder resolves the plan's Stage-0 template (a skeleton —
// edges only — when none was supplied). The per-chunk distance maps are
// derived lazily by distances(): only the CDCL sink's pruning and
// minimality read them, and the SMT emission must not pay for data it
// never uses.
func NewStagedEncoder(plan EncodePlan) *StagedEncoder {
	tmpl := plan.Template
	if !tmpl.matches(plan.Topo) {
		tmpl = newStage0Skeleton(plan.Topo)
	}
	return &StagedEncoder{Plan: plan, Template: tmpl}
}

// distances materializes the per-chunk source-distance and
// distance-to-post maps, memoized on the encoder. A template with an
// all-pairs matrix answers them by reduction (the derivation is
// amortized across every family sharing it); a skeleton falls back to
// the per-chunk BFS — a lone encode must not pay for a whole-topology
// matrix it uses once. Not safe for concurrent use; an encoder serves
// one emission at a time.
func (e *StagedEncoder) distances() (dist, distToPost [][]int) {
	if e.dist != nil {
		return e.dist, e.distToPost
	}
	coll, tmpl := e.Plan.Coll, e.Template
	e.dist = make([][]int, coll.G)
	e.distToPost = make([][]int, coll.G)
	for c := 0; c < coll.G; c++ {
		if tmpl.Dist != nil {
			e.dist[c] = tmpl.sourceDistances(coll.Pre.Nodes(c))
			e.distToPost[c] = tmpl.distancesToSet(coll.Post, c)
		} else {
			e.dist[c] = multiSourceDistances(e.Plan.Topo, coll.Pre.Nodes(c))
			e.distToPost[c] = distancesToSet(e.Plan.Topo, coll.Post, c)
		}
	}
	return e.dist, e.distToPost
}

// newStage0Skeleton derives only the edge enumeration of a Stage-0
// template — the part every encode needs — leaving the all-pairs
// distance matrix (worth deriving only when shared) absent.
func newStage0Skeleton(topo *topology.Topology) *Stage0Template {
	edges := topo.Edges()
	idx := make(map[topology.Link]int, len(edges))
	for ei, l := range edges {
		idx[l] = ei
	}
	return &Stage0Template{topoFP: topo.Fingerprint(), Edges: edges, EdgeIndex: idx}
}

// Emit drives the sink through stages 1 and 2 in the canonical order.
// It returns false when the sink aborted (instance proven infeasible).
func (e *StagedEncoder) Emit(sink StageSink) bool {
	coll := e.Plan.Coll
	G, P := coll.G, coll.P
	edges := e.Template.Edges

	// Time variables (C1 via pre domains; in bound mode C2 via post
	// domains — Stage 2 flattened into the declarations).
	for c := 0; c < G; c++ {
		for n := 0; n < P; n++ {
			if !sink.TimeVar(c, n) {
				return false
			}
		}
	}

	// Chunk-symmetry breaking (satisfiability-preserving refinement).
	if !e.Plan.NoSymmetryBreak {
		for _, group := range symmetricChunkGroups(coll) {
			w := witnessNode(coll, group[0])
			if w < 0 {
				continue
			}
			sink.OrderSymmetric(group, w)
		}
	}

	// Send Booleans.
	for c := 0; c < G; c++ {
		for ei := range edges {
			sink.SendVar(c, ei)
		}
	}

	// Node-orbit equivariance (guarded restriction, see resolveNodeSymPlan;
	// emitted after sends so the restriction covers both variable kinds).
	if plan := e.nodeSymPlan(); plan != nil {
		sink.NodeSymmetry(plan)
	}

	// Minimal-solution refinements m1–m3.
	for c := 0; c < G; c++ {
		sink.Minimality(c)
	}

	// Round variables, then the Stage-2 C6 flattening point.
	for s := 0; s < e.Plan.Window; s++ {
		sink.RoundVar(s)
	}
	sink.RoundTotal()

	// C3: exactly-one receive for arriving non-pre chunks.
	for c := 0; c < G; c++ {
		for n := 0; n < P; n++ {
			if coll.Pre[c][n] {
				continue
			}
			if !sink.Receive(c, n) {
				return false
			}
		}
	}

	// C4: causality and the arrival-within-window tie.
	for c := 0; c < G; c++ {
		for ei := range edges {
			sink.Causality(c, ei)
		}
	}

	// C5: per-step, per-relation bandwidth.
	for s := 1; s <= e.Plan.Window; s++ {
		for ri := range e.Plan.Topo.Relations {
			sink.Bandwidth(s, ri)
		}
	}

	sink.Finish()
	return true
}

// bound reports bound mode (Stage 2 flattened into the stream).
func (e *StagedEncoder) bound() bool { return e.Plan.Budget != nil }

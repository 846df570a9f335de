package synth

import (
	"context"
	"strconv"
	"sync"

	"repro/internal/collective"
	"repro/internal/sat"
	"repro/internal/smt"
	"repro/internal/topology"
)

// Node-orbit symmetry exploitation. A topology automorphism π that also
// stabilizes the collective (maps pre/post placement rows onto each
// other, inducing a chunk permutation σ) maps satisfying schedules to
// satisfying schedules. The encoder exploits that by emitting, per
// generator of the instance-stabilizing subgroup, an EQUIVARIANCE
// restriction: clauses forcing
//
//	time(σc, πn) = time(c, n)   and   snd(σc, πe) = snd(c, e)
//
// so the search explores only schedules invariant under the generated
// subgroup — on a vertex-transitive fabric that collapses the variable
// orbits to their representatives and shrinks the effective search space
// by roughly the group order. The restriction is satisfiability-
// incomplete (a satisfiable instance may admit only asymmetric
// schedules, and an Unsat answer may lean on the restriction), so every
// generator's clauses are conditioned on a fresh selector guard and
// solves go through solveSymPhased: guards are assumed positively first,
// and any Unsat whose failed-assumption core touches a guard flips that
// guard off and retries. The final answer therefore never depends on the
// restriction — frontier (C, S, R) costs are identical with symmetry on
// or off; only witnesses and wall clock differ.

// nodeSymMaxGens caps the generators one plan emits. Emission keeps a
// greedily-reduced generating set of the stabilizer subgroup (see
// reduceGens), so the cap only bites on groups too large to enumerate.
const nodeSymMaxGens = 12

// nodeSymClosureCap bounds the subgroup enumeration behind the greedy
// generator reduction (see reduceGens for what happens past it).
const nodeSymClosureCap = 20000

// nodeSymPerm is one instance-stabilizing automorphism, prepared for
// emission: the node map π, the inverse of the class permutation σ it
// induces on chunk signature classes, and the concrete chunk map
// (same-index pairing within mapped classes — sound, because chunks of
// one class have identical pre/post rows, so any within-class bijection
// preserves the instance).
type nodeSymPerm struct {
	perm     topology.Perm
	invClass []int // invClass[j] = class index i with σ(i) = j
	chunkMap []int // chunkMap[c] = σ's image chunk of c
}

// nodeSymPlan is the Stage-1 node-symmetry group of one emission: the
// chunk signature classes (singletons included, ascending first-chunk
// order) and the prepared generators. order is the size of the subgroup
// the kept generators close over (0 when it outgrew the enumeration
// cap); the restricted-phase conflict-cap estimator reads it.
type nodeSymPlan struct {
	classes [][]int
	perms   []nodeSymPerm
	order   int
}

// chunkClasses partitions the chunks into signature classes, including
// singletons, ordered by first chunk id; sigs holds each class's
// signature.
func chunkClasses(coll *collective.Spec) (classes [][]int, sigs []string) {
	idx := map[string]int{}
	for c := 0; c < coll.G; c++ {
		s := chunkSig(coll, c)
		i, ok := idx[s]
		if !ok {
			i = len(classes)
			idx[s] = i
			classes = append(classes, nil)
			sigs = append(sigs, s)
		}
		classes[i] = append(classes[i], c)
	}
	return classes, sigs
}

// nodeSymClassMap computes the inverse of the class permutation σ that
// automorphism p induces on the signature classes: p maps a chunk with
// signature s to one whose signature places s's (pre, post) bits at the
// p-image nodes. ok is false when some image signature is not a class
// of equal size — p does not stabilize the instance and must not be
// exploited.
func nodeSymClassMap(sigs []string, classes [][]int, p topology.Perm) (invClass []int, ok bool) {
	idx := make(map[string]int, len(sigs))
	for i, s := range sigs {
		idx[s] = i
	}
	invClass = make([]int, len(sigs))
	for i := range invClass {
		invClass[i] = -1
	}
	img := make([]byte, 0, 2*len(p))
	for i, s := range sigs {
		img = img[:len(s)]
		for n := range p {
			img[2*p[n]] = s[2*n]
			img[2*p[n]+1] = s[2*n+1]
		}
		j, found := idx[string(img)]
		if !found || len(classes[j]) != len(classes[i]) || invClass[j] != -1 {
			return nil, false
		}
		invClass[j] = i
	}
	return invClass, true
}

// chunkMapOf materializes the concrete chunk permutation of one prepared
// generator: class i maps onto class σ(i) with same-index pairing.
func chunkMapOf(classes [][]int, invClass []int) []int {
	fwd := make([]int, len(classes))
	for j, i := range invClass {
		fwd[i] = j
	}
	var total int
	for _, cl := range classes {
		total += len(cl)
	}
	cm := make([]int, total)
	for i, cl := range classes {
		img := classes[fwd[i]]
		for idx, c := range cl {
			cm[c] = img[idx]
		}
	}
	return cm
}

// nodeSymPlan resolves the emission's node-symmetry group, memoized on
// the encoder (the quotient planner and the Emit walk both need it).
func (e *StagedEncoder) nodeSymPlan() *nodeSymPlan {
	if !e.symPlanDone {
		e.symPlan = e.resolveNodeSymPlan()
		e.symPlanDone = true
	}
	return e.symPlan
}

// resolveNodeSymPlan resolves the emission's node-symmetry group from
// the instance alone, at any node count (nil when disabled or nothing
// qualifies). Fixed-point-free generators are preferred, reduced to a
// set whose closure acts freely: a generator fixing node f fixes the
// chunks sourced there, and a self-invariant receive tree must route
// every fixed node through fixed predecessors (at-most-one-receive),
// which tends to be Unsat when fixed nodes are not adjacent. A rooted
// instance has no free stabilizer; it takes the root stabilizer,
// keeping the generators that move a chunk — all of them for Gather and
// Scatter (the quotient collapses their chunk orbits), none for
// Broadcast.
func (e *StagedEncoder) resolveNodeSymPlan() *nodeSymPlan {
	coll, topo := e.Plan.Coll, e.Plan.Topo
	if e.Plan.NoNodeSymmetry {
		return nil
	}
	classes, sigs := chunkClasses(coll)
	seen := map[string]bool{}
	free, fixing := instancePerms(classes, sigs, e.Template.Aut(topo).Gens, seen)
	plan := &nodeSymPlan{classes: classes}
	if len(free) > 0 {
		plan.perms, plan.order = reduceGens(free, topo.P, true)
	} else if pinsRoot(coll) {
		_, rooted := instancePerms(classes, sigs, e.Template.AutFixing(topo, coll.Root).Gens, seen)
		plan.perms, plan.order = reduceGens(append(fixing, rooted...), topo.P, false)
	}
	if len(plan.perms) == 0 {
		return nil
	}
	return plan
}

// instancePerms keeps the generators in gens that stabilize the instance
// with the given chunk classes and signatures, skipping the identity and
// every generator already in seen (which it extends). It splits them
// into the fixed-point-free ones and the others that move a chunk.
func instancePerms(classes [][]int, sigs []string, gens []topology.Perm, seen map[string]bool) (free, fixing []nodeSymPerm) {
	for _, p := range gens {
		invClass, ok := nodeSymClassMap(sigs, classes, p)
		if !ok || p.IsIdentity() || seen[permKey(p)] {
			continue
		}
		seen[permKey(p)] = true
		sp := nodeSymPerm{perm: p, invClass: invClass, chunkMap: chunkMapOf(classes, invClass)}
		if fixedPointFree(p) {
			free = append(free, sp)
		} else if movesChunk(sp.chunkMap) {
			fixing = append(fixing, sp)
		}
	}
	return free, fixing
}

// freeOrder is the order of the fixed-point-free node-symmetry group an
// encoding of coll on topo breaks over (the free branch of
// resolveNodeSymPlan): 1 when there is none, 0 when it outgrew
// enumeration.
func freeOrder(coll *collective.Spec, topo *topology.Topology) int {
	classes, sigs := chunkClasses(coll)
	free, _ := instancePerms(classes, sigs, cachedAut(topo).Gens, map[string]bool{})
	_, order := reduceGens(free, topo.P, true)
	return order
}

// fixedPointFree reports whether p moves every node.
func fixedPointFree(p topology.Perm) bool {
	for i, v := range p {
		if i == v {
			return false
		}
	}
	return true
}

// pinsRoot reports whether the instance is rooted: every chunk starts at
// the root alone (Broadcast, Scatter) or ends there alone (Gather). A
// built-in kind that ignores its root never is, even an Alltoall with
// C < P, whose chunks all end at node 0.
func pinsRoot(coll *collective.Spec) bool {
	if coll.Kind != collective.CustomKind && !coll.Kind.IsRooted() {
		return false
	}
	pre, post := true, true
	for c := 0; c < coll.G; c++ {
		for n := 0; n < coll.P; n++ {
			root := n == int(coll.Root)
			pre, post = pre && coll.Pre[c][n] == root, post && coll.Post[c][n] == root
		}
	}
	return pre || post
}

// movesChunk reports whether a chunk map moves some chunk.
func movesChunk(chunkMap []int) bool {
	for c, d := range chunkMap {
		if c != d {
			return true
		}
	}
	return false
}

// reduceGens greedily keeps only generators that enlarge the generated
// subgroup, in input order. Instance stabilizers form a group, so the
// closure of any accepted subset is itself all instance-stabilizing,
// and a reduced generating set enforces the same equivariance by
// transitivity of the emitted equalities. With requireFree the whole
// closure must act freely (every non-identity element fixed-point-free
// — for a torus that selects the translation subgroup): products of
// fixed-point-free generators can be reflections, which reintroduce the
// self-invariant-tree obstruction jointly even though each generator
// alone dodges it. A generator whose closure outgrows nodeSymClosureCap
// is skipped with requireFree (the closure cannot be certified free);
// without it, it is kept and the reduction stops. The second return
// value is the size of the subgroup the kept set closes over, 0 when it
// outgrew the enumeration cap.
func reduceGens(perms []nodeSymPerm, p int, requireFree bool) ([]nodeSymPerm, int) {
	if len(perms) == 0 {
		return perms, 1
	}
	if len(perms) == 1 {
		if closed, ok := permClosure([]topology.Perm{perms[0].perm}, p); ok {
			return perms, len(closed)
		}
		return perms, 0
	}
	var kept []nodeSymPerm
	gens := make([]topology.Perm, 0, nodeSymMaxGens)
	size := 1
	for _, sp := range perms {
		closed, ok := permClosure(append(gens, sp.perm), p)
		if !ok {
			if requireFree {
				continue // cannot certify the larger closure stays free
			}
			// Subgroup too large to enumerate: sp still enlarges it (the
			// enumeration of the previous set fit the cap), so keep it and
			// stop — further redundancy checks would need the closure.
			kept = append(kept, sp)
			gens = append(gens, sp.perm)
			size = 0
			break
		}
		if len(closed) == size {
			continue // sp is a product of the kept generators
		}
		if requireFree && !closureFree(closed, p) {
			continue
		}
		kept = append(kept, sp)
		gens = append(gens, sp.perm)
		size = len(closed)
		if len(kept) >= nodeSymMaxGens {
			break
		}
	}
	return kept, size
}

// permClosure enumerates the subgroup generated by gens (BFS over right
// products), bailing with ok=false past nodeSymClosureCap elements.
func permClosure(gens []topology.Perm, p int) ([]topology.Perm, bool) {
	id := topology.Identity(p)
	seen := map[string]bool{permKey(id): true}
	elems := []topology.Perm{id}
	for qi := 0; qi < len(elems); qi++ {
		cur := elems[qi]
		for _, g := range gens {
			next := make(topology.Perm, p)
			for i := range next {
				next[i] = g[cur[i]]
			}
			k := permKey(next)
			if seen[k] {
				continue
			}
			if len(elems) >= nodeSymClosureCap {
				return nil, false
			}
			seen[k] = true
			elems = append(elems, next)
		}
	}
	return elems, true
}

// closureFree reports whether every non-identity element of the closure
// moves every node (the group acts freely).
func closureFree(elems []topology.Perm, p int) bool {
	for _, e := range elems {
		if e.IsIdentity() {
			continue
		}
		if !fixedPointFree(e) {
			return false
		}
	}
	return true
}

// permKey renders a permutation as a dedup key.
func permKey(p topology.Perm) string {
	b := make([]byte, 0, 3*len(p))
	for _, v := range p {
		b = append(b, byte(v), byte(v>>8), ';')
	}
	return string(b)
}

// Restricted phases (equivariance-guarded solves and quotient probes)
// run under a conflict cap sized per fabric by restrictedPhaseConflicts.
// A restriction that is going to pay off collapses the search to a
// small fraction of the unrestricted effort (the torus:6x6 Allgather
// witness lands in ~270 conflicts, the 4x-DGX-1 machine-ring witness in
// ~1.7k); one that wanders well past that is either restricted-Unsat on
// a genuinely-Unsat instance (the proof under the restriction is no
// cheaper than without) or fighting an asymmetric instance. Capping the
// restricted phases bounds the worst-case overhead over a symmetry-off
// solve while leaving the collapse wins intact.
const (
	// restrictedPhaseMinConflicts floors the cap: even a tiny formula
	// deserves enough conflicts for a guarded witness to surface.
	restrictedPhaseMinConflicts = 2000
	// restrictedPhaseClauseDivisor damps the formula-size term. The floor
	// already covers the observed payoff regime (witnesses land within
	// hundreds to ~2k conflicts when a restriction collapses the search),
	// and every point the cap rises past a payoff that is not coming is
	// pure waste multiplied across the sweep's Unsat probes — so the
	// adaptive term only grants meaningful headroom to formulas hundreds
	// of times larger per group element than the gated fabrics
	// (~300-400k clauses).
	restrictedPhaseClauseDivisor = 128
	// restrictedPhaseMaxConflicts ceils the cap so a restriction that is
	// never going to collapse the search stays a bounded detour.
	restrictedPhaseMaxConflicts = 12000
)

// restrictedPhaseConflicts sizes the conflict cap of one restricted
// phase from the base formula and the symmetry group: the budget grows
// with clause count (conflicts on a large formula are individually less
// conclusive) and shrinks with the group order (a larger group collapses
// more of the search, so a payoff — witness or restricted refutation —
// must surface sooner if it is going to surface at all). order 0 means
// the group outgrew enumeration: treat it as maximally collapsing.
func restrictedPhaseConflicts(clauses, order int) int64 {
	if order <= 0 {
		order = nodeSymClosureCap
	} else if order < 2 {
		order = 2
	}
	c := int64(restrictedPhaseMinConflicts) +
		int64(clauses)/(int64(order)*restrictedPhaseClauseDivisor)
	if c > restrictedPhaseMaxConflicts {
		c = restrictedPhaseMaxConflicts
	}
	return c
}

// solveSymPhased discharges a solve whose formula carries guarded
// node-symmetry equivariance clauses. base holds the ordinary
// assumptions (budget literals, activation rows), on the guards assumed
// positively and off the guards assumed negatively (mega probes whose
// activation row is not invariant under a generator). A Sat answer under
// the restriction is a genuine witness; an Unsat whose failed-assumption
// core touches a positive guard proves nothing about the instance, so
// the offending guards flip to off and the solve retries on the same
// solver — learnt clauses carry across phases. Restricted phases run
// under the capConflicts conflict cap (callers size it per fabric via
// restrictedPhaseConflicts); exhausting it drops every remaining guard,
// so a restriction that fails to collapse the search costs at most the
// cap. The loop terminates because every retry turns at least one guard
// off, and the final answer's core never contains a symmetry literal:
// Unsat results and their budget-core classifications are exactly as
// complete as a symmetry-free solve.
func solveSymPhased(ctx context.Context, sctx *smt.Context, base, on, off []sat.Lit, capConflicts int64) sat.Status {
	mark := sctx.Solver.LearntMark()
	for {
		lits := make([]sat.Lit, 0, len(base)+len(on)+len(off))
		lits = append(lits, base...)
		for _, g := range off {
			lits = append(lits, g.Neg())
		}
		lits = append(lits, on...)
		var st sat.Status
		var budget int64
		before := sctx.Solver.Stats().Conflicts
		if len(on) > 0 {
			budget = capConflicts
			if user, _ := sctx.Solver.Budget(); user > 0 && user < budget {
				budget = user
			}
			st = sctx.Solver.SolveWithBudgetContext(ctx, budget, lits...)
		} else {
			st = sctx.SolveContext(ctx, lits...)
		}
		if st == sat.Unknown && len(on) > 0 &&
			sctx.Solver.Stats().Conflicts-before >= budget {
			// Conflict cap exhausted under the restriction: it is not
			// collapsing this search. Answer unrestricted. (Unknown for any
			// other reason — timeout, cancellation — propagates as-is.)
			off = append(off, on...)
			on = nil
			scrubRestriction(sctx, mark)
			continue
		}
		if st != sat.Unsat || len(on) == 0 {
			return st
		}
		flip := map[sat.Lit]bool{}
		onSet := make(map[sat.Lit]bool, len(on))
		for _, g := range on {
			onSet[g] = true
		}
		for _, l := range sctx.Solver.FailedAssumptions() {
			if onSet[l] {
				flip[l] = true
			}
		}
		if len(flip) == 0 {
			return st // the core never touched the restriction: genuine Unsat
		}
		keep := on[:0]
		for _, g := range on {
			if flip[g] {
				off = append(off, g)
			} else {
				keep = append(keep, g)
			}
		}
		on = keep
		scrubRestriction(sctx, mark)
	}
}

// scrubRestriction cleans the solver after a phase flip turned guards
// off: heuristic state (activities, phases) tuned to the equivariant
// subspace the flip just abandoned can mislead the unrestricted search
// by orders of magnitude, and every lemma learnt inside that subspace —
// guard-mentioning or not — encodes subspace-shaped reasoning with the
// same effect. Learnts from before the phased solve (carried session
// lemmas) survive the mark-based purge.
func scrubRestriction(sctx *smt.Context, mark int) {
	sctx.Solver.PurgeLearntsSince(mark)
	sctx.Solver.ResetSearchState()
}

// autCache memoizes automorphism generator sets per (topology, fixed
// node) across encoders. Private skeleton templates — one-shot solves
// and canonical witness re-solves — would otherwise re-run the search
// for every encode of a large fabric; the groups are pure derived data,
// so one shared map is safe.
var autCache = struct {
	sync.Mutex
	m     map[string]*topology.Group
	order []string
}{m: map[string]*topology.Group{}}

const autCacheCap = 64

func cachedAut(topo *topology.Topology, fixed ...topology.Node) *topology.Group {
	key := topo.Fingerprint()
	for _, f := range fixed {
		key += "|f" + strconv.Itoa(int(f))
	}
	autCache.Lock()
	if g, ok := autCache.m[key]; ok {
		autCache.Unlock()
		return g
	}
	autCache.Unlock()
	var g *topology.Group
	if len(fixed) == 0 {
		g = topology.Aut(topo)
	} else {
		ints := make([]int, len(fixed))
		for i, f := range fixed {
			ints[i] = int(f)
		}
		g = topology.AutFixing(topo, ints...)
	}
	autCache.Lock()
	if _, ok := autCache.m[key]; !ok {
		autCache.order = append(autCache.order, key)
		for len(autCache.order) > autCacheCap {
			delete(autCache.m, autCache.order[0])
			autCache.order = autCache.order[1:]
		}
	}
	autCache.m[key] = g
	autCache.Unlock()
	return g
}

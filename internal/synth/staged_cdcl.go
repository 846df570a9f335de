package synth

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/sat"
	"repro/internal/smt"
	"repro/internal/topology"
)

// cdclStageSink lowers the staged constraint stream into the built-in
// CDCL solver through the order-encoding layer. It emits eagerly: solver
// variables are allocated and clauses added the moment each stage op
// arrives, so the walk order of StagedEncoder.Emit is the clause order —
// the property the pinned goldens depend on.
//
// In bound mode (plan.Budget non-nil) the sink reproduces the historical
// one-shot encoding exactly: post-arrival domains are tightened to S
// (C2) and the round total R is asserted (C6). In window mode it emits
// the layered mega-base: wide domains, no C2/C6 — those arrive per probe
// as assumption literals (megaEncoding.assumeFamily).
type cdclStageSink struct {
	e   *StagedEncoder
	ctx *smt.Context
	// dist[c] / distToPost[c]: the Stage-0 per-chunk distance maps the
	// pruning and minimality rules read (materialized at construction —
	// only this sink needs them).
	dist       [][]int
	distToPost [][]int
	// times[c][n]; nil where the chunk can never reach n within the
	// window and is not required.
	times [][]*smt.IntVar
	// snds[c][edgeIndex]: 0 means the variable was pruned away.
	snds [][]sat.Lit
	rs   []*smt.IntVar
	// infeasible marks an instance (or, in window mode, a whole mega-base
	// window) proven unsatisfiable by pruning alone.
	infeasible bool
	// arrival-literal cache for C5, keyed (c, edgeIndex, s): a literal
	// may appear in multiple relations.
	arrivals map[[3]int]sat.Lit
	// acts[c], when set, guards chunk c's send variables for the
	// mega-base: ¬acts[c] propagates every send of the chunk off, letting
	// a probe deactivate universe chunks by assumption (mega.go). Nil for
	// one-shot encodings — no guards, byte-identical output.
	acts []sat.Lit
	// Node-symmetry emission state of a one-shot encoding (see
	// NodeSymmetry; the mega-base plans none): the emitted plan, the
	// per-generator selector guards (parallel to symPlan.perms, assumed
	// by solveSymPhased), and the emitted-generator count reported
	// through Result.SymmetryPerms.
	symPlan   *nodeSymPlan
	symGuards []sat.Lit
	symPerms  int
	// qplan, when non-nil, selects quotient mode: non-representative
	// chunks' variables are aliases of their representative's through
	// the group action, and their per-chunk constraint families are
	// skipped as exact images (see quotient.go). qdeclined flags a
	// defensive structural mismatch: the formula is then not a sound
	// quotient and the caller must rebuild without one.
	qplan     *quotientPlan
	qdeclined bool
	// bwSeen holds the keys of the C5 constraints a quotient emission has
	// lowered (see bandwidthKey); bwLits and bwKey are its scratch.
	bwSeen map[string]struct{}
	bwLits []sat.Lit
	bwKey  []byte
}

func newCDCLStageSink(e *StagedEncoder, ctx *smt.Context) *cdclStageSink {
	k := &cdclStageSink{e: e, ctx: ctx, arrivals: map[[3]int]sat.Lit{}}
	k.qplan = e.quotientPlanOf()
	if k.qplan != nil {
		k.bwSeen = map[string]struct{}{}
	}
	k.dist, k.distToPost = e.distances()
	G := e.Plan.Coll.G
	k.times = make([][]*smt.IntVar, G)
	k.snds = make([][]sat.Lit, G)
	for c := 0; c < G; c++ {
		k.times[c] = make([]*smt.IntVar, e.Plan.Coll.P)
		k.snds[c] = make([]sat.Lit, len(e.Template.Edges))
	}
	k.rs = make([]*smt.IntVar, 0, e.Plan.Window)
	return k
}

// TimeVar allocates time(c, n) with the plan's domain policy. Integer
// domains encode C1 (pre nodes pinned to 0) and, in bound mode, C2
// (post nodes bounded by S); Window+1 encodes "never arrives".
func (k *cdclStageSink) TimeVar(c, n int) bool {
	coll, B := k.e.Plan.Coll, k.e.Plan.Window
	d := k.dist[c][n]
	if q := k.qplan; q != nil && q.rep[c] != c {
		// Quotient aliasing: time(c, n) IS time(rep, π⁻¹n) — no new
		// variable. Instance stabilization makes every domain and pruning
		// decision coincide with the representative's, so the checks here
		// mirror the full path: the unreachable-but-required case is
		// genuine infeasibility (pure BFS pruning, quotient-independent),
		// while a nil-ness disagreement with the alias is a defensive
		// decline — the formula is abandoned for the full one, never
		// answered from.
		if !coll.Pre[c][n] && (d < 0 || d > B) && coll.Post[c][n] {
			k.infeasible = true
			return false
		}
		al := k.times[q.rep[c]][q.invNode[c][n]]
		wantNil := !coll.Pre[c][n] && (d < 0 || d > B)
		if (al == nil) != wantNil {
			k.qdeclined = true
		}
		k.times[c][n] = al
		return true
	}
	name := fmt.Sprintf("time_c%d_n%d", c, n)
	switch {
	case coll.Pre[c][n]:
		k.times[c][n] = k.ctx.NewIntVar(name, 0, 0)
	case d < 0 || d > B:
		if coll.Post[c][n] {
			// Required but unreachable within the window: the instance
			// (bound mode) or every budget in the window (window mode)
			// is unsatisfiable.
			k.infeasible = true
			return false
		}
		// Unreachable and not required: chunk never there.
		k.times[c][n] = nil
	default:
		hi := B + 1
		if k.e.bound() && coll.Post[c][n] {
			// Stage 2 flattened: post arrival within S via the domain.
			hi = B
		}
		k.times[c][n] = k.ctx.NewIntVar(name, d, hi)
	}
	return true
}

// OrderSymmetric orders the group's arrival times at witness node w:
// a <= b as, for every threshold t, a>=t -> b>=t.
func (k *cdclStageSink) OrderSymmetric(group []int, w int) {
	ctx := k.ctx
	for i := 0; i+1 < len(group); i++ {
		a, b := k.times[group[i]][w], k.times[group[i+1]][w]
		if a == nil || b == nil {
			continue
		}
		for t := b.Lo + 1; t <= a.Hi; t++ {
			la, okA := a.GeLit(t)
			if !okA {
				if !a.TriviallyGe(t) {
					continue
				}
				// a always >= t: force b >= t.
				ctx.AssertGe(b, t)
				continue
			}
			if lb, okB := b.GeLit(t); okB {
				ctx.AddClause(la.Neg(), lb)
			} else if !b.TriviallyGe(t) {
				ctx.AddClause(la.Neg())
			}
		}
	}
}

// NodeSymmetry emits, per instance-stabilizing automorphism generator,
// an equivariance restriction: clauses forcing the schedule invariant
// under the generator — time(σc, πn) = time(c, n) bit-for-bit over the
// order encoding, and snd(σc, πe) = snd(c, e) — so the search collapses
// each variable orbit to one representative. Every generator's clauses
// are conditioned on a fresh selector guard; solves assume the guards
// positively and retreat per guard when an Unsat core leans on one
// (solveSymPhased), so answers never depend on the restriction. See
// nodesym.go for the soundness argument.
func (k *cdclStageSink) NodeSymmetry(plan *nodeSymPlan) {
	k.symPlan = plan
	if k.qplan != nil {
		// Quotient mode: the orbit identification already bakes the
		// generators' equivariance into the variables themselves, so
		// guarded restriction clauses would be tautologies over the
		// aliases (plus stabilizer components not worth guarding). The
		// quotient solve is instead a capped plain phase with
		// formula-level fallback — see synthesizeCDCLTemplate.
		return
	}
	for _, p := range plan.perms {
		guard := k.ctx.BoolVar()
		k.symGuards = append(k.symGuards, guard)
		k.emitEquivariance(p, guard)
		k.symPerms++
	}
}

// symGeBit resolves the order-encoding bit [tv >= t] as a literal or a
// bound-decided constant.
func symGeBit(tv *smt.IntVar, t int) (lit sat.Lit, known, val bool) {
	if t <= tv.Lo {
		return 0, true, true
	}
	if t > tv.Hi {
		return 0, true, false
	}
	l, ok := tv.GeLit(t)
	if !ok {
		return 0, true, tv.TriviallyGe(t)
	}
	return l, false, false
}

// emitEquivariance emits one generator's restriction under its guard.
// True stabilizers have structurally aligned variable maps (BFS domains
// and pruning are automorphism-invariant), so the constant branches are
// defensive; skipping or retiring a generator only weakens the
// restriction, never the formula's answers.
func (k *cdclStageSink) emitEquivariance(p nodeSymPerm, guard sat.Lit) {
	ctx, coll := k.ctx, k.e.Plan.Coll
	ng := guard.Neg()
	for c := 0; c < coll.G; c++ {
		c2 := p.chunkMap[c]
		for n := 0; n < coll.P; n++ {
			m := p.perm[n]
			if c2 == c && m == n {
				continue
			}
			u, v := k.times[c][n], k.times[c2][m]
			if u == nil || v == nil {
				if u != v {
					// One side pruned to "never arrives": an invariant
					// schedule cannot exist — retire the generator.
					ctx.AddClause(ng)
					return
				}
				continue
			}
			lo, hi := u.Lo, u.Hi
			if v.Lo < lo {
				lo = v.Lo
			}
			if v.Hi > hi {
				hi = v.Hi
			}
			for t := lo + 1; t <= hi; t++ {
				lu, ku, vu := symGeBit(u, t)
				lv, kv, vv := symGeBit(v, t)
				switch {
				case ku && kv:
					if vu != vv {
						ctx.AddClause(ng) // domains disagree: retire
						return
					}
				case ku:
					l := lv
					if !vu {
						l = lv.Neg()
					}
					ctx.AddClause(ng, l)
				case kv:
					l := lu
					if !vv {
						l = lu.Neg()
					}
					ctx.AddClause(ng, l)
				default:
					ctx.AddClause(ng, lu.Neg(), lv)
					ctx.AddClause(ng, lu, lv.Neg())
				}
			}
		}
	}
	edges, idx := k.e.Template.Edges, k.e.Template.EdgeIndex
	for c := 0; c < coll.G; c++ {
		c2 := p.chunkMap[c]
		for ei, l := range edges {
			s1 := k.snds[c][ei]
			if s1 == 0 {
				continue
			}
			img := topology.Link{Src: topology.Node(p.perm[l.Src]), Dst: topology.Node(p.perm[l.Dst])}
			ei2, ok := idx[img]
			if !ok {
				continue
			}
			s2 := k.snds[c2][ei2]
			if s2 == 0 {
				// Image send pruned away: an invariant schedule never
				// uses this one either.
				ctx.AddClause(ng, s1.Neg())
				continue
			}
			if s1 == s2 {
				continue
			}
			ctx.AddClause(ng, s1.Neg(), s2)
			ctx.AddClause(ng, s1, s2.Neg())
		}
	}
}

// SendVar allocates snd(c, edge) unless pruning rules it out: the source
// must be able to hold the chunk strictly before the window's last step
// and the destination must be able to accept it.
func (k *cdclStageSink) SendVar(c, ei int) {
	if q := k.qplan; q != nil && q.rep[c] != c {
		// Quotient aliasing: snd(c, e) IS snd(rep, π⁻¹e); the
		// representative's pruning decision (0 = pruned) transfers by
		// instance stabilization. A missing image edge leaves the send
		// pruned — at worst a further restriction, covered by fallback.
		if ei2 := q.invEdge[c][ei]; ei2 >= 0 {
			k.snds[c][ei] = k.snds[q.rep[c]][ei2]
		}
		return
	}
	coll, B := k.e.Plan.Coll, k.e.Plan.Window
	l := k.e.Template.Edges[ei]
	src, dst := int(l.Src), int(l.Dst)
	if k.times[c][src] == nil || k.times[c][dst] == nil {
		return
	}
	if coll.Pre[c][dst] {
		return // never send a chunk to a node that starts with it
	}
	if k.dist[c][src] > B-1 {
		return // source can never usefully hold the chunk
	}
	k.snds[c][ei] = k.ctx.BoolVar()
	if k.acts != nil {
		// Activation guard: deactivated chunks cannot send. Inert while
		// act is assumed true, so an active projection matches an
		// unguarded window-mode emission of the family
		// constraint-for-constraint.
		k.ctx.AddClause(k.acts[c], k.snds[c][ei].Neg())
	}
}

// Minimality emits the minimal-solution refinements for chunk c. Any
// valid algorithm can be stripped of wasteful sends without violating
// C1–C6, so restricting the search to minimal solutions preserves
// SAT/UNSAT:
//
//	(m1) a chunk received at a non-post node must be forwarded at least
//	     once (otherwise the receive was wasteful);
//	(m2) a chunk with a single post node travels a simple path, so each
//	     node sends it at most once;
//	(m3) in a minimal solution every holder of a chunk has a post node
//	     downstream, so time(c,n) <= B - dist(n, post(c)); nodes that
//	     cannot reach any post node never usefully receive the chunk.
func (k *cdclStageSink) Minimality(c int) {
	if q := k.qplan; q != nil && q.rep[c] != c {
		return // exact π-image of the representative's clauses over the aliases
	}
	ctx, coll, B := k.ctx, k.e.Plan.Coll, k.e.Plan.Window
	edges := k.e.Template.Edges
	singlePost := len(coll.Post.Nodes(c)) == 1
	for n := 0; n < coll.P; n++ {
		tv := k.times[c][n]
		if tv == nil || coll.Post[c][n] {
			continue
		}
		var outgoing []sat.Lit
		for ei, l := range edges {
			if int(l.Src) == n && k.snds[c][ei] != 0 {
				outgoing = append(outgoing, k.snds[c][ei])
			}
		}
		d := k.distToPost[c][n]
		if d < 0 || len(outgoing) == 0 {
			// (m3) dead end: never usefully holds the chunk.
			if coll.Pre[c][n] {
				continue // pre holders may simply keep their copy
			}
			ctx.AssertEq(tv, B+1)
			continue
		}
		// (m3) arrival leaves enough steps to reach a post node.
		if ub := B - d; ub < tv.Hi && !coll.Pre[c][n] {
			if leS, ok := tv.LeLit(B); ok {
				if leUB, ok2 := tv.LeLit(ub); ok2 {
					ctx.AddClause(leS.Neg(), leUB)
				} else if !tv.TriviallyLe(ub) {
					ctx.AddClause(leS.Neg()) // can only be "never"
				}
			}
		}
		// (m1) received => forwards at least once.
		if !coll.Pre[c][n] {
			if leS, ok := tv.LeLit(B); ok {
				cl := append([]sat.Lit{leS.Neg()}, outgoing...)
				ctx.AddClause(cl...)
			} else if tv.TriviallyLe(B) {
				ctx.AddClause(outgoing...)
			}
		}
		// (m2) single-destination chunks form paths.
		if singlePost {
			atMostOne(ctx, outgoing)
		}
	}
	// (m2) also applies to the chunk's source(s).
	if singlePost {
		for n := 0; n < coll.P; n++ {
			if !coll.Pre[c][n] || coll.Post[c][n] {
				continue
			}
			var outgoing []sat.Lit
			for ei, l := range edges {
				if int(l.Src) == n && k.snds[c][ei] != 0 {
					outgoing = append(outgoing, k.snds[c][ei])
				}
			}
			atMostOne(ctx, outgoing)
		}
	}
}

// RoundVar allocates r_s over the plan's round domain.
func (k *cdclStageSink) RoundVar(s int) {
	k.rs = append(k.rs, k.ctx.NewIntVar(fmt.Sprintf("r_%d", s), 1, k.e.Plan.RoundHi))
}

// RoundTotal asserts C6 in bound mode; in window mode the round total is
// a per-probe assumption over prefix-sum registers (Stage 2).
func (k *cdclStageSink) RoundTotal() {
	if k.e.bound() {
		k.ctx.AssertSumEquals(k.rs, k.e.Plan.Budget.Rounds)
	}
}

// Receive emits C3 for the non-pre (c, n): at most one incoming send,
// and arrival within the window implies at least one.
func (k *cdclStageSink) Receive(c, n int) bool {
	if q := k.qplan; q != nil && q.rep[c] != c {
		// Exact π-image of Receive(rep, π⁻¹n), which already ran (the
		// representative is the orbit minimum, so it was walked first) —
		// including its required-but-unreceivable infeasibility check.
		return true
	}
	ctx, coll, B := k.ctx, k.e.Plan.Coll, k.e.Plan.Window
	tv := k.times[c][n]
	if tv == nil {
		return true
	}
	var incoming []sat.Lit
	for ei, l := range k.e.Template.Edges {
		if int(l.Dst) == n && k.snds[c][ei] != 0 {
			incoming = append(incoming, k.snds[c][ei])
		}
	}
	if len(incoming) == 0 {
		// No way to receive: if required, UNSAT; else pin "never".
		if coll.Post[c][n] {
			k.infeasible = true
			return false
		}
		ctx.AssertEq(tv, B+1)
		return true
	}
	// At most one receive always (paper's optimality refinement).
	atMostOne(ctx, incoming)
	// time <= B -> at least one incoming send.
	if leLit, ok := tv.LeLit(B); ok {
		cl := append([]sat.Lit{leLit.Neg()}, incoming...)
		ctx.AddClause(cl...)
	} else if tv.TriviallyLe(B) {
		ctx.AddClause(incoming...)
	}
	return true
}

// Causality emits C4: snd -> time(src) < time(dst), with arrival bounded
// by the window.
func (k *cdclStageSink) Causality(c, ei int) {
	if q := k.qplan; q != nil && q.rep[c] != c {
		return // exact π-image of Causality(rep, π⁻¹e)
	}
	snd := k.snds[c][ei]
	if snd == 0 {
		return
	}
	l := k.e.Template.Edges[ei]
	src, dst := k.times[c][int(l.Src)], k.times[c][int(l.Dst)]
	k.ctx.ImplyLess(snd, src, dst)
	k.ctx.ImplyLe(snd, dst, k.e.Plan.Window)
}

// arrival reifies "chunk c arrives over edge ei at step s":
// snd(c, edge) ∧ time(c, dst) == s.
func (k *cdclStageSink) arrival(c, ei, s int) (sat.Lit, bool) {
	snd := k.snds[c][ei]
	if snd == 0 {
		return 0, false
	}
	dst := k.times[c][int(k.e.Template.Edges[ei].Dst)]
	conj, possible := dst.EqClauses(s)
	if !possible {
		return 0, false
	}
	lits := append([]sat.Lit{snd}, conj...)
	return k.ctx.AndLit(lits...), true
}

// Bandwidth emits C5 for (step s, relation ri): the number of arrivals
// over the relation's links at step s is bounded by bandwidth * r_s.
func (k *cdclStageSink) Bandwidth(s, ri int) {
	rel := k.e.Plan.Topo.Relations[ri]
	G := k.e.Plan.Coll.G
	var lits []sat.Lit
	for _, l := range rel.Links {
		ei, ok := k.e.Template.EdgeIndex[l]
		if !ok {
			continue
		}
		for c := 0; c < G; c++ {
			// Quotient mode canonicalizes the arrival to representative
			// coordinates: the aliased conjunction is literal-for-literal
			// the representative's, so sharing the cache entry avoids an
			// AndLit reification per orbit member. A duplicate literal in
			// lits is correct — each (chunk, link) pair is a distinct
			// arrival and counts toward the bandwidth separately.
			cc, ee := c, ei
			if q := k.qplan; q != nil && q.rep[c] != c {
				ee = q.invEdge[c][ei]
				if ee < 0 {
					continue // aliased send is pruned: no arrival
				}
				cc = q.rep[c]
			}
			key := [3]int{cc, ee, s}
			al, cached := k.arrivals[key]
			if !cached {
				var okA bool
				al, okA = k.arrival(cc, ee, s)
				if !okA {
					k.arrivals[key] = 0
					continue
				}
				k.arrivals[key] = al
			}
			if al != 0 {
				lits = append(lits, al)
			}
		}
	}
	if len(lits) == 0 {
		return
	}
	if k.bwSeen != nil {
		// Quotient mode: the aliases make many (relation, step) pairs
		// collect the same arrivals, and a constraint with the same
		// literals, factor and round variable as one already lowered is
		// already in the formula. Only aliasing repeats a multiset, so
		// full and mega-base emissions keep their exact clause streams.
		key := k.bandwidthKey(s, rel.Bandwidth, lits)
		if _, dup := k.bwSeen[string(key)]; dup {
			return
		}
		k.bwSeen[string(key)] = struct{}{}
	}
	k.ctx.CountLeScaled(lits, rel.Bandwidth, k.rs[s-1])
}

// bandwidthKey identifies the C5 constraint count(lits) <= bw * r_s: the
// step, the factor and the sorted multiset of the literals, as
// little-endian words. Duplicates stay: each is a distinct arrival that
// counts toward the bandwidth. The key aliases the sink's scratch until
// the next call.
func (k *cdclStageSink) bandwidthKey(s, bw int, lits []sat.Lit) []byte {
	k.bwLits = append(k.bwLits[:0], lits...)
	slices.Sort(k.bwLits)
	b := binary.LittleEndian.AppendUint32(k.bwKey[:0], uint32(s))
	b = binary.LittleEndian.AppendUint32(b, uint32(bw))
	for _, l := range k.bwLits {
		b = binary.LittleEndian.AppendUint32(b, uint32(l))
	}
	k.bwKey = b
	return b
}

func (k *cdclStageSink) Finish() {}

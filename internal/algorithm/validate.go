package algorithm

import (
	"fmt"

	"repro/internal/topology"
)

// Validate checks that the algorithm is a valid k-synchronous schedule for
// its collective on its topology:
//
//   - every send uses an existing link and a chunk in range;
//   - sources hold their chunk strictly before the sending step
//     (causality, paper C4);
//   - for non-combining collectives, the run's final placement covers the
//     postcondition (C2);
//   - for combining collectives, contribution-set semantics hold: reduce
//     sends never double-count a contribution and every required output
//     accumulates all P contributions exactly once;
//   - per-step bandwidth: for every step s and relation (L, b), the sends
//     crossing L at s number at most b*r_s (C5).
//
// It runs in time linear in the sends, the topology's links and the
// collective's relations: each send is looked up once in an index of the
// topology's links and charged to the relations that contain its link.
func (a *Algorithm) Validate() error {
	if a.Coll == nil || a.Topo == nil {
		return fmt.Errorf("algorithm %q: missing collective or topology", a.Name)
	}
	links := indexLinks(a.Topo)
	if err := a.validateBasics(links); err != nil {
		return err
	}
	steps := a.stepSends()
	if err := a.validateBandwidth(links, steps); err != nil {
		return err
	}
	if a.Coll.Kind.IsCombining() {
		return a.validateCombining(steps)
	}
	return a.validateNonCombining(steps)
}

// linkIndex maps every link of a topology to the indices of the relations
// that contain it, each relation once.
type linkIndex map[topology.Link][]int32

func indexLinks(t *topology.Topology) linkIndex {
	ix := linkIndex{}
	for ri, rel := range t.Relations {
		for _, l := range rel.Links {
			// A relation's links are walked together, so a link it lists
			// twice shows up as a repeat of the last index.
			if rs := ix[l]; len(rs) == 0 || rs[len(rs)-1] != int32(ri) {
				ix[l] = append(rs, int32(ri))
			}
		}
	}
	return ix
}

// usable reports whether l is in the topology's edge set E: in at least
// one relation and in no zero-bandwidth one (see Topology.Edges).
func (ix linkIndex) usable(t *topology.Topology, l topology.Link) bool {
	rels := ix[l]
	for _, ri := range rels {
		if t.Relations[ri].Bandwidth == 0 {
			return false
		}
	}
	return len(rels) > 0
}

func (a *Algorithm) validateBasics(links linkIndex) error {
	S := a.Steps()
	for _, r := range a.Rounds {
		if r < 1 {
			return fmt.Errorf("algorithm %q: step with %d rounds (must be >= 1)", a.Name, r)
		}
	}
	for _, snd := range a.Sends {
		if snd.Chunk < 0 || snd.Chunk >= a.G {
			return fmt.Errorf("algorithm %q: chunk %d out of range [0,%d)", a.Name, snd.Chunk, a.G)
		}
		if snd.Step < 0 || snd.Step >= S {
			return fmt.Errorf("algorithm %q: step %d out of range [0,%d)", a.Name, snd.Step, S)
		}
		if !links.usable(a.Topo, topology.Link{Src: snd.From, Dst: snd.To}) {
			return fmt.Errorf("algorithm %q: send %v uses missing link", a.Name, snd)
		}
	}
	return nil
}

func (a *Algorithm) validateNonCombining(steps [][]Send) error {
	// Causality + final coverage via step-wise execution.
	v := a.Coll.Pre
	have := make([][]bool, a.G)
	for c := range have {
		have[c] = append([]bool(nil), v[c]...)
	}
	for _, sends := range steps {
		// Every send of a step is checked against the placement before the
		// step: a chunk received in step s cannot be forwarded within s.
		for _, snd := range sends {
			if snd.Reduce {
				return fmt.Errorf("algorithm %q: reduce send %v in non-combining collective", a.Name, snd)
			}
			if !have[snd.Chunk][snd.From] {
				return fmt.Errorf("algorithm %q: %v sends chunk not yet present at source", a.Name, snd)
			}
		}
		for _, snd := range sends {
			have[snd.Chunk][snd.To] = true
		}
	}
	for c := 0; c < a.G; c++ {
		for n := 0; n < a.P; n++ {
			if a.Coll.Post[c][n] && !have[c][n] {
				return fmt.Errorf("algorithm %q: postcondition unmet: chunk %d never reaches node %d", a.Name, c, n)
			}
		}
	}
	return nil
}

// validateCombining checks contribution-set semantics. Each node starts
// with its own contribution for every chunk it holds in pre. A reduce send
// merges the source's contribution set into the destination's; the sets
// must be disjoint (no contribution counted twice). A copy send overwrites
// the destination's set (used by the Allgather phase of Allreduce, which
// moves fully-reduced chunks). Outputs required by post must hold the full
// contribution set.
func (a *Algorithm) validateCombining(steps [][]Send) error {
	full := (uint64(1) << uint(a.P)) - 1
	if a.P > 64 {
		return fmt.Errorf("algorithm %q: combining validation supports P <= 64", a.Name)
	}
	// contrib[c][n] is a bitset of original contributions node n currently
	// holds for chunk c; 0 = chunk absent.
	contrib := make([][]uint64, a.G)
	for c := range contrib {
		contrib[c] = make([]uint64, a.P)
		for n := 0; n < a.P; n++ {
			if a.Coll.Pre[c][n] {
				contrib[c][n] = 1 << uint(n)
			}
		}
	}
	var vals []uint64
	for _, sends := range steps {
		// Every send of a step reads the contributions from before it.
		vals = vals[:0]
		for _, snd := range sends {
			src := contrib[snd.Chunk][snd.From]
			if src == 0 {
				return fmt.Errorf("algorithm %q: %v sends absent chunk", a.Name, snd)
			}
			vals = append(vals, src)
		}
		for i, snd := range sends {
			dst := &contrib[snd.Chunk][snd.To]
			if snd.Reduce {
				if *dst&vals[i] != 0 {
					return fmt.Errorf("algorithm %q: %v double-counts contributions", a.Name, snd)
				}
				*dst |= vals[i]
			} else {
				if vals[i] != full {
					return fmt.Errorf("algorithm %q: %v copies a partial result (contributions %b)", a.Name, snd, vals[i])
				}
				*dst = vals[i]
			}
		}
	}
	for c := 0; c < a.G; c++ {
		for n := 0; n < a.P; n++ {
			if a.Coll.Post[c][n] && contrib[c][n] != full {
				return fmt.Errorf("algorithm %q: chunk %d at node %d has contributions %b, want all %d",
					a.Name, c, n, contrib[c][n], a.P)
			}
		}
	}
	return nil
}

// validateBandwidth charges each send to the relations containing its
// link and reports the first (step, relation) pair, in that order, whose
// count exceeds b*r_s.
func (a *Algorithm) validateBandwidth(links linkIndex, steps [][]Send) error {
	count := make([]int, len(a.Topo.Relations))
	var touched []int32
	for s, sends := range steps {
		touched = touched[:0]
		for _, snd := range sends {
			for _, ri := range links[topology.Link{Src: snd.From, Dst: snd.To}] {
				if count[ri] == 0 {
					touched = append(touched, ri)
				}
				count[ri]++
			}
		}
		over := -1
		for _, ri := range touched {
			if count[ri] > a.Topo.Relations[ri].Bandwidth*a.Rounds[s] && (over < 0 || int(ri) < over) {
				over = int(ri)
			}
		}
		if over >= 0 {
			rel := a.Topo.Relations[over]
			return fmt.Errorf("algorithm %q: step %d exceeds relation %d bandwidth: %d sends > %d*%d",
				a.Name, s, over, count[over], rel.Bandwidth, a.Rounds[s])
		}
		for _, ri := range touched {
			count[ri] = 0
		}
	}
	return nil
}

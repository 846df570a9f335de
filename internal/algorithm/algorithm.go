// Package algorithm defines the intermediate representation of a
// k-synchronous collective algorithm — the candidate solution (Q, T) of
// the SCCL paper (§3.3) — together with its run semantics, a validity
// checker, the inversion procedure that derives combining collectives
// from non-combining ones (§3.5), and the Reducescatter∘Allgather
// composition used for Allreduce.
package algorithm

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"repro/internal/collective"
	"repro/internal/topology"
)

// Send is one scheduled transfer: chunk Chunk moves From -> To during step
// Step (0-based). If Reduce is true the destination combines the incoming
// value into its partial result instead of overwriting it.
type Send struct {
	Chunk  int           `json:"chunk"`
	From   topology.Node `json:"from"`
	To     topology.Node `json:"to"`
	Step   int           `json:"step"`
	Reduce bool          `json:"reduce,omitempty"`
}

func (s Send) String() string {
	op := "copy"
	if s.Reduce {
		op = "reduce"
	}
	return fmt.Sprintf("step %d: %s c%d %d->%d", s.Step, op, s.Chunk, s.From, s.To)
}

// Algorithm is a complete k-synchronous schedule for a collective on a
// topology. JSON serialization uses the stable self-contained format in
// json.go rather than these fields directly.
type Algorithm struct {
	Name string
	// Coll is the collective this algorithm implements.
	Coll *collective.Spec
	// CollKind/P/C/Root/G mirror Coll for convenient access.
	CollKind string
	P        int
	C        int
	RootNode int
	G        int

	Topo *topology.Topology

	// Rounds holds r_s per step; len(Rounds) is the step count S.
	Rounds []int
	Sends  []Send
}

// New wraps the pieces into an Algorithm and fills serialization mirrors.
func New(name string, coll *collective.Spec, topo *topology.Topology, rounds []int, sends []Send) *Algorithm {
	a := &Algorithm{
		Name:     name,
		Coll:     coll,
		CollKind: coll.Kind.String(),
		P:        coll.P,
		C:        coll.C,
		RootNode: int(coll.Root),
		G:        coll.G,
		Topo:     topo,
		Rounds:   append([]int(nil), rounds...),
		Sends:    append([]Send(nil), sends...),
	}
	sort.SliceStable(a.Sends, func(i, j int) bool {
		x, y := a.Sends[i], a.Sends[j]
		if x.Step != y.Step {
			return x.Step < y.Step
		}
		if x.Chunk != y.Chunk {
			return x.Chunk < y.Chunk
		}
		if x.From != y.From {
			return x.From < y.From
		}
		return x.To < y.To
	})
	return a
}

// Steps returns S, the number of synchronous steps.
func (a *Algorithm) Steps() int { return len(a.Rounds) }

// TotalRounds returns R = Σ r_s.
func (a *Algorithm) TotalRounds() int {
	total := 0
	for _, r := range a.Rounds {
		total += r
	}
	return total
}

// BandwidthCost returns R/C, the bandwidth cost coefficient of the (α,β)
// model (§3.6).
func (a *Algorithm) BandwidthCost() *big.Rat {
	return big.NewRat(int64(a.TotalRounds()), int64(a.C))
}

// KSync returns the k for which this algorithm is k-synchronous:
// R - S (§3.1), floored at 0.
func (a *Algorithm) KSync() int {
	k := a.TotalRounds() - a.Steps()
	if k < 0 {
		return 0
	}
	return k
}

// SendsAtStep returns the sends scheduled in step s.
func (a *Algorithm) SendsAtStep(s int) []Send {
	var out []Send
	for _, snd := range a.Sends {
		if snd.Step == s {
			out = append(out, snd)
		}
	}
	return out
}

// stepSends groups the sends by step in one counting pass: stepSends()[s]
// holds the sends of step s in their order in Sends. Sends whose step is
// out of range belong to no group; Validate rejects them before grouping.
// The groups share one backing array and are capped, so appending to one
// cannot write into the next.
func (a *Algorithm) stepSends() [][]Send {
	S := a.Steps()
	// start[s] is where step s's group begins in the shared array.
	start := make([]int, S+1)
	for _, snd := range a.Sends {
		if snd.Step >= 0 && snd.Step < S {
			start[snd.Step+1]++
		}
	}
	for s := 0; s < S; s++ {
		start[s+1] += start[s]
	}
	buf := make([]Send, start[S])
	next := append([]int(nil), start[:S]...)
	for _, snd := range a.Sends {
		if snd.Step >= 0 && snd.Step < S {
			buf[next[snd.Step]] = snd
			next[snd.Step]++
		}
	}
	groups := make([][]Send, S)
	for s := range groups {
		groups[s] = buf[start[s]:start[s+1]:start[s+1]]
	}
	return groups
}

// CSR formats the (C, S, R) triple used throughout the paper's tables.
func (a *Algorithm) CSR() string {
	return fmt.Sprintf("(%d,%d,%d)", a.C, a.Steps(), a.TotalRounds())
}

// Format renders a step-by-step human-readable description.
func (a *Algorithm) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s on %s: S=%d R=%d C=%d k=%d\n",
		a.Name, a.CollKind, a.Topo.Name, a.Steps(), a.TotalRounds(), a.C, a.KSync())
	for s, sends := range a.stepSends() {
		fmt.Fprintf(&b, "  step %d (%d round(s)):\n", s, a.Rounds[s])
		for _, snd := range sends {
			op := "->"
			if snd.Reduce {
				op = "+>"
			}
			fmt.Fprintf(&b, "    c%-3d %d %s %d\n", snd.Chunk, snd.From, op, snd.To)
		}
	}
	return b.String()
}

// Run executes the non-combining run semantics (§3.3) and returns the
// final placement V_S. It does not validate; see Validate.
func (a *Algorithm) Run() collective.Rel {
	v := collective.NewRel(a.G, a.P)
	for c := 0; c < a.G; c++ {
		copy(v[c], a.Coll.Pre[c])
	}
	var arrivals []Send
	for _, sends := range a.stepSends() {
		arrivals = arrivals[:0]
		for _, snd := range sends {
			if snd.Chunk < a.G && v[snd.Chunk][snd.From] {
				arrivals = append(arrivals, snd)
			}
		}
		for _, snd := range arrivals {
			v[snd.Chunk][snd.To] = true
		}
	}
	return v
}

package algorithm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/topology"
)

// referenceValidate is Validate as first written: HasEdge per send, a
// SendsAtStep scan per step and a fresh link set per (step, relation). It
// is quadratic, but it follows the definition line by line, so Validate
// must agree with it, error text included, on every input.
func referenceValidate(a *Algorithm) error {
	if a.Coll == nil || a.Topo == nil {
		return fmt.Errorf("algorithm %q: missing collective or topology", a.Name)
	}
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
		if !a.Topo.HasEdge(snd.From, snd.To) {
			return fmt.Errorf("algorithm %q: send %v uses missing link", a.Name, snd)
		}
	}
	for s := 0; s < S; s++ {
		for ri, rel := range a.Topo.Relations {
			inRel := map[topology.Link]bool{}
			for _, l := range rel.Links {
				inRel[l] = true
			}
			count := 0
			for _, snd := range a.SendsAtStep(s) {
				if inRel[topology.Link{Src: snd.From, Dst: snd.To}] {
					count++
				}
			}
			if count > rel.Bandwidth*a.Rounds[s] {
				return fmt.Errorf("algorithm %q: step %d exceeds relation %d bandwidth: %d sends > %d*%d",
					a.Name, s, ri, count, rel.Bandwidth, a.Rounds[s])
			}
		}
	}
	if !a.Coll.Kind.IsCombining() {
		have := make([][]bool, a.G)
		for c := range have {
			have[c] = append([]bool(nil), a.Coll.Pre[c]...)
		}
		for s := 0; s < S; s++ {
			sends := a.SendsAtStep(s)
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
	full := (uint64(1) << uint(a.P)) - 1
	contrib := make([][]uint64, a.G)
	for c := range contrib {
		contrib[c] = make([]uint64, a.P)
		for n := 0; n < a.P; n++ {
			if a.Coll.Pre[c][n] {
				contrib[c][n] = 1 << uint(n)
			}
		}
	}
	for s := 0; s < S; s++ {
		sends := a.SendsAtStep(s)
		vals := make([]uint64, len(sends))
		for i, snd := range sends {
			if vals[i] = contrib[snd.Chunk][snd.From]; vals[i] == 0 {
				return fmt.Errorf("algorithm %q: %v sends absent chunk", a.Name, snd)
			}
		}
		for i, snd := range sends {
			dst := &contrib[snd.Chunk][snd.To]
			switch {
			case snd.Reduce && *dst&vals[i] != 0:
				return fmt.Errorf("algorithm %q: %v double-counts contributions", a.Name, snd)
			case snd.Reduce:
				*dst |= vals[i]
			case vals[i] != full:
				return fmt.Errorf("algorithm %q: %v copies a partial result (contributions %b)", a.Name, snd, vals[i])
			default:
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

// mutate returns a copy of base with one to three random edits of the
// kinds a wrong model or a corrupted document produces: a send dropped,
// duplicated, moved to another step (in range or not), redirected,
// reversed, re-chunked or flipped between copy and reduce, or a step's
// rounds changed. Edits keep the send order, so steps can interleave.
func mutate(rng *rand.Rand, base *Algorithm) *Algorithm {
	m := *base
	m.Sends = append([]Send(nil), base.Sends...)
	m.Rounds = append([]int(nil), base.Rounds...)
	for edits := 1 + rng.Intn(3); edits > 0 && len(m.Sends) > 0; edits-- {
		i := rng.Intn(len(m.Sends))
		snd := &m.Sends[i]
		switch rng.Intn(8) {
		case 0:
			m.Sends = append(m.Sends[:i], m.Sends[i+1:]...)
		case 1:
			m.Sends = append(m.Sends, *snd)
		case 2:
			snd.Step = rng.Intn(len(m.Rounds)+2) - 1
		case 3:
			snd.To = topology.Node(rng.Intn(m.P))
		case 4:
			snd.From, snd.To = snd.To, snd.From
		case 5:
			snd.Chunk = rng.Intn(m.G+2) - 1
		case 6:
			snd.Reduce = !snd.Reduce
		case 7:
			m.Rounds[rng.Intn(len(m.Rounds))] = rng.Intn(3)
		}
	}
	return &m
}

// TestValidateMatchesReference judges Validate against referenceValidate
// on six schedules and 399 seeded mutations of each: copy and combining
// collectives, a ring under a bus relation its Allgather exactly fills
// and that lists one link twice, and a ring with a link banned by a
// zero-bandwidth relation.
func TestValidateMatchesReference(t *testing.T) {
	fig2 := figure2Allgather(t)
	rs, err := Invert(fig2)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := ComposeAllreduce(rs, fig2)
	if err != nil {
		t.Fatal(err)
	}
	ring := ringAllgather(t, 5)
	bus := topology.Ring(5)
	var all []topology.Link
	for _, r := range bus.Relations {
		all = append(all, r.Links...)
	}
	bus.Relations = append(bus.Relations, topology.Relation{Links: append(all, all[0]), Bandwidth: 5})
	banned := topology.Ring(5)
	banned.Relations = append(banned.Relations, topology.Relation{Links: []topology.Link{{Src: 0, Dst: 1}}, Bandwidth: 0})
	cases := []struct {
		alg   *Algorithm
		valid bool
	}{
		{fig2, true},
		{rs, true},
		{ar, true},
		{ring, true},
		{New("ring-allgather-bus", ring.Coll, bus, ring.Rounds, ring.Sends), true},
		{New("ring-allgather-banned", ring.Coll, banned, ring.Rounds, ring.Sends), false},
	}
	rng := rand.New(rand.NewSource(1))
	for _, tc := range cases {
		if err := tc.alg.Validate(); (err == nil) != tc.valid {
			t.Fatalf("%s: Validate = %v, want valid = %v", tc.alg.Name, err, tc.valid)
		}
		for i := 0; i < 400; i++ {
			a := tc.alg
			if i > 0 {
				a = mutate(rng, tc.alg)
			}
			if got, want := fmt.Sprint(a.Validate()), fmt.Sprint(referenceValidate(a)); got != want {
				t.Fatalf("%s, mutation %d: Validate = %s, reference = %s", tc.alg.Name, i, got, want)
			}
		}
	}
}

// BenchmarkValidate times Validate and the quadratic reference on a
// 64-node ring Allgather: 4 032 sends over 63 steps.
func BenchmarkValidate(b *testing.B) {
	a := ringAllgather(b, 64)
	for _, v := range []struct {
		name string
		fn   func(*Algorithm) error
	}{{"linear", (*Algorithm).Validate}, {"reference", referenceValidate}} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := v.fn(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

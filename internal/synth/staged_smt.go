package synth

import (
	"fmt"
	"strings"

	"repro/internal/smt"
)

// EmitSMTLIB renders the SynColl instance as an SMT-LIB2 (QF_LIA) script
// semantically mirroring constraints C1–C6 of the paper — the exact form
// SCCL hands to Z3. It is an export, not a solve route: `sccl smtlib`
// prints it so the paper's Z3 run can be reproduced by hand, and tests
// discharge it via smt.RunExternal as an oracle for the built-in solver
// when an SMT solver is installed.
//
// The document is produced by the staged emitter in bound mode (Stage 2
// flattened: C2 and C6 asserted inline); see StagedEncoder and
// smtStageSink. The emission is byte-for-byte the historical one-shot
// script (pinned by TestStagedEncoderGoldens).
func EmitSMTLIB(in Instance) (*smt.Script, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	enc := NewStagedEncoder(EncodePlan{
		Coll:    in.Coll,
		Topo:    in.Topo,
		Window:  in.Steps,
		RoundHi: in.Round - in.Steps + 1,
		Budget:  &BudgetSpec{Steps: in.Steps, Rounds: in.Round},
	})
	sink := newSMTStageSink(enc)
	enc.Emit(sink)
	return sink.script, nil
}

// smtStageSink lowers the staged constraint stream into an SMT-LIB2
// (QF_LIA) script — the exact form SCCL hands to Z3. Unlike the CDCL
// sink it emits the paper's constraints C1–C6 verbatim (no pruning, no
// minimality or symmetry refinements: external solvers take the pure
// encoding), only ever in bound mode (EmitSMTLIB is its one caller), and
// the document's assertion order is fixed by SMT-LIB convention rather
// than the walk order. The sink therefore buffers each constraint family
// as ops arrive and assembles the canonical document in Finish:
// declarations (times, sends, rounds, with their bound assertions), then
// C1, C2, C3, C4, C5, C6.
type smtStageSink struct {
	e      *StagedEncoder
	script *smt.Script
	c1, c2 []string
	c3, c4 []string
	c5, c6 []string
}

func newSMTStageSink(e *StagedEncoder) *smtStageSink {
	return &smtStageSink{e: e, script: smt.NewScript()}
}

func smtTimeName(c, n int) string { return fmt.Sprintf("time_c%d_n%d", c, n) }
func smtSndName(c, src, dst int) string {
	return fmt.Sprintf("snd_n%d_c%d_n%d", src, c, dst)
}
func smtRName(s int) string { return fmt.Sprintf("r_%d", s) }

// TimeVar declares time(c, n) over [0, Window+1] and buffers C1 (pre
// nodes at time 0) and C2 (post arrival within S).
func (k *smtStageSink) TimeVar(c, n int) bool {
	coll := k.e.Plan.Coll
	k.script.DeclareInt(smtTimeName(c, n), 0, k.e.Plan.Window+1)
	if coll.Pre[c][n] {
		k.c1 = append(k.c1, fmt.Sprintf("(= %s 0)", smtTimeName(c, n)))
	}
	if coll.Post[c][n] {
		k.c2 = append(k.c2, fmt.Sprintf("(<= %s %d)", smtTimeName(c, n), k.e.Plan.Budget.Steps))
	}
	return true
}

// OrderSymmetric and Minimality are CDCL-only refinements; the SMT
// emission is the paper's constraint system unmodified.
func (k *smtStageSink) OrderSymmetric(group []int, w int) {}
func (k *smtStageSink) Minimality(c int)                  {}
func (k *smtStageSink) NodeSymmetry(plan *nodeSymPlan)    {}

// SendVar declares snd(c, edge); the SMT emission keeps every candidate
// send (the external solver does its own pruning).
func (k *smtStageSink) SendVar(c, ei int) {
	l := k.e.Template.Edges[ei]
	k.script.DeclareBool(smtSndName(c, int(l.Src), int(l.Dst)))
}

// RoundVar declares r_s over the plan's round domain.
func (k *smtStageSink) RoundVar(s int) {
	k.script.DeclareInt(smtRName(s), 1, k.e.Plan.RoundHi)
}

// RoundTotal buffers C6.
func (k *smtStageSink) RoundTotal() {
	S := k.e.Plan.Budget.Steps
	terms := make([]string, S)
	for s := 0; s < S; s++ {
		terms[s] = smtRName(s)
	}
	if len(terms) == 1 {
		k.c6 = append(k.c6, fmt.Sprintf("(= %s %d)", terms[0], k.e.Plan.Budget.Rounds))
	} else {
		k.c6 = append(k.c6, fmt.Sprintf("(= (+ %s) %d)", strings.Join(terms, " "), k.e.Plan.Budget.Rounds))
	}
}

// Receive buffers C3 for the non-pre (c, n): arrival within the window
// implies exactly one incoming send, and never more than one.
func (k *smtStageSink) Receive(c, n int) bool {
	B := k.e.Plan.Window
	var terms []string
	for _, l := range k.e.Template.Edges {
		if int(l.Dst) == n {
			terms = append(terms, fmt.Sprintf("(ite %s 1 0)", smtSndName(c, int(l.Src), n)))
		}
	}
	if len(terms) == 0 {
		k.c3 = append(k.c3, fmt.Sprintf("(= %s %d)", smtTimeName(c, n), B+1))
		return true
	}
	sum := terms[0]
	if len(terms) > 1 {
		sum = "(+ " + strings.Join(terms, " ") + ")"
	}
	k.c3 = append(k.c3,
		fmt.Sprintf("(=> (<= %s %d) (= %s 1))", smtTimeName(c, n), B, sum),
		fmt.Sprintf("(<= %s 1)", sum))
	return true
}

// Causality buffers C4: snd -> time(src) < time(dst), with arrival
// bounded by the window.
func (k *smtStageSink) Causality(c, ei int) {
	l := k.e.Template.Edges[ei]
	snd := smtSndName(c, int(l.Src), int(l.Dst))
	k.c4 = append(k.c4,
		fmt.Sprintf("(=> %s (< %s %s))", snd, smtTimeName(c, int(l.Src)), smtTimeName(c, int(l.Dst))),
		fmt.Sprintf("(=> %s (<= %s %d))", snd, smtTimeName(c, int(l.Dst)), k.e.Plan.Window))
}

// Bandwidth buffers C5 for (step s, relation ri).
func (k *smtStageSink) Bandwidth(s, ri int) {
	rel := k.e.Plan.Topo.Relations[ri]
	G := k.e.Plan.Coll.G
	var terms []string
	for _, l := range rel.Links {
		for c := 0; c < G; c++ {
			terms = append(terms, fmt.Sprintf("(ite (and %s (= %s %d)) 1 0)",
				smtSndName(c, int(l.Src), int(l.Dst)), smtTimeName(c, int(l.Dst)), s))
		}
	}
	if len(terms) == 0 {
		return
	}
	sum := terms[0]
	if len(terms) > 1 {
		sum = "(+ " + strings.Join(terms, " ") + ")"
	}
	k.c5 = append(k.c5, fmt.Sprintf("(<= %s (* %d %s))", sum, rel.Bandwidth, smtRName(s-1)))
}

// Finish assembles the buffered assertion groups in the canonical
// document order.
func (k *smtStageSink) Finish() {
	for _, group := range [][]string{k.c1, k.c2, k.c3, k.c4, k.c5, k.c6} {
		for _, a := range group {
			k.script.Assert(a)
		}
	}
}

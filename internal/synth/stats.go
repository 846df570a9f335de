package synth

import "repro/internal/sat"

// ProbeStats is the one record of what probes cost and which paths
// answered them. A Result carries one probe's; ParetoStats and the
// engine's CacheStats embed sums of many, folded with Add. A counter is
// declared here and nowhere else.
type ProbeStats struct {
	// Stats is the solver's search work: for a session probe its share of
	// the long-lived solver's, for a quotient fallback or a canonical
	// witness re-solve every solve the answer took.
	sat.Stats
	// Vars and Clauses size the formula the answer came from.
	Vars    int
	Clauses int
	// SessionProbes counts probes discharged as assumption-selected
	// projections of a shared per-topology mega-base (see MegaSession)
	// instead of a one-shot solve; SessionReuses counts the ones whose
	// base was already built, so learnt clauses and heuristic state
	// carried into them.
	SessionProbes int
	SessionReuses int
	// CarriedLearnts sums the learnt clauses alive in the session solver
	// when each session probe began: the knowledge one-shot solving would
	// have discarded.
	CarriedLearnts int64
	// CoreSolves counts Unsat probes whose final-conflict analysis
	// produced a usable budget core (see BudgetCore); PrunedProbes counts
	// candidates the scheduler answered as synthetic Unsat results
	// because an earlier core dominated their budget — probes no solver
	// call was paid for. The Pareto scheduler sets both; a single probe
	// reports 0.
	CoreSolves   int
	PrunedProbes int
	// TemplateHits counts encodes that reused a shared Stage-0 routing
	// template (see Stage0Template) instead of deriving their own.
	TemplateHits int
	// MegaEncodes counts mega-base formula constructions (1 for the probe
	// that built the shared base).
	MegaEncodes int
	// SymmetryPerms counts the automorphism generators whose guarded
	// equivariance restrictions the encodes emitted (0 with node symmetry
	// off, below the size threshold, or when no generator stabilizes the
	// instance; see nodesym.go).
	SymmetryPerms int
	// QuotientProbes counts probes answered Sat from a chunk-orbit
	// quotient formula (a lifted, re-validated witness; see quotient.go);
	// QuotientFallbacks counts quotient attempts abandoned for the full
	// formula (restricted Unsat, conflict-cap exhaustion or a declined
	// plan proves nothing about the instance); QuotientDeclined counts
	// encodes that were asked to quotient but structurally cannot
	// (mega-bases never do).
	QuotientProbes    int
	QuotientFallbacks int
	QuotientDeclined  int
}

// Add folds o into s. Every field sums except the solver's MaxLBD, a
// high-water mark, which keeps the larger value.
func (s *ProbeStats) Add(o ProbeStats) {
	s.Decisions += o.Decisions
	s.Propagations += o.Propagations
	s.Conflicts += o.Conflicts
	s.Restarts += o.Restarts
	s.Learnt += o.Learnt
	s.Removed += o.Removed
	s.MaxLBD = max(s.MaxLBD, o.MaxLBD)
	s.Vars += o.Vars
	s.Clauses += o.Clauses
	s.SessionProbes += o.SessionProbes
	s.SessionReuses += o.SessionReuses
	s.CarriedLearnts += o.CarriedLearnts
	s.CoreSolves += o.CoreSolves
	s.PrunedProbes += o.PrunedProbes
	s.TemplateHits += o.TemplateHits
	s.MegaEncodes += o.MegaEncodes
	s.SymmetryPerms += o.SymmetryPerms
	s.QuotientProbes += o.QuotientProbes
	s.QuotientFallbacks += o.QuotientFallbacks
	s.QuotientDeclined += o.QuotientDeclined
}

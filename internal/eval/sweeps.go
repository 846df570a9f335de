package eval

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/collective"
	"repro/internal/synth"
	"repro/internal/topology"
)

// SweepSpec names one Pareto sweep of the session benchmark: the
// comparison of the all-one-shot reference (NoSessions) with the default
// path (one-shot until the sweep adopts the shared mega-base) that tracks
// the synthesizer's hot path over time. Both cmd/scclbench -sweeps and the top-level BenchmarkSessionSweeps
// run the same specs so the BENCH_*.json rows are comparable across
// entry points.
type SweepSpec struct {
	Name      string
	Kind      collective.Kind
	Topo      *topology.Topology
	Root      topology.Node
	K         int
	MaxSteps  int
	MaxChunks int
	// Symmetry marks a node-orbit symmetry spec: the runner emits a
	// symmetry-off row and a symmetry-on row (both fresh, sessions on,
	// same worker count), so the benchmark tracks the automorphism
	// equivariance solve-wall win on large fabrics against its own-run
	// baseline. The paired frontiers must agree on every (C, S, R) point —
	// the phased solve never lets an answer depend on the restriction —
	// which the runner enforces.
	Symmetry bool
	// Quotient marks a chunk-orbit quotient spec: the runner emits a
	// quotient-off row and a quotient-on row (both fresh, sessions and
	// symmetry on, same worker count), so the benchmark tracks the
	// orbit-collapsed encode+solve win against its own-run baseline. The
	// paired frontiers must agree on every (C, S, R) point — the quotient
	// only answers when its answer is genuine — which the runner enforces.
	Quotient bool
}

// SessionSweeps returns the default benchmark sweep suite. The bidir-ring
// Broadcast sweep is the headline case — its per-step Unsat chains adopt
// the mega-base early, so carried learnt clauses and core pruning cut the
// solve wall — while the unidirectional ring shows the shared-base encode
// win and the DGX-1 sweep guards against regression on sparse probe
// streams (every probe Sat on first try: the sweep never adopts).
func SessionSweeps() []SweepSpec {
	return []SweepSpec{
		{Name: "bidir-ring10-broadcast-k3", Kind: collective.Broadcast, Topo: topology.BidirRing(10), K: 3, MaxSteps: 7, MaxChunks: 12},
		{Name: "ring10-broadcast-k2", Kind: collective.Broadcast, Topo: topology.Ring(10), K: 2, MaxSteps: 12, MaxChunks: 18},
		{Name: "dgx1-allgather-k2", Kind: collective.Allgather, Topo: topology.DGX1(), K: 2, MaxSteps: 7, MaxChunks: 16},
		// The node-symmetry benchmarks: fabric-scale sweeps whose budgets are
		// chosen so every enumerated candidate is tractable symmetry-off and
		// the frontier Sat probe collapses under the equivariance
		// restriction. On torus:6x6 (36 nodes) the bandwidth bound (35/4)
		// leaves (8,9) as the only candidate — Sat, found restricted in a few
		// hundred conflicts against several seconds unrestricted. On the
		// 32-GPU machine ring of four DGX-1s the K=0 ladder probes (6,6)
		// (Unsat; the capped restricted phase's purge leaves the unrestricted
		// proof faster than a fresh one) and (7,7) (Sat; a machine-rotation-
		// equivariant witness exists and the restricted search lands on it
		// ~5x faster than the unrestricted one).
		{Name: "torus6x6-allgather-sym", Kind: collective.Allgather, Topo: topology.Torus2D(6, 6), K: 1, MaxSteps: 8, MaxChunks: 1, Symmetry: true},
		{Name: "dgx1x4ring-allgather-sym", Kind: collective.Allgather, Topo: mustMultiNode(topology.DGX1(), 4, 2, 2), K: 0, MaxSteps: 7, MaxChunks: 1, Symmetry: true},
		// The quotient benchmark: the torus sweep again, quotient-off vs
		// quotient-on (symmetry on for both — the pair isolates the orbit
		// collapse, not the equivariance restriction). The torus
		// translations act transitively on Allgather's 36 chunks, so the
		// quotient base carries one representative's Stage-1 variables
		// instead of 36 and the Sat probe solves the collapsed formula.
		{Name: "torus6x6-allgather-quot", Kind: collective.Allgather, Topo: topology.Torus2D(6, 6), K: 1, MaxSteps: 8, MaxChunks: 1, Quotient: true},
	}
}

// mustMultiNode builds a MultiNode fabric for the fixed sweep table;
// the arguments are compile-time constants, so a failure is a
// programming error.
func mustMultiNode(base *topology.Topology, count, nics, nicBW int) *topology.Topology {
	t, err := topology.MultiNode(base, count, nics, nicBW)
	if err != nil {
		panic(err)
	}
	return t
}

// SweepPoint is one frontier budget in a benchmark row.
type SweepPoint struct {
	C int `json:"c"`
	S int `json:"s"`
	R int `json:"r"`
}

// SweepRow is one machine-readable BENCH_*.json row: a sweep identity,
// its frontier, and the scheduler/session counters needed to track the
// performance trajectory (probes, encode+solve wall, session hits).
type SweepRow struct {
	Topology       string       `json:"topology"`
	Collective     string       `json:"collective"`
	Backend        string       `json:"backend"`
	K              int          `json:"k"`
	MaxSteps       int          `json:"maxSteps"`
	MaxChunks      int          `json:"maxChunks"`
	Workers        int          `json:"workers"`
	Sessions       bool         `json:"sessions"`
	Points         []SweepPoint `json:"points"`
	Probes         int          `json:"probes"`
	Pruned         int          `json:"pruned"`
	Families       int          `json:"families"`
	SessionProbes  int          `json:"sessionProbes"`
	SessionReuses  int          `json:"sessionReuses"`
	CarriedLearnts int64        `json:"carriedLearnts"`
	// CoreSolves and PrunedProbes track unsat-core budget pruning: probes
	// whose final conflict yielded a core, and candidates those cores let
	// the scheduler answer without solving.
	CoreSolves   int `json:"coreSolves"`
	PrunedProbes int `json:"prunedProbes"`
	// TemplateHits counts encodes that shared a Stage-0 routing template
	// across families.
	TemplateHits int `json:"templateHits"`
	// MegaEncodes counts the shared mega-base Stage-1 encodes the sweep
	// paid: 1 when it adopted the base, 0 when it stayed one-shot.
	MegaEncodes int `json:"megaEncodes"`
	// Symmetry records whether node-orbit symmetry exploitation was active
	// for the run; SymmetryPerms counts the automorphism generators whose
	// equivariance restrictions the run's base encodes emitted (0 below
	// the node threshold even with Symmetry true).
	Symmetry      bool `json:"symmetry"`
	SymmetryPerms int  `json:"symmetryPerms"`
	// Quotient records whether the chunk-orbit quotient encoding was
	// active for the run; QuotientProbes counts probes answered Sat from
	// a quotient base, QuotientFallbacks the quotient attempts that fell
	// through to the full formula.
	Quotient          bool  `json:"quotient"`
	QuotientProbes    int   `json:"quotientProbes"`
	QuotientFallbacks int   `json:"quotientFallbacks"`
	EncodeWallNs      int64 `json:"encodeWallNs"`
	SolveWallNs       int64 `json:"solveWallNs"`
	WallNs            int64 `json:"wallNs"`
}

// RunSweep executes one spec with sessions on or off and renders its
// row. backend selects the solver backend for every probe; nil uses the
// built-in CDCL solver. symmetry enables node-orbit symmetry breaking
// (inert below the node threshold); quotient enables the chunk-orbit
// quotient encoding (inert when the symmetry group leaves every orbit a
// singleton).
func RunSweep(spec SweepSpec, backend synth.Backend, sessions, symmetry, quotient bool, workers int, timeout time.Duration) (SweepRow, error) {
	inst := synth.Options{Timeout: timeout, Backend: backend, NoSymmetryBreaking: !symmetry, NoQuotient: !quotient}
	var stats synth.ParetoStats
	pts, err := synth.ParetoSynthesize(spec.Kind, spec.Topo, spec.Root, synth.ParetoOptions{
		K: spec.K, MaxSteps: spec.MaxSteps, MaxChunks: spec.MaxChunks,
		Workers: workers, Stats: &stats, NoSessions: !sessions,
		Instance: inst,
	})
	if err != nil {
		return SweepRow{}, fmt.Errorf("eval: sweep %s (sessions=%v): %w", spec.Name, sessions, err)
	}
	backendName := "cdcl"
	if backend != nil {
		backendName = backend.Name()
	}
	row := SweepRow{
		Topology:   spec.Topo.Name,
		Collective: spec.Kind.String(),
		Backend:    backendName,
		K:          spec.K, MaxSteps: spec.MaxSteps, MaxChunks: spec.MaxChunks,
		Workers:           workers,
		Sessions:          sessions,
		Symmetry:          symmetry,
		SymmetryPerms:     stats.SymmetryPerms,
		Quotient:          quotient,
		QuotientProbes:    stats.QuotientProbes,
		QuotientFallbacks: stats.QuotientFallbacks,
		Probes:            stats.Probes,
		Pruned:            stats.Pruned,
		Families:          stats.Families,
		SessionProbes:     stats.SessionProbes,
		SessionReuses:     stats.SessionReuses,
		CarriedLearnts:    stats.CarriedLearnts,
		CoreSolves:        stats.CoreSolves,
		PrunedProbes:      stats.PrunedProbes,
		TemplateHits:      stats.TemplateHits,
		MegaEncodes:       stats.MegaEncodes,
		EncodeWallNs:      int64(stats.EncodeTime),
		SolveWallNs:       int64(stats.SolveTime),
		WallNs:            int64(stats.Wall),
	}
	for _, p := range pts {
		row.Points = append(row.Points, SweepPoint{C: p.C, S: p.S, R: p.R})
	}
	return row, nil
}

// RunSessionSweeps runs every spec's comparison pair and returns the
// rows; progress (if non-nil) receives a line per run. Plain specs run
// one-shot then sessions; symmetry and quotient specs run their off/on
// pairs (see SweepSpec).
func RunSessionSweeps(specs []SweepSpec, backend synth.Backend, workers int, timeout time.Duration, progress func(format string, args ...any)) ([]SweepRow, error) {
	if progress == nil {
		progress = func(string, ...any) {}
	}
	var rows []SweepRow
	for _, spec := range specs {
		type run struct{ sessions, symmetry, quotient bool }
		runs := []run{{false, true, true}, {true, true, true}}
		if spec.Symmetry {
			// Node-symmetry pair: off then on, both fresh with sessions, so
			// the gate compares the equivariance win within one process.
			// Quotienting stays off for both — it needs the symmetry plan the
			// off row disables, and the pair isolates the restriction alone.
			runs = []run{{true, false, false}, {true, true, false}}
		}
		if spec.Quotient {
			// Quotient pair: off then on, both fresh with sessions and
			// symmetry, so the gate compares the orbit-collapse win within
			// one process.
			runs = []run{{true, true, false}, {true, true, true}}
		}
		var pair []SweepRow
		for _, r := range runs {
			row, err := RunSweep(spec, backend, r.sessions, r.symmetry, r.quotient, workers, timeout)
			if err != nil {
				return rows, err
			}
			progress("sweep %-28s sessions=%-5v symmetry=%-5v quotient=%-5v probes=%-3d pruned=%-3d families=%-2d reuses=%-3d perms=%-2d qprobes=%-2d encode=%.3fs solve=%.3fs wall=%.3fs",
				spec.Name, r.sessions, r.symmetry, r.quotient, row.Probes, row.PrunedProbes, row.Families, row.SessionReuses, row.SymmetryPerms, row.QuotientProbes,
				time.Duration(row.EncodeWallNs).Seconds(), time.Duration(row.SolveWallNs).Seconds(),
				time.Duration(row.WallNs).Seconds())
			rows = append(rows, row)
			pair = append(pair, row)
		}
		if spec.Symmetry {
			// Cost parity: breaking is satisfiability-preserving, so the
			// paired frontiers must agree on every (C, S, R) point. A
			// divergence is a soundness bug, not a perf regression — fail
			// the run outright rather than letting a gate read a wall off a
			// wrong frontier.
			if !reflect.DeepEqual(pair[0].Points, pair[1].Points) {
				return rows, fmt.Errorf("eval: sweep %s: symmetry-on frontier %v differs from symmetry-off %v",
					spec.Name, pair[1].Points, pair[0].Points)
			}
		}
		if spec.Quotient {
			// Same contract for the quotient: answers never depend on it
			// (Sat lifts re-validate, everything else falls back), so a
			// frontier divergence is a soundness bug.
			if !reflect.DeepEqual(pair[0].Points, pair[1].Points) {
				return rows, fmt.Errorf("eval: sweep %s: quotient-on frontier %v differs from quotient-off %v",
					spec.Name, pair[1].Points, pair[0].Points)
			}
		}
	}
	return rows, nil
}

// BenchDirEnv names the environment variable that redirects relative
// BENCH_*.json paths into a dedicated output directory, so `go test
// ./...` in a dirty worktree (and CI) stops dropping artifacts into the
// repository root. Unset, rows land in the current directory as before.
const BenchDirEnv = "SCCL_BENCH_DIR"

// WriteBenchJSON writes rows (any JSON-marshalable slice) as an indented
// array — the BENCH_*.json artifact format the CI benchmark smoke step
// uploads. Shared by the sweep suite and scclbench's table rows. Relative
// paths are redirected under $SCCL_BENCH_DIR when it is set (the
// directory is created as needed).
func WriteBenchJSON(path string, rows any) error {
	if dir := os.Getenv(BenchDirEnv); dir != "" && !filepath.IsAbs(path) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		path = filepath.Join(dir, path)
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

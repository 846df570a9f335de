package sccl

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/collective"
	"repro/internal/synth"
)

// EngineOptions configures a synthesis Engine.
type EngineOptions struct {
	// Workers sizes the worker pool used by SynthesizeAll and as the
	// default Pareto probe concurrency; values < 1 select the number of
	// CPUs.
	Workers int
	// Progress, if non-nil, receives engine and probe progress lines.
	// Calls are serialized, so the sink never runs concurrently with
	// itself.
	Progress func(format string, args ...any)
	// Timeout is the default per-request solver timeout (0 = none).
	Timeout time.Duration
	// CacheSize caps the number of cached algorithm entries: 0 selects
	// the default (4096), negative is unbounded. Oldest entries are
	// evicted first.
	CacheSize int
	// DisableCache turns the algorithm and frontier caches off entirely.
	DisableCache bool
	// NoSessions disables the engine's pooled mega-base sessions: every
	// Pareto probe then solves one-shot, and exact-budget misses never
	// route through a warm base. Frontiers are byte-identical either way;
	// the pool only changes how fast a sweep discharges its Unsat chains
	// (see synth.ParetoOptions.NoSessions).
	NoSessions bool
	// NoSymmetryBreaking disables node-orbit symmetry exploitation (the
	// guarded automorphism-equivariance restriction emitted on large
	// fabrics; see SynthOptions.NoSymmetryBreaking) for every request the
	// engine runs.
	// Frontier (C, S, R) points are identical either way; witnesses may
	// differ, so the flag IS part of the cache fingerprint.
	NoSymmetryBreaking bool
	// NoQuotient disables the chunk-orbit quotient encoding (emit only
	// orbit-representative variables, lift Sat models back to the full
	// fabric; see SynthOptions.NoQuotient) for every request the engine
	// runs. Frontier (C, S, R) points are identical either way — the
	// quotient only answers when its answer is genuine — but witnesses
	// may differ, so the flag IS part of the cache fingerprint.
	NoQuotient bool
}

const defaultCacheSize = 4096

// maxFrontierEntries bounds the frontier cache; sweeps are few and large
// compared to single algorithms.
const maxFrontierEntries = 256

// cacheEntry is one cached synthesis outcome (Sat or Unsat; Unknown —
// budget exhaustion or cancellation — is never cached).
type cacheEntry struct {
	status   Status
	alg      *Algorithm // nil for Unsat
	kind     string
	topoName string
	root     int
	budget   Budget
}

// entryOf describes a request for its cache entry; the outcome fields
// are filled in once it is answered.
func entryOf(req Request) cacheEntry {
	return cacheEntry{kind: req.Kind.String(), topoName: req.Topo.Name, root: int(req.Root), budget: req.Budget}
}

// Engine is the sessionful entry point to the synthesizer: it owns a
// worker pool, a progress sink, and an in-memory algorithm cache keyed by
// canonical fingerprints of (topology, collective, budget,
// lowering-relevant options). Engines are safe for concurrent use; cached
// algorithms are shared and must be treated as immutable.
//
// Engine.Synthesize, Engine.Pareto and Engine.SynthesizeAll are the
// primary entry points.
type Engine struct {
	workers    int
	timeout    time.Duration
	progress   func(format string, args ...any)
	cacheCap   int
	cacheOff   bool
	noSessions bool
	noSymmetry bool
	noQuotient bool
	// sessions pools per-topology mega-base sessions and Stage-0 templates
	// across Pareto sweeps (nil when sessions are off).
	sessions *synth.SessionPool

	mu            sync.Mutex
	algs          map[string]*cacheEntry
	algOrder      []string
	frontiers     map[string][]ParetoPoint
	frontierOrder []string
	hits, misses  uint64
	// probes sums the probe records of every sweep the engine ran and
	// every request a warm mega-base answered (see CacheStats).
	probes synth.ProbeStats
}

// NewEngine builds an Engine from options; the zero EngineOptions value
// selects one worker per CPU, pooled sessions and a bounded cache.
func NewEngine(opts EngineOptions) *Engine {
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	cacheCap := opts.CacheSize
	if cacheCap == 0 {
		cacheCap = defaultCacheSize
	}
	e := &Engine{
		workers:    workers,
		timeout:    opts.Timeout,
		progress:   synth.SerializedProgress(opts.Progress),
		cacheCap:   cacheCap,
		cacheOff:   opts.DisableCache,
		noSessions: opts.NoSessions,
		algs:       map[string]*cacheEntry{},
		frontiers:  map[string][]ParetoPoint{},
		noSymmetry: opts.NoSymmetryBreaking,
		noQuotient: opts.NoQuotient,
	}
	if !opts.NoSessions {
		e.sessions = synth.NewSessionPool()
	}
	return e
}

// Close releases the engine's pooled solver sessions (and their learned
// state). The engine itself stays usable: later sweeps simply solve
// without cross-sweep session reuse.
func (e *Engine) Close() error {
	if e.sessions == nil {
		return nil
	}
	return e.sessions.Close()
}

// solveOptions merges the engine defaults with a per-request override
// and timeout (request timeout wins over the override's, which wins over
// the engine default).
func (e *Engine) solveOptions(timeout time.Duration, override *SynthOptions) SynthOptions {
	var o SynthOptions
	if override != nil {
		o = *override
	}
	if timeout > 0 {
		o.Timeout = timeout
	} else if o.Timeout == 0 {
		o.Timeout = e.timeout
	}
	if e.noSymmetry {
		o.NoSymmetryBreaking = true
	}
	if e.noQuotient {
		o.NoQuotient = true
	}
	return o
}

func fingerprintKey(parts ...string) string {
	sum := sha256.Sum256([]byte(strings.Join(parts, "|")))
	return hex.EncodeToString(sum[:16])
}

// optionParts renders the lowering-relevant solver options that change
// which algorithm a solve produces. Timeout and conflict budgets are
// excluded: they can only turn an answer into Unknown, and Unknown is
// never cached.
func optionParts(o SynthOptions) []string {
	return []string{
		// There is one encoding. The literal stays because saved
		// libraries and snapshots are keyed by these bytes.
		"enc=0",
		"sym=" + strconv.FormatBool(!o.NoSymmetryBreak),
		"nodesym=" + strconv.FormatBool(!o.NoSymmetryBreaking),
		"quotient=" + strconv.FormatBool(!o.NoQuotient),
		// Every solve runs the built-in CDCL pipeline. The literal stays
		// because saved libraries and snapshots are keyed by these bytes.
		"backend=cdcl",
	}
}

// requestFingerprint is the canonical algorithm-cache key of a request
// under resolved solver options.
func (e *Engine) requestFingerprint(req Request, o SynthOptions) string {
	parts := append([]string{
		"request/v1",
		req.Kind.String(),
		req.Topo.Fingerprint(),
		strconv.Itoa(int(req.Root)),
		req.Budget.String(),
	}, optionParts(o)...)
	return fingerprintKey(parts...)
}

// Fingerprint returns the canonical fingerprint of a request under the
// engine's resolved solver options — the key Engine.Synthesize caches
// its outcome under and Engine.CachedEntry looks up. Serving layers use
// it to coalesce concurrent identical requests and to key response
// caches without solving anything.
func (e *Engine) Fingerprint(req Request) (string, error) {
	if err := req.Validate(); err != nil {
		return "", err
	}
	o := e.solveOptions(req.Timeout, req.Options)
	return e.requestFingerprint(req, o), nil
}

// paretoKey resolves a sweep request's enumeration defaults and solver
// options and returns its canonical frontier-cache fingerprint — shared
// by Engine.Pareto and Engine.ParetoFingerprint so the two can never
// disagree on the key.
func (e *Engine) paretoKey(req ParetoRequest) (fp string, o SynthOptions, maxSteps, maxChunks int) {
	maxSteps = req.MaxSteps
	if maxSteps == 0 {
		maxSteps = req.Topo.P + 2
	}
	maxChunks = req.MaxChunks
	if maxChunks == 0 {
		maxChunks = 2 * req.Topo.P
	}
	o = e.solveOptions(req.Timeout, req.Options)
	parts := append([]string{
		"pareto/v1",
		req.Kind.String(),
		req.Topo.Fingerprint(),
		strconv.Itoa(int(req.Root)),
		strconv.Itoa(req.K),
		strconv.Itoa(maxSteps),
		strconv.Itoa(maxChunks),
	}, optionParts(o)...)
	fp = fingerprintKey(parts...)
	return fp, o, maxSteps, maxChunks
}

// ParetoFingerprint returns the canonical frontier-cache fingerprint of
// a sweep request under the engine's resolved solver options. Workers
// and NoSessions are excluded: they change scheduling, never the
// frontier.
func (e *Engine) ParetoFingerprint(req ParetoRequest) (string, error) {
	if err := req.Validate(); err != nil {
		return "", err
	}
	fp, _, _, _ := e.paretoKey(req)
	return fp, nil
}

// CachedEntry returns the engine's cached outcome for a canonical
// request fingerprint as a library entry, or ok == false when the
// fingerprint is unknown (or the cache is off). The lookup does not
// touch the hit/miss counters — serving layers keep their own — and the
// embedded algorithm is shared with the cache, so it must be treated as
// immutable.
func (e *Engine) CachedEntry(fp string) (LibraryEntry, bool) {
	ent := e.peekAlg(fp)
	if ent == nil {
		return LibraryEntry{}, false
	}
	return LibraryEntry{
		Fingerprint: fp,
		Kind:        ent.kind,
		Topology:    ent.topoName,
		Root:        ent.root,
		Budget:      ent.budget,
		Status:      ent.status.String(),
		Algorithm:   ent.alg,
	}, true
}

func (e *Engine) lookupAlg(key string) *cacheEntry {
	if e.cacheOff {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ent, ok := e.algs[key]
	if ok {
		e.hits++
	} else {
		e.misses++
	}
	return ent
}

// peekAlg is lookupAlg without the hit/miss accounting — for planning
// decisions (e.g. whether a batch group needs solver work at all) that
// must not double-count the lookup answerRequest will do.
func (e *Engine) peekAlg(key string) *cacheEntry {
	if e.cacheOff {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.algs[key]
}

func (e *Engine) storeAlg(key string, ent *cacheEntry) {
	if e.cacheOff {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, exists := e.algs[key]; !exists {
		for e.cacheCap > 0 && len(e.algs) >= e.cacheCap && len(e.algOrder) > 0 {
			oldest := e.algOrder[0]
			e.algOrder = e.algOrder[1:]
			delete(e.algs, oldest)
		}
		e.algOrder = append(e.algOrder, key)
	}
	e.algs[key] = ent
}

func (e *Engine) lookupFrontier(key string) ([]ParetoPoint, bool) {
	if e.cacheOff {
		return nil, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	pts, ok := e.frontiers[key]
	if ok {
		e.hits++
	} else {
		e.misses++
	}
	return pts, ok
}

func (e *Engine) storeFrontier(key string, pts []ParetoPoint) {
	if e.cacheOff {
		return
	}
	// Keep a private copy: the caller owns the slice it was handed.
	pts = append([]ParetoPoint(nil), pts...)
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, exists := e.frontiers[key]; !exists {
		for len(e.frontiers) >= maxFrontierEntries && len(e.frontierOrder) > 0 {
			oldest := e.frontierOrder[0]
			e.frontierOrder = e.frontierOrder[1:]
			delete(e.frontiers, oldest)
		}
		e.frontierOrder = append(e.frontierOrder, key)
	}
	e.frontiers[key] = pts
}

// CacheStats reports the engine cache state and hit counters.
type CacheStats struct {
	// Algorithms is the number of cached synthesis outcomes.
	Algorithms int
	// Frontiers is the number of cached Pareto frontiers.
	Frontiers int
	Hits      uint64
	Misses    uint64
	// MegaSessions is the number of live per-topology mega-base sessions
	// in the pool (see synth.MegaSession).
	MegaSessions int
	// ProbeStats sums the probe records of every sweep the engine ran
	// and every request a warm mega-base answered: solver work, unsat
	// cores and the candidates they pruned, Stage-0 template shares,
	// probes discharged by activation select (SessionProbes) and base
	// formulas built (MegaEncodes).
	ProbeStats
}

// CacheStats returns a snapshot of the cache counters.
func (e *Engine) CacheStats() CacheStats {
	e.mu.Lock()
	cs := CacheStats{
		Algorithms: len(e.algs),
		Frontiers:  len(e.frontiers),
		Hits:       e.hits,
		Misses:     e.misses,
		ProbeStats: e.probes,
	}
	e.mu.Unlock()
	if e.sessions != nil {
		cs.MegaSessions = e.sessions.MegaLen()
	}
	return cs
}

// answerRequest serves one validated request through the algorithm
// cache under its canonical fingerprint fp: a hit returns the stored
// entry with no solver work; otherwise solve runs and any definite
// outcome (Sat or Unsat, never Unknown) is stored under fp with meta's
// description. Synthesize and SynthesizeInstance share it so cache
// semantics cannot diverge.
func (e *Engine) answerRequest(ctx context.Context, fp string, meta cacheEntry, solve func(context.Context) (*Algorithm, Status, error)) (*Result, error) {
	t0 := time.Now()
	if ent := e.lookupAlg(fp); ent != nil {
		e.progress("engine: cache hit %s %s on %s [%s]", meta.kind, meta.budget, meta.topoName, fp)
		return &Result{Algorithm: ent.alg, Status: ent.status, CacheHit: true, Wall: time.Since(t0), Fingerprint: fp}, nil
	}
	alg, status, err := solve(ctx)
	if err != nil {
		return nil, err
	}
	if status != Unknown {
		meta.status, meta.alg = status, alg
		e.storeAlg(fp, &meta)
	}
	return &Result{Algorithm: alg, Status: status, Wall: time.Since(t0), Fingerprint: fp}, nil
}

// Synthesize answers one request: on a cache hit the stored algorithm is
// returned with Result.CacheHit set and no solver work; otherwise the
// instance is solved and the outcome (Sat or Unsat, never Unknown) is
// cached under the request's canonical fingerprint.
func (e *Engine) Synthesize(ctx context.Context, req Request) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	o := e.solveOptions(req.Timeout, req.Options)
	return e.answerRequest(ctx, e.requestFingerprint(req, o), entryOf(req), func(ctx context.Context) (*Algorithm, Status, error) {
		// A warm per-topology mega-base session (left by an earlier sweep
		// or a daemon's WarmMegaBase) answers a covered cache miss by
		// assumption push + solve instead of encode + solve. The lookup
		// never builds: cold topologies stay on the one-shot path.
		if v := e.megaView(req, o); v != nil {
			sres, err := v.Solve(ctx, req.Budget.S, req.Budget.R, o)
			if err == nil {
				e.mu.Lock()
				e.probes.Add(sres.ProbeStats)
				e.mu.Unlock()
				return sres.Algorithm, sres.Status, nil
			}
			// Session route failed (e.g. pool closed mid-flight): fall
			// through to the one-shot path rather than surfacing it.
		}
		return synth.SynthesizeCollectiveContext(ctx, req.Kind, req.Topo, req.Root, req.Budget.C, req.Budget.S, req.Budget.R, o)
	})
}

// megaView resolves a warm (never freshly built) mega-base projection for
// one exact-budget request, or nil when the request cannot route through
// one: combining kinds, no pool, no covering warm session, or an
// unmappable family.
func (e *Engine) megaView(req Request, o SynthOptions) *synth.MegaFamilyView {
	if e.sessions == nil || req.Kind.IsCombining() {
		return nil
	}
	k := req.Budget.R - req.Budget.S
	mega := e.sessions.Mega(req.Topo, req.Root, o, []collective.Kind{req.Kind}, req.Budget.C, req.Budget.S, k, false)
	if mega == nil {
		return nil
	}
	coll, err := collective.New(req.Kind, req.Topo.P, req.Budget.C, req.Root)
	if err != nil {
		return nil
	}
	return mega.View(coll)
}

// SynthesizeInstance answers one raw SynColl instance (non-combining
// only; custom collectives go through here). opts overrides the engine
// solver options; nil uses the engine defaults. Instances are cached by
// the structural fingerprint of their collective and topology.
func (e *Engine) SynthesizeInstance(ctx context.Context, in Instance, opts *SynthOptions) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	o := e.solveOptions(0, opts)
	parts := append([]string{
		"instance/v1",
		in.Coll.Fingerprint(),
		in.Topo.Fingerprint(),
		strconv.Itoa(in.Steps),
		strconv.Itoa(in.Round),
	}, optionParts(o)...)
	meta := cacheEntry{
		kind: in.Coll.Kind.String(), topoName: in.Topo.Name, root: int(in.Coll.Root),
		budget: Budget{C: in.Coll.C, S: in.Steps, R: in.Round},
	}
	return e.answerRequest(ctx, fingerprintKey(parts...), meta, func(ctx context.Context) (*Algorithm, Status, error) {
		res, err := synth.SynthesizeContext(ctx, in, o)
		return res.Algorithm, res.Status, err
	})
}

// Pareto runs the paper's Algorithm 1 sweep for a non-combining
// collective. Frontiers cache whole; a successful sweep additionally
// seeds the algorithm cache with every frontier point, so later exact
// (C, S, R) requests for those budgets are served without re-solving.
// The frontier is identical for every worker count. On a sweep error the
// returned result carries the points merged so far alongside the error.
func (e *Engine) Pareto(ctx context.Context, req ParetoRequest) (*ParetoResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	t0 := time.Now()
	if err := req.Validate(); err != nil {
		return nil, err
	}
	fp, o, maxSteps, maxChunks := e.paretoKey(req)
	if pts, ok := e.lookupFrontier(fp); ok {
		e.progress("engine: frontier cache hit %v on %s [%s]", req.Kind, req.Topo.Name, fp)
		// Return a copied slice so callers cannot corrupt the cached
		// frontier; the algorithms themselves are shared and immutable.
		return &ParetoResult{
			Points:   append([]ParetoPoint(nil), pts...),
			CacheHit: true, Wall: time.Since(t0), Fingerprint: fp,
		}, nil
	}
	workers := req.Workers
	if workers < 1 {
		workers = e.workers
	}
	progress := req.Progress
	if progress == nil {
		progress = e.progress
	}
	// Route the sweep through the engine's persistent pool so a mega-base
	// one sweep adopts (or a daemon warmed) serves the next from its first
	// probe.
	noSessions := req.NoSessions || e.noSessions
	pool := e.sessions
	if noSessions {
		pool = nil
	}
	var stats ParetoStats
	pts, err := synth.ParetoSynthesize(req.Kind, req.Topo, req.Root, synth.ParetoOptions{
		K: req.K, MaxSteps: maxSteps, MaxChunks: maxChunks,
		Instance: o, Progress: progress, Workers: workers,
		Context: ctx, Stats: &stats,
		NoSessions: noSessions, Pool: pool,
	})
	e.mu.Lock()
	e.probes.Add(stats.ProbeStats)
	e.mu.Unlock()
	res := &ParetoResult{Points: pts, Stats: stats, Wall: time.Since(t0), Fingerprint: fp}
	if err != nil {
		return res, err
	}
	e.storeFrontier(fp, pts)
	for _, p := range pts {
		preq := Request{Kind: req.Kind, Topo: req.Topo, Root: req.Root, Budget: Budget{C: p.C, S: p.S, R: p.R}}
		ent := entryOf(preq)
		ent.status, ent.alg = Sat, p.Algorithm
		e.storeAlg(e.requestFingerprint(preq, o), &ent)
	}
	return res, nil
}

// WarmMegaBase builds (or grows) and eagerly encodes the engine's pooled
// per-topology mega-base session, sized to cover budgets up to maxChunks
// chunks, maxSteps steps and R - S <= k. A serving layer calls it in the
// background once a topology's miss traffic proves hot, so later cache
// misses pay assumption-push + solve instead of encode + solve (see
// synth.MegaSession). It reports whether a live covering session is now
// warm; false means the configuration cannot host one (no pool, oversized
// chunk universe, infeasible base) and misses stay on the one-shot path.
func (e *Engine) WarmMegaBase(topo *Topology, root Node, maxChunks, maxSteps, k int) bool {
	if e.sessions == nil || topo == nil {
		return false
	}
	// nil kind scope: a daemon warms for whatever kinds traffic may ask,
	// so the universe spans every non-combining kind.
	o := e.solveOptions(0, nil)
	mega := e.sessions.Mega(topo, root, o, nil, maxChunks, maxSteps, k, true)
	if mega == nil {
		return false
	}
	live, encode := mega.Prepare()
	if encode > 0 {
		e.mu.Lock()
		e.probes.MegaEncodes++
		e.mu.Unlock()
		e.progress("engine: mega-base for %s warmed in %v (C<=%d S<=%d K<=%d)",
			topo.Name, encode, maxChunks, maxSteps, k)
	}
	return live
}

// batchGroup is one coalesced fingerprint group of a SynthesizeAll
// batch: the first request index solves, the rest fan out.
type batchGroup struct {
	first int
	rest  []int
}

// SynthesizeAll answers a batch of requests concurrently over the
// engine's worker pool. Results come back in request order regardless of
// completion order; duplicate requests (same canonical fingerprint) are
// solved once and fanned out as cache hits. Every group goes through
// Engine.Synthesize, so budgets a warm mega-base covers are answered by
// assumption push like any other miss. Failed requests leave a nil slot;
// the returned error joins every per-request failure.
func (e *Engine) SynthesizeAll(ctx context.Context, reqs []Request) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]*Result, len(reqs))
	errs := make([]error, len(reqs))
	groups := map[string]*batchGroup{}
	var order []string
	for i := range reqs {
		if err := reqs[i].Validate(); err != nil {
			errs[i] = fmt.Errorf("request %d: %w", i, err)
			continue
		}
		o := e.solveOptions(reqs[i].Timeout, reqs[i].Options)
		key := e.requestFingerprint(reqs[i], o)
		if g, ok := groups[key]; ok {
			g.rest = append(g.rest, i)
		} else {
			groups[key] = &batchGroup{first: i}
			order = append(order, key)
		}
	}
	workers := e.workers
	if workers > len(order) {
		workers = len(order)
	}
	if workers < 1 {
		workers = 1
	}
	keyCh := make(chan string)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for key := range keyCh {
				g := groups[key]
				res, err := e.Synthesize(ctx, reqs[g.first])
				if err != nil {
					errs[g.first] = fmt.Errorf("request %d: %w", g.first, err)
					for _, j := range g.rest {
						errs[j] = fmt.Errorf("request %d: %w", j, err)
					}
					continue
				}
				results[g.first] = res
				for _, j := range g.rest {
					if res.Status == Unknown {
						// An Unknown outcome reflects the first request's
						// solver budget, not the group's; duplicates may
						// carry different timeouts, so solve them
						// individually rather than fanning Unknown out.
						results[j], errs[j] = e.Synthesize(ctx, reqs[j])
						if errs[j] != nil {
							errs[j] = fmt.Errorf("request %d: %w", j, errs[j])
						}
						continue
					}
					dup := *res
					dup.CacheHit = true
					results[j] = &dup
				}
			}
		}()
	}
	for _, key := range order {
		keyCh <- key
	}
	close(keyCh)
	wg.Wait()
	return results, errors.Join(errs...)
}

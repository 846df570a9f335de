package serve

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	sccl "repro"
)

// Config parameterizes a Server.
type Config struct {
	// Engine is the long-lived engine the daemon fronts (required). The
	// server owns it from New on: Close and Run shut it down.
	Engine *sccl.Engine
	// LibraryPath, when non-empty, names the on-disk content-addressed
	// library behind the cache: New warm-starts the engine from it (if
	// it exists) and the server snapshots the engine cache back — every
	// SnapshotEvery, and always on shutdown — so a restarted daemon
	// answers previously solved fingerprints without re-solving.
	LibraryPath string
	// SnapshotEvery is the periodic snapshot interval; 0 snapshots only
	// on shutdown.
	SnapshotEvery time.Duration
	// Shards stripes the response cache (< 1 selects 64); CacheEntries
	// caps its total entries (< 1 selects 65536). The table of request-body
	// digests in front of the cache has the same geometry.
	Shards       int
	CacheEntries int
	// SolveSlots caps concurrently running solves (< 1 selects
	// GOMAXPROCS via the admission default of 1 — pass runtime.NumCPU()
	// for a dedicated box); QueuePerFamily caps queued-or-running
	// solves per (collective, topology) family (< 1 selects 16).
	SolveSlots     int
	QueuePerFamily int
	// DrainTimeout bounds how long shutdown waits for in-flight
	// requests before abandoning them (< 1 selects 15s).
	DrainTimeout time.Duration
	// Progress, if non-nil, receives daemon lifecycle lines.
	Progress func(format string, args ...any)
}

// Server is the HTTP synthesis daemon. Create with New, expose with
// Handler (for tests or custom listeners) or Serve/Run (which add the
// snapshot loop and graceful shutdown).
type Server struct {
	cfg     Config
	eng     *sccl.Engine
	cache   *ShardedCache
	aliases *aliasTable
	flights Group
	adm     *Admission
	metrics *Metrics
	mux     *http.ServeMux
	start   time.Time

	// base is the lifetime context solves run under — request contexts
	// would let one impatient client cancel a coalesced solve. Cancelled
	// after drain so abandoned work is reclaimed at shutdown.
	base       context.Context
	baseCancel context.CancelFunc

	// prevHits and prevMisses are the engine cache counters at the
	// previous scrape, behind the windowed hit-ratio gauge.
	prevMu               sync.Mutex
	prevHits, prevMisses uint64

	// warmTopos tracks per-(topology, root) solve streaks behind the
	// mega-base warmer: once a topology has cost megaWarmThreshold real
	// solves, the daemon warms one shared mega-base for it in the
	// background, so later cache misses there pay an assumption push
	// plus a solve instead of a fresh Stage-1 encode.
	warmMu    sync.Mutex
	warmTopos map[string]*warmTopo
	megaWarms atomic.Uint64

	closeOnce sync.Once
	closeErr  error
}

// New builds a Server over cfg.Engine, warm-starting from
// cfg.LibraryPath when the file exists.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("serve: Config.Engine is required")
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 15 * time.Second
	}
	if cfg.Progress == nil {
		cfg.Progress = func(string, ...any) {}
	}
	s := &Server{
		cfg:       cfg,
		eng:       cfg.Engine,
		cache:     NewShardedCache(cfg.Shards, cfg.CacheEntries),
		aliases:   newAliasTable(cfg.Shards, cfg.CacheEntries),
		adm:       NewAdmission(cfg.SolveSlots, cfg.QueuePerFamily),
		metrics:   NewMetrics(),
		mux:       http.NewServeMux(),
		start:     time.Now(),
		warmTopos: make(map[string]*warmTopo),
	}
	s.base, s.baseCancel = context.WithCancel(context.Background())
	if cfg.LibraryPath != "" {
		f, err := os.Open(cfg.LibraryPath)
		switch {
		case os.IsNotExist(err):
			// First boot: the library appears at the first snapshot.
		case err != nil:
			return nil, err
		default:
			n, err := s.eng.LoadLibrary(f)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("serve: library %s: %w", cfg.LibraryPath, err)
			}
			cfg.Progress("serve: warm start — %d library entries from %s", n, cfg.LibraryPath)
		}
	}
	s.mux.HandleFunc("POST /v1/synthesize", s.handleSynthesize)
	s.mux.HandleFunc("POST /v1/pareto", s.handlePareto)
	s.mux.HandleFunc("GET /v1/algorithms/{fingerprint}", s.handleAlgorithm)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// maxBodyBytes bounds request documents; topologies are small, and a
// megabyte of JSON is already an absurd request.
const maxBodyBytes = 1 << 20

// Read deadlines of a daemon connection: a client that has not sent its
// request headers within readHeaderTimeout, or the whole request within
// readTimeout, is disconnected, so a stalled client cannot hold a
// goroutine and a file descriptor forever. readTimeout also bounds an
// idle keep-alive connection (http.Server's IdleTimeout default). There
// is no write deadline, since a response waits on its solve.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
)

// familyKey groups requests into admission families: one family per
// (collective, topology), so a backlog on one family never fills
// another's queue.
func familyKey(kind sccl.Kind, topo *sccl.Topology) string {
	return kind.String() + "|" + topo.Fingerprint()
}

// answer resolves one cacheable request: response-cache hit, or a
// singleflight-coalesced solve with admission inside the flight (a
// thundering herd consumes one queue slot), mapping overload to 429 and
// client disconnects to an abandoned-request count.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, fp, family string, t0 time.Time, fn func(ctx context.Context) ([]byte, error)) {
	if body, ok := s.cache.Get(fp); ok {
		s.metrics.HitLatency.Observe(time.Since(t0))
		s.writeBody(w, fp, "hit", body)
		return
	}
	body, shared, err := s.flights.Do(r.Context(), s.base, fp, func(ctx context.Context) ([]byte, error) {
		tq := time.Now()
		release, err := s.adm.Acquire(ctx, family)
		if err != nil {
			return nil, err
		}
		defer release()
		s.metrics.QueueWait.Observe(time.Since(tq))
		s.metrics.Solves.Add(1)
		ts := time.Now()
		out, err := fn(ctx)
		s.metrics.SolveWall.Observe(time.Since(ts))
		return out, err
	})
	if shared {
		s.metrics.Coalesced.Add(1)
	}
	switch {
	case err == nil:
		source := "miss"
		if shared {
			source = "coalesced"
		}
		s.writeBody(w, fp, source, body)
	case errors.Is(err, ErrOverloaded):
		s.metrics.Overloads.Add(1)
		// Hint a retry after the backlog has had a chance to move: one
		// second per queued solve ahead, capped at a minute.
		after := 1 + s.adm.Depth()/s.adm.Slots()
		if after > 60 {
			after = 60
		}
		w.Header().Set("Retry-After", strconv.Itoa(after))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case r.Context().Err() != nil:
		// The client left; nobody is reading the response. 499 in the
		// nginx tradition, for the access log's benefit.
		s.metrics.Abandoned.Add(1)
		w.WriteHeader(499)
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.Errors.Add(1)
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
	default:
		s.metrics.Errors.Add(1)
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) writeBody(w http.ResponseWriter, fp, source string, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-SCCL-Fingerprint", fp)
	h.Set("X-SCCL-Cache", source)
	w.Write(body)
}

// readRequest reads the request document posted to endpoint and answers
// it if its exact bytes were decoded before and the response is still
// cached: a digest, an alias lookup and a cache lookup, with no decode,
// validation or fingerprint. Otherwise (an unknown document, or a stale
// alias, which also counts one response-cache miss) ok reports that the
// caller must decode data — counted here — and, once the document has
// fingerprinted, record the alias under key.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request, endpoint uint8, t0 time.Time) (data []byte, key aliasKey, ok bool) {
	data, ok = s.readBody(w, r)
	if !ok {
		return nil, key, false
	}
	key = aliasKey{endpoint: endpoint, digest: sha256.Sum256(data)}
	if fp, hit := s.aliases.get(key); hit {
		if body, hit := s.cache.Get(fp); hit {
			s.metrics.HitLatency.Observe(time.Since(t0))
			s.writeBody(w, fp, "hit", body)
			return nil, key, false
		}
	}
	s.metrics.Decodes.Add(1)
	return data, key, true
}

// readBody reads a request document into one buffer sized from
// Content-Length, so the allocations of a hit do not grow with the
// document; a body of unknown length is read incrementally. Either way
// the body is capped at maxBodyBytes.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	var data []byte
	var err error
	switch n := r.ContentLength; {
	case n > maxBodyBytes:
		err = &http.MaxBytesError{Limit: maxBodyBytes}
	case n >= 0:
		data = make([]byte, n)
		_, err = io.ReadFull(r.Body, data)
	default:
		data, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	}
	if err != nil {
		s.metrics.Errors.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return data, true
}

// megaWarmThreshold is how many real solves (response-cache misses that
// reached the engine) a (topology, root) pair accumulates before the
// daemon warms a shared mega-base for it.
const megaWarmThreshold = 3

// megaWarmMaxChunks and megaWarmMaxK clamp the budgets the warmer
// tracks. The mega-base answers sweep-shaped probes — moderate chunk
// counts, small k-synchrony slack; sizing the shared universe to an
// outlier request (a single huge-C or huge-k probe) would balloon the
// Stage-1 universe past what NewMegaSession accepts and the warm would
// decline for everyone. Probes beyond the clamped window simply fall
// back to the engine's ordinary path.
const (
	megaWarmMaxChunks = 4
	megaWarmMaxK      = 4
)

// warmTopo is the per-(topology, root) state behind the mega-base
// warmer: a solve streak, the largest budgets seen, and the bounds a
// warm (or declined) mega-base already covers.
type warmTopo struct {
	topo   *sccl.Topology
	root   sccl.Node
	misses int
	// maxC/maxS/maxK are running maxima over solved budgets; the warmer
	// sizes the mega-base to cover everything the topology has been
	// asked for so far.
	maxC, maxS, maxK int
	// warming serializes background warms; warmedC/S/K record the bounds
	// the last warm attempt covered, so the warmer re-fires only when a
	// later request outgrows them.
	warming                   bool
	warmedC, warmedS, warmedK int
}

// noteMegaMiss records one real solve against a topology and, past the
// threshold, warms a mega-base sized to the maxima seen — in the
// background, so the triggering request never waits on the encode.
func (s *Server) noteMegaMiss(req sccl.Request) {
	k := req.Budget.R - req.Budget.S
	if k < 0 {
		k = 0
	}
	if k > megaWarmMaxK {
		k = megaWarmMaxK
	}
	c := req.Budget.C
	if c > megaWarmMaxChunks {
		c = megaWarmMaxChunks
	}
	key := req.Topo.Fingerprint() + "|" + strconv.Itoa(int(req.Root))
	s.warmMu.Lock()
	w, ok := s.warmTopos[key]
	if !ok {
		w = &warmTopo{topo: req.Topo, root: req.Root}
		s.warmTopos[key] = w
	}
	w.misses++
	if c > w.maxC {
		w.maxC = c
	}
	if req.Budget.S > w.maxS {
		w.maxS = req.Budget.S
	}
	if k > w.maxK {
		w.maxK = k
	}
	fire := w.misses >= megaWarmThreshold && !w.warming &&
		(w.maxC > w.warmedC || w.maxS > w.warmedS || w.maxK > w.warmedK)
	var wc, ws, wk int
	if fire {
		w.warming = true
		wc, ws, wk = w.maxC, w.maxS, w.maxK
	}
	s.warmMu.Unlock()
	if !fire {
		return
	}
	go func() {
		live := s.eng.WarmMegaBase(w.topo, w.root, wc, ws, wk)
		s.warmMu.Lock()
		w.warming = false
		// Record the attempted bounds either way: a declined warm (no
		// pool, oversized universe) should not be retried until a request
		// actually outgrows what was tried.
		if wc > w.warmedC {
			w.warmedC = wc
		}
		if ws > w.warmedS {
			w.warmedS = ws
		}
		if wk > w.warmedK {
			w.warmedK = wk
		}
		s.warmMu.Unlock()
		if live {
			s.megaWarms.Add(1)
			s.cfg.Progress("serve: mega-base warm for %s (C<=%d S<=%d k<=%d)", w.topo.Name, wc, ws, wk)
		}
	}()
}

// handleSynthesize answers POST /v1/synthesize: body is a
// sccl.request/v1 document, response a sccl.result/v1 document. A replayed
// document is answered by the digest of its bytes (see readRequest);
// any other is decoded and fingerprinted, and its response-cache hit costs
// one striped map lookup. Concurrent identical misses coalesce onto one
// engine solve and share one serialized body.
func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	s.metrics.CountRequest("synthesize")
	data, key, ok := s.readRequest(w, r, aliasSynthesize, t0)
	if !ok {
		return
	}
	req, err := sccl.DecodeRequest(data)
	if err != nil {
		s.metrics.Errors.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fp, err := s.eng.Fingerprint(req)
	if err != nil {
		s.metrics.Errors.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.aliases.put(key, fp)
	s.answer(w, r, fp, familyKey(req.Kind, req.Topo), t0, func(ctx context.Context) ([]byte, error) {
		s.noteMegaMiss(req)
		res, err := s.eng.Synthesize(ctx, req)
		if err != nil {
			return nil, err
		}
		body, err := sccl.EncodeResult(*res)
		if err != nil {
			return nil, err
		}
		if res.Status != sccl.Unknown {
			// Unknown (timeout, cancellation) mirrors the engine's own
			// policy: never cached, so a later retry really retries.
			// Unsat bodies enter the eviction class that goes first
			// under pressure — re-deriving them costs a core lookup,
			// not a solve.
			class := ClassSat
			if res.Status == sccl.Unsat {
				class = ClassUnsat
			}
			s.cache.PutClass(fp, body, class)
		}
		return body, nil
	})
}

// handlePareto answers POST /v1/pareto: body is a
// sccl.pareto-request/v1 document, response a sccl.frontier/v1 document
// with per-point synthesis times zeroed — the same determinism contract
// as `sccl pareto -json`, so every client of the same sweep reads
// byte-identical bytes. A replayed document is answered by its digest, as
// on /v1/synthesize.
func (s *Server) handlePareto(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	s.metrics.CountRequest("pareto")
	data, key, ok := s.readRequest(w, r, aliasPareto, t0)
	if !ok {
		return
	}
	req, err := sccl.DecodeParetoRequest(data)
	if err != nil {
		s.metrics.Errors.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fp, err := s.eng.ParetoFingerprint(req)
	if err != nil {
		s.metrics.Errors.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.aliases.put(key, fp)
	s.answer(w, r, fp, familyKey(req.Kind, req.Topo), t0, func(ctx context.Context) ([]byte, error) {
		res, err := s.eng.Pareto(ctx, req)
		if err != nil {
			return nil, err
		}
		pts := append([]sccl.ParetoPoint(nil), res.Points...)
		for i := range pts {
			pts[i].SynthesisTime = 0
		}
		body, err := sccl.EncodeFrontier(pts)
		if err != nil {
			return nil, err
		}
		s.cache.Put(fp, body)
		return body, nil
	})
}

// handleAlgorithm answers GET /v1/algorithms/{fingerprint} from the
// engine's algorithm cache as a sccl.library-entry/v1 document.
func (s *Server) handleAlgorithm(w http.ResponseWriter, r *http.Request) {
	s.metrics.CountRequest("algorithms")
	fp := r.PathValue("fingerprint")
	ent, ok := s.eng.CachedEntry(fp)
	if !ok {
		http.Error(w, "serve: unknown fingerprint "+fp, http.StatusNotFound)
		return
	}
	body, err := sccl.EncodeLibraryEntry(ent)
	if err != nil {
		s.metrics.Errors.Add(1)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.writeBody(w, fp, "hit", body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.metrics.CountRequest("healthz")
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"uptimeSeconds\":%.1f}\n", time.Since(s.start).Seconds())
}

// handleMetrics renders the Prometheus-style text exposition: serve
// counters and histograms, the engine's lifetime cache counters, and a
// windowed engine hit ratio over the hits and misses since the previous
// scrape.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.CountRequest("metrics")
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")

	writeGauge(w, "sccl_serve_uptime_seconds", "Seconds since the daemon started.", time.Since(s.start).Seconds())
	writeGauge(w, "sccl_serve_inflight_solves", "Coalesced computations currently in flight.", float64(s.flights.Inflight()))
	writeGauge(w, "sccl_serve_queue_depth", "Queued-or-running solves across all families.", float64(s.adm.Depth()))
	writeGauge(w, "sccl_serve_response_cache_entries", "Entries in the striped response cache.", float64(s.cache.Len()))
	hits, misses := s.cache.Stats()
	writeCounter(w, "sccl_serve_response_cache_hits_total", "Response-cache hits.", hits)
	writeCounter(w, "sccl_serve_response_cache_misses_total", "Response-cache misses.", misses)
	if hits+misses > 0 {
		writeGauge(w, "sccl_serve_hit_ratio", "Lifetime response-cache hit ratio.", float64(hits)/float64(hits+misses))
	}
	evSat, evUnsat := s.cache.Evicted()
	fmt.Fprint(w, "# HELP sccl_serve_response_cache_evictions_total Response-cache evictions, by entry class.\n# TYPE sccl_serve_response_cache_evictions_total counter\n")
	fmt.Fprintf(w, "sccl_serve_response_cache_evictions_total{class=\"sat\"} %d\n", evSat)
	fmt.Fprintf(w, "sccl_serve_response_cache_evictions_total{class=\"unsat\"} %d\n", evUnsat)
	writeCounter(w, "sccl_serve_mega_warms_total", "Mega-bases warmed by the per-topology solve-streak warmer.", s.megaWarms.Load())
	s.metrics.write(w)

	cs := s.eng.CacheStats()
	s.prevMu.Lock()
	winHits, winMisses := cs.Hits-s.prevHits, cs.Misses-s.prevMisses
	s.prevHits, s.prevMisses = cs.Hits, cs.Misses
	s.prevMu.Unlock()
	writeGauge(w, "sccl_engine_algorithms", "Cached synthesis outcomes in the engine.", float64(cs.Algorithms))
	writeGauge(w, "sccl_engine_frontiers", "Cached Pareto frontiers in the engine.", float64(cs.Frontiers))
	writeGauge(w, "sccl_engine_mega_sessions", "Live shared mega-base sessions.", float64(cs.MegaSessions))
	writeCounter(w, "sccl_engine_hits_total", "Engine algorithm/frontier cache hits.", cs.Hits)
	writeCounter(w, "sccl_engine_misses_total", "Engine algorithm/frontier cache misses.", cs.Misses)
	writeCounter(w, "sccl_engine_core_solves_total", "Unsat probes that yielded budget cores.", uint64(cs.CoreSolves))
	writeCounter(w, "sccl_engine_pruned_probes_total", "Candidates answered by core dominance without solving.", uint64(cs.PrunedProbes))
	writeCounter(w, "sccl_engine_template_hits_total", "Stage-0 template shares across encodes.", uint64(cs.TemplateHits))
	writeCounter(w, "sccl_engine_mega_selects_total", "Probes answered by mega-base activation selects.", uint64(cs.SessionProbes))
	writeCounter(w, "sccl_engine_mega_encodes_total", "Mega-base Stage-1 encodes.", uint64(cs.MegaEncodes))
	if win := winHits + winMisses; win > 0 {
		writeGauge(w, "sccl_engine_hit_ratio_window", "Engine cache hit ratio since the previous scrape.", float64(winHits)/float64(win))
	}
}

// Snapshot writes the engine's algorithm cache to LibraryPath
// atomically (temp file + rename), so a crash mid-write never corrupts
// the library a restart warm-starts from. No-op without a LibraryPath.
func (s *Server) Snapshot() error {
	if s.cfg.LibraryPath == "" {
		return nil
	}
	dir := filepath.Dir(s.cfg.LibraryPath)
	tmp, err := os.CreateTemp(dir, ".sccl-library-*.json")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := s.eng.SaveLibrary(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), s.cfg.LibraryPath)
}

// Close snapshots the library and closes the engine. It is safe to call
// more than once; Serve calls it on the way out.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.baseCancel()
		snapErr := s.Snapshot()
		if snapErr != nil {
			snapErr = fmt.Errorf("serve: final snapshot: %w", snapErr)
		} else if s.cfg.LibraryPath != "" {
			s.cfg.Progress("serve: library snapshot written to %s", s.cfg.LibraryPath)
		}
		s.closeErr = errors.Join(snapErr, s.eng.Close())
	})
	return s.closeErr
}

// Serve runs the daemon on ln until ctx is cancelled (SIGINT/SIGTERM in
// the CLI arrive here via signal.NotifyContext), then shuts down
// gracefully: stop accepting, drain in-flight requests for up to
// DrainTimeout, cancel whatever remains, snapshot the library, close
// the engine. A clean drain returns nil.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	httpSrv := &http.Server{Handler: s.mux, ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout}
	if s.cfg.SnapshotEvery > 0 && s.cfg.LibraryPath != "" {
		snapCtx, stopSnaps := context.WithCancel(ctx)
		defer stopSnaps()
		go func() {
			tick := time.NewTicker(s.cfg.SnapshotEvery)
			defer tick.Stop()
			for {
				select {
				case <-snapCtx.Done():
					return
				case <-tick.C:
					if err := s.Snapshot(); err != nil {
						s.cfg.Progress("serve: periodic snapshot: %v", err)
					} else {
						s.cfg.Progress("serve: periodic snapshot written to %s", s.cfg.LibraryPath)
					}
				}
			}
		}()
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	s.cfg.Progress("serve: listening on %s", ln.Addr())

	var serveErr error
	select {
	case <-ctx.Done():
		s.cfg.Progress("serve: shutdown — draining in-flight requests (up to %s)", s.cfg.DrainTimeout)
		drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(drainCtx); err != nil {
			s.cfg.Progress("serve: drain incomplete: %v", err)
		}
		<-errCh // Serve has returned http.ErrServerClosed
	case serveErr = <-errCh:
		// Listener failure — still snapshot and close below.
	}
	if errors.Is(serveErr, http.ErrServerClosed) {
		serveErr = nil
	}
	return errors.Join(serveErr, s.Close())
}

// Run listens on addr and calls Serve.
func (s *Server) Run(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	sccl "repro"
	"repro/internal/serve"
)

const (
	// serveClients is both the number of client goroutines and the number
	// of keep-alive connections: the box has two cores and the daemon
	// shares them with its clients.
	serveClients = 2
	// hitsPerClient replays per client and pass, drawn Zipf(1.1) from the
	// solved fingerprints.
	hitsPerClient = 3000
	// paretoReplays of the one sweep per pass.
	paretoReplays = 200
	zipfS         = 1.1
)

// serveWorkload drives an in-process daemon over loopback HTTP through
// the phases of a serving day: cold misses, a herd on one cold request,
// hits, a sweep, and a snapshot with a warm restart.
type serveWorkload struct {
	seed   int64
	tmpdir string
	rows   []budgetRow // the 12 misses in request order, then the herd row
	reqs   []sccl.Request
	bodies [][]byte // encoded request documents, same order
	// sweep is the one Pareto request, with its encoded document and
	// golden frontier.
	sweepKey  string
	sweepBody []byte
	golden    []point
	specs     []string
}

func (w *serveWorkload) fabrics() []string { return w.specs }

func (w *serveWorkload) prepare(seed int64, tmpdir string) error {
	w.seed, w.tmpdir = seed, tmpdir
	if err := os.MkdirAll(tmpdir, 0o755); err != nil {
		return err
	}
	var f serveFile
	if err := loadJSON("serve_requests.json", &f); err != nil {
		return err
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(f.Misses), func(i, j int) { f.Misses[i], f.Misses[j] = f.Misses[j], f.Misses[i] })
	w.rows = append(f.Misses, f.Herd)
	seen := map[string]bool{}
	for _, row := range w.rows {
		topo, err := sccl.ParseTopology(row.Topology)
		if err != nil {
			return err
		}
		req, err := row.request(topo)
		if err != nil {
			return err
		}
		body, err := sccl.EncodeRequest(req)
		if err != nil {
			return err
		}
		w.reqs = append(w.reqs, req)
		w.bodies = append(w.bodies, body)
		if !seen[row.Topology] {
			seen[row.Topology] = true
			w.specs = append(w.specs, row.Topology)
		}
	}
	var ff frontierFile
	if err := loadJSON("frontiers.json", &ff); err != nil {
		return err
	}
	sw := sweeps["serve-replay"][0]
	preq, err := sw.request()
	if err != nil {
		return err
	}
	w.sweepKey, w.golden = sw.key(), ff.Frontiers[sw.key()]
	w.sweepBody, err = sccl.EncodeParetoRequest(preq)
	return err
}

// reply is one HTTP answer as the client saw it.
type reply struct {
	status int
	source string // X-SCCL-Cache
	body   []byte
	wall   time.Duration
	err    error
}

// daemon is one serve.Server behind a loopback listener with its client.
type daemon struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
}

func startDaemon(libraryPath string) (*daemon, error) {
	eng := sccl.NewEngine(sccl.EngineOptions{Workers: 1})
	srv, err := serve.New(serve.Config{Engine: eng, SolveSlots: 1, LibraryPath: libraryPath})
	if err != nil {
		eng.Close()
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	tp := &http.Transport{MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients}
	return &daemon{srv: srv, ts: ts, client: &http.Client{Transport: tp, Timeout: opTimeout}}, nil
}

func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	d.ts.Close()
	return d.srv.Close()
}

// post sends one request document and reads the whole answer.
func (d *daemon) post(tr *tracer, parent, tid int, path string, body []byte) reply {
	id := tr.begin("serve.request", parent, tr.newReq(), tid)
	t0 := time.Now()
	var r reply
	resp, err := d.client.Post(d.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = err
	} else {
		r.status = resp.StatusCode
		r.source = resp.Header.Get("X-SCCL-Cache")
		r.body, r.err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	r.wall = time.Since(t0)
	tr.end(id)
	tr.tag(id, "cache", r.source)
	return r
}

// counters scrapes the daemon's own /metrics text.
func (d *daemon) counters() (map[string]float64, error) {
	resp, err := d.client.Get(d.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseMetrics(string(data)), nil
}

// parseMetrics reads Prometheus text exposition into name -> value,
// keeping label sets as part of the name.
func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// inParallel runs fn on every client goroutine and waits for all.
func inParallel(fn func(client int)) {
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

func (w *serveWorkload) pass(tr *tracer) passOut {
	out := passOut{layer: map[string]float64{}, samples: map[string][]float64{}}
	lib := filepath.Join(w.tmpdir, fmt.Sprintf("library-%d.json", os.Getpid()))
	defer os.Remove(lib)
	nMiss := len(w.rows) - 1
	herd := nMiss // index of the herd row

	root := tr.begin("pass", 0, 0, 0)
	t0 := time.Now()
	d, err := startDaemon(lib)
	if err != nil {
		out.ops.fail("start daemon: " + err.Error())
		return out
	}

	// Phase 1, miss: the twelve distinct cold requests, taken in order by
	// whichever client is free.
	first := make([]reply, len(w.rows))
	next := make(chan int, nMiss)
	for i := 0; i < nMiss; i++ {
		next <- i
	}
	close(next)
	p := tr.begin("serve.phase.miss", root, 0, 0)
	m0 := time.Now()
	inParallel(func(c int) {
		for i := range next {
			first[i] = d.post(tr, p, c, "/v1/synthesize", w.bodies[i])
		}
	})
	out.missWall = time.Since(m0)
	tr.end(p)
	afterMiss, _ := d.counters()

	// Phase 2, herd: both clients fire one further cold request at once.
	p = tr.begin("serve.phase.herd", root, 0, 0)
	herdReplies := make([]reply, serveClients)
	var ready sync.WaitGroup
	ready.Add(serveClients)
	inParallel(func(c int) {
		ready.Done()
		ready.Wait()
		herdReplies[c] = d.post(tr, p, c, "/v1/synthesize", w.bodies[herd])
	})
	tr.end(p)
	first[herd] = herdReplies[0]
	afterHerd, _ := d.counters()

	// Phase 3, hit: replays of the solved fingerprints, Zipf-distributed
	// over a seeded ranking, each checked byte for byte against the miss
	// that produced it.
	draws := zipfDraws(w.seed, len(w.rows), serveClients*hitsPerClient)
	hitLat := make([][]float64, serveClients)
	hitBad := make([]int, serveClients)
	var ms0, ms1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	p = tr.begin("serve.phase.hit", root, 0, 0)
	h0 := time.Now()
	inParallel(func(c int) {
		lat := make([]float64, 0, hitsPerClient)
		for _, i := range draws[c*hitsPerClient : (c+1)*hitsPerClient] {
			r := d.post(tr, p, c, "/v1/synthesize", w.bodies[i])
			if r.err != nil || r.status != http.StatusOK || r.source != "hit" || !bytes.Equal(r.body, first[i].body) {
				hitBad[c]++
			}
			lat = append(lat, secs(r.wall)*1e6)
		}
		hitLat[c] = lat
	})
	hitWall := time.Since(h0)
	tr.end(p)
	if tr != nil {
		runtime.ReadMemStats(&ms1)
		out.layer["serve.hit_mallocs_per_req"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(draws))
	}
	out.hitRPS = float64(len(draws)) / secs(hitWall)
	afterHit, _ := d.counters()

	// Phase 4, pareto: one cold sweep, then replays of it.
	p = tr.begin("serve.phase.pareto", root, 0, 0)
	sweepMiss := d.post(tr, p, 0, "/v1/pareto", w.sweepBody)
	sweepLat := make([][]float64, serveClients)
	sweepBad := make([]int, serveClients)
	inParallel(func(c int) {
		for i := 0; i < paretoReplays/serveClients; i++ {
			r := d.post(tr, p, c, "/v1/pareto", w.sweepBody)
			if r.err != nil || r.status != http.StatusOK || r.source != "hit" || !bytes.Equal(r.body, sweepMiss.body) {
				sweepBad[c]++
			}
			sweepLat[c] = append(sweepLat[c], secs(r.wall)*1e6)
		}
	})
	tr.end(p)

	// Phase 5, write path: snapshot the library, start a second daemon on
	// a fresh engine from that file, and replay every solved request.
	p = tr.begin("serve.phase.write", root, 0, 0)
	var snapErr error
	snap := tr.timed("serve.snapshot", p, 0, func() { snapErr = d.srv.Snapshot() })
	var d2 *daemon
	var warmErr error
	warmStart := tr.timed("serve.warm_start", p, 0, func() { d2, warmErr = startDaemon(lib) })
	warm := make([]reply, len(w.rows))
	var warmCounters map[string]float64
	if warmErr == nil {
		for i := range w.rows {
			warm[i] = d2.post(tr, p, 0, "/v1/synthesize", w.bodies[i])
		}
		warmCounters, _ = d2.counters()
		if tr != nil {
			if data, err := os.ReadFile(lib); err == nil {
				out.library = data
				out.layer["engine.library_bytes"] = float64(len(data))
			}
		}
		warmErr = d2.stop()
	}
	tr.end(p)
	final, _ := d.counters()
	stopErr := d.stop()
	out.wall = time.Since(t0)
	tr.end(root)

	// Checks, not timed.
	for i, row := range w.rows {
		alg, err := checkServeReply(row, first[i], nil)
		out.ops.record(err)
		if alg != nil {
			out.witnesses = append(out.witnesses, alg)
		}
		if i < nMiss {
			out.samples["serve.miss_ms"] = append(out.samples["serve.miss_ms"], secs(first[i].wall)*1e3)
		}
	}
	// The herd: one solve, and both clients read the same bytes.
	herdSolves := afterHerd["sccl_serve_solves_total"] - afterMiss["sccl_serve_solves_total"]
	switch {
	case herdReplies[1].err != nil || herdReplies[1].status != http.StatusOK:
		out.ops.fail(fmt.Sprintf("herd: second client got status %d, %v", herdReplies[1].status, herdReplies[1].err))
	case !bytes.Equal(herdReplies[0].body, herdReplies[1].body):
		out.ops.fail("herd: the two clients read different bodies")
	case herdSolves != 1:
		out.ops.fail(fmt.Sprintf("herd: %g solves, want 1", herdSolves))
	default:
		out.ops.ok()
	}
	for c := 0; c < serveClients; c++ {
		out.ops.attempted += len(hitLat[c]) + len(sweepLat[c])
		out.ops.failed += hitBad[c] + sweepBad[c]
		if hitBad[c]+sweepBad[c] > 0 && out.ops.firstErr == "" {
			out.ops.firstErr = "a replay was not a byte-identical 200 hit"
		}
		out.samples["serve.hit_us"] = append(out.samples["serve.hit_us"], hitLat[c]...)
		out.samples["serve.pareto_hit_us"] = append(out.samples["serve.pareto_hit_us"], sweepLat[c]...)
	}
	if solves := afterHit["sccl_serve_solves_total"] - afterHerd["sccl_serve_solves_total"]; solves != 0 {
		out.ops.fail(fmt.Sprintf("hit phase ran %g solves, want 0", solves))
	}
	out.ops.record(w.checkSweepReply(sweepMiss, &out))
	if snapErr != nil {
		out.ops.fail("snapshot: " + snapErr.Error())
	}
	if warmErr != nil {
		out.ops.fail("warm start: " + warmErr.Error())
	} else {
		for i, row := range w.rows {
			_, err := checkServeReply(row, warm[i], first[i].body)
			out.ops.record(err)
		}
		// A request the loaded library answers costs the second engine a
		// cache hit; every engine miss there is a solve the library should
		// have saved.
		if misses := warmCounters["sccl_engine_misses_total"]; misses != 0 {
			out.ops.fail(fmt.Sprintf("warm start: %g requests missed the loaded library", misses))
		}
		out.layer["serve.warm_start_solves"] = warmCounters["sccl_engine_misses_total"]
	}
	if stopErr != nil {
		out.ops.fail("stop daemon: " + stopErr.Error())
	}
	out.answered = w.reqs

	out.layer["serve.herd_solves"] = herdSolves
	out.layer["serve.coalesced"] = final["sccl_serve_coalesced_total"]
	out.layer["serve.pareto_miss_ms"] = secs(sweepMiss.wall) * 1e3
	out.layer["serve.snapshot_ms"] = secs(snap) * 1e3
	out.layer["serve.warm_start_ms"] = secs(warmStart) * 1e3
	out.layer["serve.queue_wait_mean_us"] = ratio(final["sccl_serve_queue_wait_seconds_sum"], final["sccl_serve_queue_wait_seconds_count"]) * 1e6
	out.layer["serve.http_errors"] = final["sccl_serve_errors_total"]
	out.layer["serve.overloads_429"] = final["sccl_serve_overload_total"]
	return out
}

// zipfDraws draws n indices below k from a Zipf(zipfS) distribution over
// a seeded ranking of the indices: which request is the popular one
// depends on the seed, the shape of the popularity curve does not.
func zipfDraws(seed int64, k, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	rank := rng.Perm(k)
	z := rand.NewZipf(rng, zipfS, 1, uint64(k-1))
	out := make([]int, n)
	for i := range out {
		out[i] = rank[z.Uint64()]
	}
	return out
}

// checkServeReply checks one /v1/synthesize answer: a 200 whose result
// document decodes (which re-validates the algorithm), has the expected
// verdict and a witness of exactly the requested cost. With a reference
// body (the cold answer of the first daemon) it must also carry the same
// algorithm, byte for byte once re-encoded.
func checkServeReply(row budgetRow, r reply, reference []byte) (*sccl.Algorithm, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("%s %s (%d,%d,%d): HTTP %d: %s", row.Topology, row.Collective, row.C, row.S, row.R, r.status, bytes.TrimSpace(r.body))
	}
	res, err := sccl.DecodeResult(r.body)
	if err != nil {
		return nil, err
	}
	if err := checkAnswer(row, res.Status, res.Algorithm); err != nil {
		return nil, err
	}
	if reference == nil || res.Algorithm == nil {
		return res.Algorithm, nil
	}
	ref, err := sccl.DecodeResult(reference)
	if err != nil {
		return nil, err
	}
	a, _ := sccl.EncodeAlgorithm(res.Algorithm)
	b, _ := sccl.EncodeAlgorithm(ref.Algorithm)
	if !bytes.Equal(a, b) {
		return nil, fmt.Errorf("%s %s (%d,%d,%d): the warm-started daemon serves a different algorithm", row.Topology, row.Collective, row.C, row.S, row.R)
	}
	return res.Algorithm, nil
}

func (w *serveWorkload) checkSweepReply(r reply, out *passOut) error {
	if r.err != nil {
		return r.err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("pareto: HTTP %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	pts, err := sccl.DecodeFrontier(r.body)
	if err != nil {
		return err
	}
	for _, p := range pts {
		out.witnesses = append(out.witnesses, p.Algorithm)
	}
	return checkFrontier(w.sweepKey, pts, w.golden)
}

func (w *serveWorkload) probes(tr *tracer, last passOut, m metricSet) {
	// serve.decode_request_us: the decode (and re-validation) every
	// request pays before it is even fingerprinted.
	var ds []float64
	for _, body := range w.bodies {
		ds = append(ds, secs(medianOf(tr, "serve.decode_request", 0, probeReps, func() { _, _ = sccl.DecodeRequest(body) }))*1e6)
	}
	m["serve.decode_request_us"] = median(ds)
	directProbes(tr, w.reqs, 0, m)
}

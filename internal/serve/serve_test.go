package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	sccl "repro"
)

// --- singleflight ---

// TestGroupCoalesce pins the coalescing contract: K concurrent callers
// of one key run fn exactly once and all read the same bytes. The gate
// holds fn open until every joiner is registered, so the test is
// deterministic, not a timing bet.
func TestGroupCoalesce(t *testing.T) {
	var g Group
	const K = 8
	gate := make(chan struct{})
	started := make(chan struct{})
	var execs atomic.Int64
	fn := func(ctx context.Context) ([]byte, error) {
		execs.Add(1)
		close(started)
		<-gate
		return []byte("answer"), nil
	}
	type out struct {
		val    []byte
		shared bool
		err    error
	}
	results := make([]out, K)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, sh, err := g.Do(context.Background(), context.Background(), "k", fn)
		results[0] = out{v, sh, err}
	}()
	<-started
	for i := 1; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, sh, err := g.Do(context.Background(), context.Background(), "k", fn)
			results[i] = out{v, sh, err}
		}(i)
	}
	// Wait until every joiner is attached to the in-flight call before
	// letting fn return.
	for {
		g.mu.Lock()
		c := g.calls["k"]
		n := 0
		if c != nil {
			n = c.waiters
		}
		g.mu.Unlock()
		if n == K {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if n := execs.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	sharedCount := 0
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("caller %d: %v", i, r.err)
		}
		if !bytes.Equal(r.val, []byte("answer")) {
			t.Fatalf("caller %d read %q", i, r.val)
		}
		if r.shared {
			sharedCount++
		}
	}
	if sharedCount != K-1 {
		t.Fatalf("%d callers reported shared, want %d", sharedCount, K-1)
	}
	if g.Inflight() != 0 {
		t.Fatalf("inflight = %d after completion", g.Inflight())
	}
}

// TestGroupAbandon pins the cancellation contract: a waiter whose
// context ends gets its context error, and only when the LAST waiter
// leaves is the shared computation's context cancelled.
func TestGroupAbandon(t *testing.T) {
	var g Group
	fnCancelled := make(chan struct{})
	started := make(chan struct{})
	fn := func(ctx context.Context) ([]byte, error) {
		close(started)
		<-ctx.Done()
		close(fnCancelled)
		return nil, ctx.Err()
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	done1 := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx1, context.Background(), "k", fn)
		done1 <- err
	}()
	<-started
	ctx2, cancel2 := context.WithCancel(context.Background())
	done2 := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx2, context.Background(), "k", fn)
		done2 <- err
	}()
	// Two waiters attached; drop the first. The computation must keep
	// running for the second.
	for {
		g.mu.Lock()
		c := g.calls["k"]
		n := 0
		if c != nil {
			n = c.waiters
		}
		g.mu.Unlock()
		if n == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel1()
	if err := <-done1; !errors.Is(err, context.Canceled) {
		t.Fatalf("first waiter err = %v, want context.Canceled", err)
	}
	select {
	case <-fnCancelled:
		t.Fatal("computation cancelled while a waiter remained")
	case <-time.After(20 * time.Millisecond):
	}
	cancel2()
	if err := <-done2; !errors.Is(err, context.Canceled) {
		t.Fatalf("second waiter err = %v, want context.Canceled", err)
	}
	select {
	case <-fnCancelled:
	case <-time.After(time.Second):
		t.Fatal("computation not cancelled after the last waiter left")
	}
}

// --- sharded cache ---

func TestShardedCacheBasics(t *testing.T) {
	c := NewShardedCache(4, 8)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", []byte("1"))
	if v, ok := c.Get("a"); !ok || string(v) != "1" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	c.Put("a", []byte("2")) // overwrite, no duplicate order entry
	if v, _ := c.Get("a"); string(v) != "2" {
		t.Fatalf("overwrite lost: %q", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 2/1", hits, misses)
	}
}

// TestShardedCacheEviction fills one shard past its per-shard cap and
// checks oldest-first eviction within that shard.
func TestShardedCacheEviction(t *testing.T) {
	c := NewShardedCache(1, 3) // one shard, cap 3: eviction is global FIFO
	for i := 0; i < 4; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	if _, ok := c.Get("k0"); ok {
		t.Fatal("oldest entry survived past capacity")
	}
	for i := 1; i < 4; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d evicted, want k0 only", i)
		}
	}
}

// TestShardedCacheUnsatFirstEviction checks admission-aware eviction:
// a full shard sheds its Unsat bodies (oldest first) before touching
// any Sat body, falls back to plain FIFO once no Unsat entry remains,
// and counts evictions per class.
func TestShardedCacheUnsatFirstEviction(t *testing.T) {
	c := NewShardedCache(1, 3)
	c.PutClass("sat0", []byte("s0"), ClassSat)
	c.PutClass("unsat0", []byte("u0"), ClassUnsat)
	c.PutClass("sat1", []byte("s1"), ClassSat)
	// Shard full: the next insert must evict unsat0, not the older sat0.
	c.PutClass("unsat1", []byte("u1"), ClassUnsat)
	if _, ok := c.Get("unsat0"); ok {
		t.Fatal("unsat0 survived eviction ahead of Sat entries")
	}
	if _, ok := c.Get("sat0"); !ok {
		t.Fatal("sat0 evicted while an Unsat body was resident")
	}
	// Next insert: unsat1 is now the only Unsat body — it goes next.
	c.PutClass("sat2", []byte("s2"), ClassSat)
	if _, ok := c.Get("unsat1"); ok {
		t.Fatal("unsat1 survived eviction ahead of Sat entries")
	}
	// All-Sat shard: eviction falls back to oldest-first.
	c.Put("sat3", []byte("s3"))
	if _, ok := c.Get("sat0"); ok {
		t.Fatal("oldest Sat entry survived an all-Sat eviction")
	}
	for _, k := range []string{"sat1", "sat2", "sat3"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted, want FIFO within the Sat class", k)
		}
	}
	evSat, evUnsat := c.Evicted()
	if evSat != 1 || evUnsat != 2 {
		t.Fatalf("evictions = %d sat / %d unsat, want 1/2", evSat, evUnsat)
	}
}

// TestShardedCacheConcurrent hammers all shards from many goroutines;
// its real assertion is the race detector.
func TestShardedCacheConcurrent(t *testing.T) {
	c := NewShardedCache(8, 1024)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i%50)
				c.Put(key, []byte(key))
				if v, ok := c.Get(key); !ok || string(v) != key {
					t.Errorf("round-trip lost %q", key)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// --- admission ---

func TestAdmissionOverload(t *testing.T) {
	a := NewAdmission(1, 2)
	ctx := context.Background()
	rel1, err := a.Acquire(ctx, "fam")
	if err != nil {
		t.Fatal(err)
	}
	// Second admit queues (slot busy) — run it in the background.
	acquired2 := make(chan func(), 1)
	go func() {
		rel2, err := a.Acquire(ctx, "fam")
		if err != nil {
			t.Errorf("queued acquire: %v", err)
			return
		}
		acquired2 <- rel2
	}()
	for a.Depth() != 2 {
		time.Sleep(time.Millisecond)
	}
	// Family cap reached: the third admit must fail fast, not block.
	if _, err := a.Acquire(ctx, "fam"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third acquire err = %v, want ErrOverloaded", err)
	}
	// Other families are unaffected by this family's backlog (they queue
	// for the global slot instead — prove via a cancellable context).
	shortCtx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := a.Acquire(shortCtx, "other"); !errors.Is(err, context.Canceled) {
		t.Fatalf("other-family acquire err = %v, want context.Canceled", err)
	}
	rel1()
	rel2 := <-acquired2
	rel2()
	if d := a.Depth(); d != 0 {
		t.Fatalf("depth = %d after release, want 0", d)
	}
}

// --- metrics ---

func TestHistogram(t *testing.T) {
	h := NewLatencyHistogram()
	for i := 0; i < 99; i++ {
		h.Observe(150 * time.Microsecond) // second bucket (le=200µs)
	}
	h.Observe(10 * time.Second)
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if q := h.Quantile(0.5); q != 200*time.Microsecond {
		t.Fatalf("p50 = %v, want 200µs bucket edge", q)
	}
	if q := h.Quantile(0.99); q != 200*time.Microsecond {
		t.Fatalf("p99 = %v, want 200µs bucket edge (99/100 below)", q)
	}
	if q := h.Quantile(1); q < 10*time.Second {
		t.Fatalf("p100 = %v, want a bucket covering 10s", q)
	}
	var buf bytes.Buffer
	h.write(&buf, "x_seconds", "test")
	out := buf.String()
	for _, want := range []string{"x_seconds_bucket{le=\"+Inf\"} 100", "x_seconds_count 100"} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// --- end-to-end over a real engine ---

// cheapRequest is a small instance any test engine solves in
// milliseconds.
func cheapRequest(t *testing.T) sccl.Request {
	t.Helper()
	topo, err := sccl.ParseTopology("ring:3")
	if err != nil {
		t.Fatal(err)
	}
	kind, err := sccl.ParseKind("Allgather")
	if err != nil {
		t.Fatal(err)
	}
	return sccl.Request{Kind: kind, Topo: topo, Budget: sccl.Budget{C: 1, S: 2, R: 2}}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = sccl.NewEngine(sccl.EngineOptions{})
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { srv.Close() })
	return srv, ts
}

func postDoc(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestServerSynthesizeCoalesce is the tentpole acceptance test: K
// concurrent identical misses produce exactly one engine solve and K
// byte-identical result documents.
func TestServerSynthesizeCoalesce(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	body, err := sccl.EncodeRequest(cheapRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	const K = 8
	bodies := make([][]byte, K)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, data := postDoc(t, ts.URL+"/v1/synthesize", body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: %s: %s", i, resp.Status, data)
				return
			}
			bodies[i] = data
		}(i)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 1; i < K; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d body differs from client 0", i)
		}
	}
	if n := srv.metrics.Solves.Load(); n != 1 {
		t.Fatalf("engine solves = %d for %d identical requests, want 1", n, K)
	}
	res, err := sccl.DecodeResult(bodies[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sccl.Sat || res.Algorithm == nil {
		t.Fatalf("status = %v (alg %v), want Sat", res.Status, res.Algorithm != nil)
	}

	// A replay is a response-cache hit serving the very same bytes.
	resp, data := postDoc(t, ts.URL+"/v1/synthesize", body)
	if got := resp.Header.Get("X-SCCL-Cache"); got != "hit" {
		t.Fatalf("replay X-SCCL-Cache = %q, want hit", got)
	}
	if !bytes.Equal(data, bodies[0]) {
		t.Fatal("replay bytes differ from the solved response")
	}
	if n := srv.metrics.Solves.Load(); n != 1 {
		t.Fatalf("replay re-solved: solves = %d", n)
	}
}

// TestServerParetoAndAlgorithmLookup drives /v1/pareto and then fetches
// one synthesized point through /v1/algorithms/{fingerprint}.
func TestServerParetoAndAlgorithmLookup(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	req := cheapRequest(t)
	preq := sccl.ParetoRequest{Kind: req.Kind, Topo: req.Topo, K: 1, MaxSteps: 3, MaxChunks: 2}
	body, err := sccl.EncodeParetoRequest(preq)
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postDoc(t, ts.URL+"/v1/pareto", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s", resp.Status, data)
	}
	pts, err := sccl.DecodeFrontier(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("empty frontier")
	}
	for _, p := range pts {
		if p.SynthesisTime != 0 {
			t.Fatalf("frontier document carries wall clock %v; must be zeroed for determinism", p.SynthesisTime)
		}
	}
	// Replay: cached bytes, no second sweep.
	resp2, data2 := postDoc(t, ts.URL+"/v1/pareto", body)
	if got := resp2.Header.Get("X-SCCL-Cache"); got != "hit" {
		t.Fatalf("replay X-SCCL-Cache = %q, want hit", got)
	}
	if !bytes.Equal(data2, data) {
		t.Fatal("pareto replay bytes differ")
	}

	// The sweep populated the engine's algorithm cache: fetch one entry
	// by the fingerprint of an exact-budget request at a frontier point.
	exact := req
	exact.Budget = sccl.Budget{C: pts[0].C, S: pts[0].S, R: pts[0].R}
	fp, err := srv.eng.Fingerprint(exact)
	if err != nil {
		t.Fatal(err)
	}
	got, err := http.Get(ts.URL + "/v1/algorithms/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	entData, _ := io.ReadAll(got.Body)
	got.Body.Close()
	if got.StatusCode != http.StatusOK {
		t.Fatalf("algorithm lookup: %s: %s", got.Status, entData)
	}
	ent, err := sccl.DecodeLibraryEntry(entData)
	if err != nil {
		t.Fatal(err)
	}
	if ent.Fingerprint != fp || ent.Status != sccl.Sat.String() || ent.Algorithm == nil {
		t.Fatalf("entry = %+v, want Sat with algorithm under %s", ent, fp)
	}
	if missing, err := http.Get(ts.URL + "/v1/algorithms/no-such-fp"); err != nil {
		t.Fatal(err)
	} else {
		missing.Body.Close()
		if missing.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown fingerprint: %s, want 404", missing.Status)
		}
	}
}

// TestServerOverload pins the admission contract at the HTTP layer: a
// family whose queue is full answers 429 with a Retry-After hint, and
// cache hits keep flowing while it does.
func TestServerOverload(t *testing.T) {
	srv, ts := newTestServer(t, Config{SolveSlots: 1, QueuePerFamily: 1})
	req := cheapRequest(t)
	body, err := sccl.EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	// Warm one fingerprint so the hit path can be probed during overload.
	if resp, data := postDoc(t, ts.URL+"/v1/synthesize", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: %s: %s", resp.Status, data)
	}
	// Occupy the family's entire queue from the outside.
	release, err := srv.adm.Acquire(context.Background(), familyKey(req.Kind, req.Topo))
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	// A fresh budget in the same family must be rejected fast.
	fresh := req
	fresh.Budget.R++
	freshBody, err := sccl.EncodeRequest(fresh)
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postDoc(t, ts.URL+"/v1/synthesize", freshBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded family: %s (%s), want 429", resp.Status, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// The warmed fingerprint still answers from cache during overload.
	if hit, _ := postDoc(t, ts.URL+"/v1/synthesize", body); hit.StatusCode != http.StatusOK ||
		hit.Header.Get("X-SCCL-Cache") != "hit" {
		t.Fatalf("cache hit during overload: %s / %q", hit.Status, hit.Header.Get("X-SCCL-Cache"))
	}
	if srv.metrics.Overloads.Load() == 0 {
		t.Fatal("overload counter not incremented")
	}
}

// TestServerRestartFromDisk kills a daemon and proves its replacement
// answers from the snapshotted library without re-solving: the
// engine-level result arrives as a cache hit.
func TestServerRestartFromDisk(t *testing.T) {
	lib := filepath.Join(t.TempDir(), "lib.json")
	req := cheapRequest(t)
	body, err := sccl.EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}

	srv1, ts1 := newTestServer(t, Config{LibraryPath: lib})
	resp, data1 := postDoc(t, ts1.URL+"/v1/synthesize", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first daemon: %s: %s", resp.Status, data1)
	}
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := os.Stat(lib); err != nil {
		t.Fatalf("no library snapshot after shutdown: %v", err)
	}

	// A brand-new engine + daemon warm-started from the snapshot.
	srv2, ts2 := newTestServer(t, Config{LibraryPath: lib})
	resp2, data2 := postDoc(t, ts2.URL+"/v1/synthesize", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("restarted daemon: %s: %s", resp2.Status, data2)
	}
	res, err := sccl.DecodeResult(data2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("restarted daemon re-solved instead of answering from the library")
	}
	if res.Status != sccl.Sat || res.Algorithm == nil {
		t.Fatalf("restarted result = %v", res.Status)
	}
	if cs := srv2.eng.CacheStats(); cs.Hits == 0 {
		t.Fatalf("engine stats after warm answer: %+v", cs)
	}
}

// TestServerServeDrains runs the real Serve loop on a live listener and
// checks the shutdown path: context cancellation drains, snapshots, and
// closes the engine, returning nil.
func TestServerServeDrains(t *testing.T) {
	lib := filepath.Join(t.TempDir(), "lib.json")
	eng := sccl.NewEngine(sccl.EngineOptions{})
	srv, err := New(Config{Engine: eng, LibraryPath: lib, DrainTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()

	url := "http://" + ln.Addr().String()
	body, err := sccl.EncodeRequest(cheapRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postDoc(t, url+"/v1/synthesize", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s", resp.Status, data)
	}
	if hz, _ := postDocGet(t, url+"/healthz"); hz != http.StatusOK {
		t.Fatalf("healthz = %d", hz)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not shut down")
	}
	if _, err := os.Stat(lib); err != nil {
		t.Fatalf("no shutdown snapshot: %v", err)
	}
}

func postDocGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestServerMetricsExposition checks the /metrics text carries the
// serve and engine series the load harness and dashboards scrape.
func TestServerMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, err := sccl.EncodeRequest(cheapRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	postDoc(t, ts.URL+"/v1/synthesize", body)
	postDoc(t, ts.URL+"/v1/synthesize", body)
	code, data := postDocGet(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	out := string(data)
	for _, want := range []string{
		`sccl_serve_requests_total{endpoint="synthesize"} 2`,
		"sccl_serve_solves_total 1",
		"sccl_serve_response_cache_hits_total 1",
		"sccl_serve_hit_latency_seconds_count 1",
		"sccl_serve_solve_wall_seconds_count 1",
		"sccl_serve_queue_wait_seconds_bucket",
		"sccl_engine_algorithms 1",
		"sccl_engine_hit_ratio_window",
		"sccl_serve_uptime_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", out)
	}
}

// TestServerMegaWarm pins the mega-base warmer: three solver-bound misses
// on one topology warm exactly one shared base in the background, and a
// later fresh budget inside the clamped window (C <= 4, k <= 4) is a miss
// the warm base answers by an activation select.
func TestServerMegaWarm(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	req := cheapRequest(t)
	post := func(b sccl.Budget) {
		t.Helper()
		r := req
		r.Budget = b
		body, err := sccl.EncodeRequest(r)
		if err != nil {
			t.Fatal(err)
		}
		resp, data := postDoc(t, ts.URL+"/v1/synthesize", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%v: %s: %s", b, resp.Status, data)
		}
		if got := resp.Header.Get("X-SCCL-Cache"); got != "miss" {
			t.Fatalf("%v: X-SCCL-Cache = %q, want miss", b, got)
		}
	}
	for _, b := range []sccl.Budget{{C: 1, S: 2, R: 2}, {C: 1, S: 2, R: 3}, {C: 2, S: 2, R: 4}} {
		post(b)
	}
	// The warm runs in the background after the third miss.
	deadline := time.Now().Add(30 * time.Second)
	for srv.megaWarms.Load() == 0 || srv.eng.CacheStats().MegaSessions == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no warm mega-base after 30s: warms %d, sessions %d",
				srv.megaWarms.Load(), srv.eng.CacheStats().MegaSessions)
		}
		time.Sleep(10 * time.Millisecond)
	}
	_, data := postDocGet(t, ts.URL+"/metrics")
	for _, want := range []string{"sccl_serve_mega_warms_total 1\n", "sccl_engine_mega_sessions 1\n"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics missing %q", strings.TrimSpace(want))
		}
	}

	before := srv.eng.CacheStats().MegaSelects
	post(sccl.Budget{C: 1, S: 2, R: 4})
	if d := srv.eng.CacheStats().MegaSelects - before; d < 1 {
		t.Fatalf("fresh in-window miss: mega selects +%d, want >= 1", d)
	}
	if n := srv.megaWarms.Load(); n != 1 {
		t.Fatalf("mega warms = %d after an in-window miss, want 1", n)
	}
}

// TestServerRejectsMalformed pins the 400 path for undecodable and
// invalid documents.
func TestServerRejectsMalformed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := postDoc(t, ts.URL+"/v1/synthesize", []byte(`{"format":"nope"}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed synthesize = %s, want 400", resp.Status)
	}
	resp2, _ := postDoc(t, ts.URL+"/v1/pareto", []byte(`not json`))
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed pareto = %s, want 400", resp2.Status)
	}
}

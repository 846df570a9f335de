package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
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

	// A replay is a response-cache hit serving the very same bytes,
	// found by the digest of the request body without a decode.
	decodes := srv.metrics.Decodes.Load()
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
	if d := srv.metrics.Decodes.Load() - decodes; d != 0 {
		t.Fatalf("replay decoded %d times, want 0", d)
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
	// Replay: cached bytes, no second sweep, no second decode.
	decodes := srv.metrics.Decodes.Load()
	resp2, data2 := postDoc(t, ts.URL+"/v1/pareto", body)
	if got := resp2.Header.Get("X-SCCL-Cache"); got != "hit" {
		t.Fatalf("replay X-SCCL-Cache = %q, want hit", got)
	}
	if !bytes.Equal(data2, data) {
		t.Fatal("pareto replay bytes differ")
	}
	if d := srv.metrics.Decodes.Load() - decodes; d != 0 {
		t.Fatalf("pareto replay decoded %d times, want 0", d)
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

// TestServeClosesStalledHeaders: a connection that sends part of a
// request header and then stalls is closed by the daemon once
// readHeaderTimeout has passed.
func TestServeClosesStalledHeaders(t *testing.T) {
	t.Parallel()
	srv, err := New(Config{Engine: sccl.NewEngine(sccl.EngineOptions{}), DrainTimeout: time.Second})
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
	defer func() {
		cancel()
		<-done
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/synthesize HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	const slack = 3 * time.Second
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + slack)); err != nil {
		t.Fatal(err)
	}
	// The server may answer 408 before it closes; read to the end.
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection still open %v after a stalled header: %v", time.Since(start), err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout-time.Second {
		t.Errorf("closed after %v, before the %v header timeout", waited, readHeaderTimeout)
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
		"sccl_serve_request_decodes_total 1",
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

// TestServerHitRatioWindow checks that sccl_engine_hit_ratio_window
// covers exactly the engine lookups since the previous scrape: a sweep
// (one frontier miss) whose points are then asked for one by one (one
// engine hit each — the response cache has never seen those bodies),
// then a scrape, then one fresh budget (a miss).
func TestServerHitRatioWindow(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postDocGet(t, ts.URL+"/metrics") // open the window
	req := cheapRequest(t)
	body, err := sccl.EncodeParetoRequest(sccl.ParetoRequest{Kind: req.Kind, Topo: req.Topo, K: 1, MaxSteps: 3, MaxChunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postDoc(t, ts.URL+"/v1/pareto", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s", resp.Status, data)
	}
	pts, err := sccl.DecodeFrontier(data)
	if err != nil || len(pts) == 0 {
		t.Fatalf("frontier %d points: %v", len(pts), err)
	}
	post := func(b sccl.Budget, want string) {
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
		if got := resp.Header.Get("X-SCCL-Cache"); got != want {
			t.Fatalf("%v: X-SCCL-Cache = %q, want %q", b, got, want)
		}
	}
	for _, p := range pts {
		post(sccl.Budget{C: p.C, S: p.S, R: p.R}, "miss")
	}
	hits := float64(len(pts))
	if got, want := metricValue(t, ts, "sccl_engine_hit_ratio_window"), hits/(hits+1); got != want {
		t.Errorf("window over %d hits and 1 miss = %v, want %v", len(pts), got, want)
	}
	post(sccl.Budget{C: 1, S: 4, R: 4}, "miss")
	if got := metricValue(t, ts, "sccl_engine_hit_ratio_window"); got != 0 {
		t.Errorf("window over 1 miss = %v, want 0", got)
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

	before := srv.eng.CacheStats().SessionProbes
	post(sccl.Budget{C: 1, S: 2, R: 4})
	if d := srv.eng.CacheStats().SessionProbes - before; d < 1 {
		t.Fatalf("fresh in-window miss: mega selects +%d, want >= 1", d)
	}
	if n := srv.megaWarms.Load(); n != 1 {
		t.Fatalf("mega warms = %d after an in-window miss, want 1", n)
	}
}

// TestServerRejectsMalformed pins the 400 path for undecodable and
// invalid documents: the same bad bytes posted twice are decoded (and
// rejected) twice, and leave no alias behind.
func TestServerRejectsMalformed(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	bad := [][]byte{
		[]byte(`{"format":"nope"}`),
		[]byte(`not json`),
		// Well-formed, but the root is out of range.
		bytes.Replace(encodeReq(t, cheapRequest(t)), []byte(`"root":0`), []byte(`"root":7`), 1),
	}
	for _, path := range []string{"/v1/synthesize", "/v1/pareto"} {
		for _, doc := range bad {
			before := srv.metrics.Decodes.Load()
			for i := 0; i < 2; i++ {
				if code, _, _, data := postTo(t, ts, path, doc); code != http.StatusBadRequest {
					t.Fatalf("%s %s (post %d): %d %s, want 400", path, doc, i, code, data)
				}
			}
			if d := srv.metrics.Decodes.Load() - before; d != 2 {
				t.Fatalf("%s %s: %d decodes for two posts, want 2", path, doc, d)
			}
		}
	}
	if n := srv.aliases.len(); n != 0 {
		t.Fatalf("%d aliases after only malformed requests, want 0", n)
	}
}

// --- panics ---

// TestGroupRecoversPanic pins that a panicking computation is an error,
// not a crash: the caller gets it, the key leaves the in-flight table,
// and a later Do on the same key runs afresh.
func TestGroupRecoversPanic(t *testing.T) {
	var g Group
	var execs atomic.Int64
	boom := func(context.Context) ([]byte, error) {
		execs.Add(1)
		panic("sat: literal references unallocated variable")
	}
	_, _, err := g.Do(context.Background(), context.Background(), "k", boom)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want a recovered panic", err)
	}
	if n := g.Inflight(); n != 0 {
		t.Fatalf("inflight = %d after a panic, want 0", n)
	}
	val, _, err := g.Do(context.Background(), context.Background(), "k", func(context.Context) ([]byte, error) {
		execs.Add(1)
		return []byte("ok"), nil
	})
	if err != nil || string(val) != "ok" || execs.Load() != 2 {
		t.Fatalf("rerun after a panic: %q, %v, %d runs; want ok, nil, 2", val, err, execs.Load())
	}
}

// TestServerSolvePanicIs500 drives a panicking solve through the
// server's answer path with two coalesced waiters: both get a 500, the
// error counter counts both, and nothing is cached.
func TestServerSolvePanicIs500(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	gate := make(chan struct{})
	boom := func(context.Context) ([]byte, error) {
		<-gate
		panic(errors.New("sat: literal references unallocated variable"))
	}
	recs := []*httptest.ResponseRecorder{httptest.NewRecorder(), httptest.NewRecorder()}
	var wg sync.WaitGroup
	for _, rec := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodPost, "/v1/synthesize", nil)
			srv.answer(rec, req, "poisoned", "family", time.Now(), boom)
		}()
	}
	waitWaiters(t, srv, len(recs))
	close(gate)
	wg.Wait()
	for i, rec := range recs {
		if rec.Code != http.StatusInternalServerError {
			t.Errorf("waiter %d: %d %q, want 500", i, rec.Code, rec.Body.String())
		}
	}
	if n := srv.metrics.Errors.Load(); n != uint64(len(recs)) {
		t.Fatalf("errors = %d, want %d", n, len(recs))
	}
	if srv.cache.Len() != 0 || srv.flights.Inflight() != 0 {
		t.Fatalf("after a panic: %d cached, %d in flight; want 0 and 0", srv.cache.Len(), srv.flights.Inflight())
	}
}

// waitWaiters blocks until the server's one in-flight computation has n
// waiters attached.
func waitWaiters(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		srv.flights.mu.Lock()
		got := 0
		for _, c := range srv.flights.calls {
			got = c.waiters
		}
		srv.flights.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters on the in-flight computation after 30s, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// --- answering by body digest ---

// postTo posts body to path and returns the status, the cache and
// fingerprint headers, and the response bytes.
func postTo(t *testing.T, ts *httptest.Server, path string, body []byte) (code int, source, fp string, data []byte) {
	t.Helper()
	resp, data := postDoc(t, ts.URL+path, body)
	return resp.StatusCode, resp.Header.Get("X-SCCL-Cache"), resp.Header.Get("X-SCCL-Fingerprint"), data
}

func encodeReq(t *testing.T, req sccl.Request) []byte {
	t.Helper()
	body, err := sccl.EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestServerAliasScopedByEndpoint: a sweep document answered on
// /v1/pareto is still a 400 on /v1/synthesize, never the frontier.
func TestServerAliasScopedByEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := cheapRequest(t)
	sweep, err := sccl.EncodeParetoRequest(sccl.ParetoRequest{Kind: req.Kind, Topo: req.Topo, K: 1, MaxSteps: 3, MaxChunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if code, _, _, data := postTo(t, ts, "/v1/pareto", sweep); code != http.StatusOK {
			t.Fatalf("pareto: %d %s", code, data)
		}
	}
	if code, _, _, data := postTo(t, ts, "/v1/synthesize", sweep); code != http.StatusBadRequest {
		t.Fatalf("sweep document on /v1/synthesize: %d %.80s, want 400", code, data)
	}
}

// TestServerRespelledRequestHits: the same request with different
// whitespace pays one decode, is answered as a hit with the same
// fingerprint and bytes, and is aliased from then on.
func TestServerRespelledRequestHits(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	body := encodeReq(t, cheapRequest(t))
	code, _, fp, first := postTo(t, ts, "/v1/synthesize", body)
	if code != http.StatusOK {
		t.Fatalf("%d %s", code, first)
	}
	var spaced bytes.Buffer
	if err := json.Indent(&spaced, body, " ", "\t"); err != nil {
		t.Fatal(err)
	}
	decodes := srv.metrics.Decodes.Load()
	for i := 0; i < 3; i++ {
		code, source, gotFP, data := postTo(t, ts, "/v1/synthesize", spaced.Bytes())
		if code != http.StatusOK || source != "hit" || gotFP != fp || !bytes.Equal(data, first) {
			t.Fatalf("respelled post %d: %d %q %q, want a byte-identical 200 hit under %s", i, code, source, gotFP, fp)
		}
	}
	if d := srv.metrics.Decodes.Load() - decodes; d != 1 {
		t.Fatalf("respelled request decoded %d times over three posts, want 1", d)
	}
	if n := srv.aliases.len(); n != 2 {
		t.Fatalf("%d aliases, want 2 (one per spelling)", n)
	}
}

// TestServerStaleAliasDecodes evicts the response an alias points at
// (CacheEntries: 1 leaves one entry per shard) and checks the alias then
// costs a decode and still answers correctly.
func TestServerStaleAliasDecodes(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheEntries: 1})
	base := cheapRequest(t)
	// Two requests whose responses share a cache shard while their
	// aliases do not: answering the second evicts the first response and
	// leaves the first alias resident.
	type cand struct {
		body []byte
		fp   string
		key  aliasKey
	}
	var cands []cand
	for c := 1; c <= 3; c++ {
		for s := 2; s <= 4; s++ {
			for r := s; r <= s+2; r++ {
				req := base
				req.Budget = sccl.Budget{C: c, S: s, R: r}
				fp, err := srv.eng.Fingerprint(req)
				if err != nil {
					t.Fatal(err)
				}
				body := encodeReq(t, req)
				cands = append(cands, cand{body, fp, aliasKey{aliasSynthesize, sha256.Sum256(body)}})
			}
		}
	}
	var a, b *cand
	for i := range cands {
		for j := i + 1; j < len(cands) && a == nil; j++ {
			if srv.cache.shard(cands[i].fp) == srv.cache.shard(cands[j].fp) && srv.aliases.shard(cands[i].key) != srv.aliases.shard(cands[j].key) {
				a, b = &cands[i], &cands[j]
			}
		}
	}
	if a == nil {
		t.Fatal("no two candidate requests share a response-cache shard")
	}
	code, _, _, first := postTo(t, ts, "/v1/synthesize", a.body)
	if code != http.StatusOK {
		t.Fatalf("%d %s", code, first)
	}
	if code, _, _, data := postTo(t, ts, "/v1/synthesize", b.body); code != http.StatusOK {
		t.Fatalf("%d %s", code, data)
	}
	if fp, ok := srv.aliases.get(a.key); !ok || fp != a.fp {
		t.Fatalf("alias of the first request = %q, %v; want %s", fp, ok, a.fp)
	}
	if _, ok := srv.cache.Get(a.fp); ok {
		t.Fatal("the first response survived; the test needs it evicted")
	}
	decodes := srv.metrics.Decodes.Load()
	code, source, fp, data := postTo(t, ts, "/v1/synthesize", a.body)
	if code != http.StatusOK || source != "miss" || fp != a.fp {
		t.Fatalf("stale alias: %d %q %q, want a 200 miss under %s", code, source, fp, a.fp)
	}
	if d := srv.metrics.Decodes.Load() - decodes; d != 1 {
		t.Fatalf("stale alias: %d decodes, want 1", d)
	}
	want, err := sccl.DecodeResult(first)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sccl.DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	wantAlg, _ := sccl.EncodeAlgorithm(want.Algorithm)
	gotAlg, _ := sccl.EncodeAlgorithm(got.Algorithm)
	if got.Status != want.Status || got.Fingerprint != want.Fingerprint || !bytes.Equal(gotAlg, wantAlg) {
		t.Fatalf("stale alias answered %v %s, want %v %s with the same algorithm", got.Status, got.Fingerprint, want.Status, want.Fingerprint)
	}
	if code, source, _, again := postTo(t, ts, "/v1/synthesize", a.body); code != http.StatusOK || source != "hit" || !bytes.Equal(again, data) {
		t.Fatalf("after the re-answer: %d %q, want a byte-identical 200 hit", code, source)
	}
}

// TestServerUnknownNeverAliased: a request whose solve runs out of time
// answers Unknown, is not cached, and its replay solves again instead of
// being served from the alias its first decode recorded.
func TestServerUnknownNeverAliased(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	topo, err := sccl.ParseTopology("dgx1")
	if err != nil {
		t.Fatal(err)
	}
	body := encodeReq(t, sccl.Request{Kind: sccl.Allgather, Topo: topo, Budget: sccl.Budget{C: 6, S: 3, R: 7}, Timeout: time.Nanosecond})
	for i := 0; i < 2; i++ {
		code, source, _, data := postTo(t, ts, "/v1/synthesize", body)
		if code != http.StatusOK || source != "miss" {
			t.Fatalf("post %d: %d %q %.80s, want a 200 miss", i, code, source, data)
		}
		res, err := sccl.DecodeResult(data)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != sccl.Unknown {
			t.Fatalf("post %d: status %v, want Unknown under a 1ns timeout", i, res.Status)
		}
	}
	if s, d := srv.metrics.Solves.Load(), srv.metrics.Decodes.Load(); s != 2 || d != 2 {
		t.Fatalf("%d solves and %d decodes for two timed-out posts, want 2 and 2", s, d)
	}
}

// TestServerHitCostIndependentOfFabric pins what a daemon hit costs
// server-side: the same allocations for a ring:4 request document as for
// a torus:6x6 or torus3d:4x4x4 one, many times its size. Every answer
// comes from a loaded library entry, so nothing is solved.
func TestServerHitCostIndependentOfFabric(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	h := srv.Handler()
	specs := []string{"ring:4", "torus:6x6", "torus3d:4x4x4"}
	allocs := map[string]float64{}
	for _, spec := range specs {
		topo, err := sccl.ParseTopology(spec)
		if err != nil {
			t.Fatal(err)
		}
		req := sccl.Request{Kind: sccl.Allgather, Topo: topo, Budget: sccl.Budget{C: 1, S: 1, R: 1}}
		fp, err := srv.eng.Fingerprint(req)
		if err != nil {
			t.Fatal(err)
		}
		lib := fmt.Sprintf(`{"format":%q,"entries":[{"fingerprint":%q,"kind":"Allgather","topology":%q,"root":0,"budget":{"c":1,"s":1,"r":1},"status":"UNSAT"}]}`,
			sccl.FormatLibrary, fp, topo.Name)
		if _, err := srv.eng.LoadLibrary(strings.NewReader(lib)); err != nil {
			t.Fatal(err)
		}
		body := encodeReq(t, req)
		serve := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/synthesize", bytes.NewReader(body)))
			return rec
		}
		if rec := serve(); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", spec, rec.Code, rec.Body)
		}
		allocs[spec] = testing.AllocsPerRun(50, func() {
			if rec := serve(); rec.Header().Get("X-SCCL-Cache") != "hit" {
				t.Fatalf("%s: not a hit", spec)
			}
		})
	}
	for _, spec := range specs[1:] {
		if allocs[spec] != allocs[specs[0]] {
			t.Fatalf("allocations per daemon hit %v; want one figure for every fabric", allocs)
		}
	}
}

// --- the serve-replay script, reduced ---

// metricValue scrapes one unlabelled series from a daemon's /metrics.
func metricValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	_, data := postDocGet(t, ts.URL+"/metrics")
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			var f float64
			if _, err := fmt.Sscan(v, &f); err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("metrics carry no %s", name)
	return 0
}

// TestServerReplayCountsPinned runs a reduced serve-replay script (the
// benchmark's serving day) on an in-process daemon configured like the
// harness's and pins its counts: cold misses, a two-client herd that
// costs exactly one solve, replays that neither solve nor decode, and a
// snapshot whose warm-restarted daemon answers every request without an
// engine miss. The requests are taken from the harness's cold set.
func TestServerReplayCountsPinned(t *testing.T) {
	rows := []struct {
		topo string
		kind sccl.Kind
		b    sccl.Budget
		want sccl.Status
	}{
		{"dgx1", sccl.Allgather, sccl.Budget{C: 6, S: 3, R: 7}, sccl.Sat},
		{"hypercube:3", sccl.Allgather, sccl.Budget{C: 3, S: 3, R: 7}, sccl.Sat},
		{"hypercube:3", sccl.Alltoall, sccl.Budget{C: 3, S: 3, R: 3}, sccl.Unsat},
		{"torus:3x3", sccl.Alltoall, sccl.Budget{C: 4, S: 3, R: 5}, sccl.Sat},
		{"ring:9", sccl.Alltoall, sccl.Budget{C: 1, S: 8, R: 36}, sccl.Sat},
		// The herd request, on a topology of its own.
		{"fc:8", sccl.Alltoall, sccl.Budget{C: 8, S: 2, R: 2}, sccl.Sat},
	}
	bodies := make([][]byte, len(rows))
	for i, row := range rows {
		topo, err := sccl.ParseTopology(row.topo)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = encodeReq(t, sccl.Request{Kind: row.kind, Topo: topo, Budget: row.b})
	}
	herd := len(rows) - 1
	lib := filepath.Join(t.TempDir(), "lib.json")
	start := func() (*Server, *httptest.Server) {
		return newTestServer(t, Config{Engine: sccl.NewEngine(sccl.EngineOptions{Workers: 1}), SolveSlots: 1, LibraryPath: lib})
	}
	srv, ts := start()

	// Cold misses.
	first := make([][]byte, len(rows))
	for i := range rows[:herd] {
		code, source, _, data := postTo(t, ts, "/v1/synthesize", bodies[i])
		if code != http.StatusOK || source != "miss" {
			t.Fatalf("cold %s: %d %q %.80s", rows[i].topo, code, source, data)
		}
		first[i] = data
	}

	// The herd: hold the one solve slot so the leader queues inside its
	// flight, attach the second client, then let the solve run.
	release, err := srv.adm.Acquire(context.Background(), "hold")
	if err != nil {
		t.Fatal(err)
	}
	solves := metricValue(t, ts, "sccl_serve_solves_total")
	herdData := make([][]byte, 2)
	var wg sync.WaitGroup
	for c := range herdData {
		for c == 1 && srv.flights.Inflight() == 0 {
			time.Sleep(time.Millisecond)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code, _, _, data := postTo(t, ts, "/v1/synthesize", bodies[herd]); code == http.StatusOK {
				herdData[c] = data
			}
		}()
	}
	waitWaiters(t, srv, 2)
	release()
	wg.Wait()
	if herdData[0] == nil || !bytes.Equal(herdData[0], herdData[1]) {
		t.Fatal("the herd's two clients did not read the same 200 body")
	}
	first[herd] = herdData[0]
	if n := metricValue(t, ts, "sccl_serve_solves_total") - solves; n != 1 {
		t.Fatalf("herd solves = %g, want 1", n)
	}
	if n := metricValue(t, ts, "sccl_serve_coalesced_total"); n != 1 {
		t.Fatalf("coalesced = %g, want 1", n)
	}
	for i, row := range rows {
		res, err := sccl.DecodeResult(first[i])
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != row.want {
			t.Fatalf("%s %v %v: %v, want %v", row.topo, row.kind, row.b, res.Status, row.want)
		}
	}

	// Replays, round robin over every solved request.
	solves = metricValue(t, ts, "sccl_serve_solves_total")
	decodes := metricValue(t, ts, "sccl_serve_request_decodes_total")
	for i := 0; i < 100; i++ {
		j := i % len(rows)
		if code, source, _, data := postTo(t, ts, "/v1/synthesize", bodies[j]); code != http.StatusOK || source != "hit" || !bytes.Equal(data, first[j]) {
			t.Fatalf("replay %d of %s: %d %q, want a byte-identical 200 hit", i, rows[j].topo, code, source)
		}
	}
	if n := metricValue(t, ts, "sccl_serve_solves_total") - solves; n != 0 {
		t.Fatalf("replays solved %g times, want 0", n)
	}
	if n := metricValue(t, ts, "sccl_serve_request_decodes_total") - decodes; n != 0 {
		t.Fatalf("replays decoded %g times, want 0", n)
	}
	// The script's solver work, as the engine exports it: one Workers:1
	// engine solves the same formulas every run.
	got := [2]float64{metricValue(t, ts, "sccl_engine_sat_conflicts_total"), metricValue(t, ts, "sccl_engine_quotient_fallbacks_total")}
	if want := [2]float64{2366, 0}; got != want {
		t.Errorf("engine conflicts, quotient fallbacks = %v, want %v", got, want)
	}

	// Snapshot, warm restart on a fresh engine, every request again.
	if err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	_, ts2 := start()
	for i, row := range rows {
		code, _, _, data := postTo(t, ts2, "/v1/synthesize", bodies[i])
		if code != http.StatusOK {
			t.Fatalf("warm %s: %d %s", row.topo, code, data)
		}
		got, err := sccl.DecodeResult(data)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := sccl.DecodeResult(first[i])
		gotAlg, _ := sccl.EncodeAlgorithm(got.Algorithm)
		wantAlg, _ := sccl.EncodeAlgorithm(want.Algorithm)
		if got.Status != want.Status || !bytes.Equal(gotAlg, wantAlg) {
			t.Fatalf("warm %s: %v, want %v with the same algorithm", row.topo, got.Status, want.Status)
		}
	}
	if n := metricValue(t, ts2, "sccl_engine_misses_total"); n != 0 {
		t.Fatalf("restarted daemon: %g engine misses, want 0", n)
	}
}

// Package serve is the synthesis-as-a-service layer: an HTTP/JSON
// daemon fronting a long-lived sccl.Engine. It adds what a shared
// service needs on top of the engine's caches — per-fingerprint request
// coalescing (a thundering herd on one hard instance runs exactly one
// solve), a mutex-striped response cache so cache-hit lookups never
// contend on the engine lock or re-encode JSON (and a replayed request
// document is found by the digest of its bytes, without a decode),
// admission control so one pathological sweep cannot starve lookups,
// Prometheus-style metrics, and library-backed warm start and snapshots.
package serve

import (
	"context"
	"fmt"
	"sync"
)

// call is one in-flight coalesced computation. The result fields are
// written exactly once, before done is closed; waiters read them only
// after <-done.
type call struct {
	done chan struct{}
	val  []byte
	err  error
	// waiters counts the requests still wanting the result (guarded by
	// the Group mutex). When the last one abandons — every client
	// disconnected — cancel tears down the shared computation so an
	// orphaned solve stops burning solver time.
	waiters int
	cancel  context.CancelFunc
}

// Group coalesces concurrent computations by key: while a computation
// for a key is in flight, further Do calls with the same key wait for
// its result instead of starting their own. The zero Group is ready to
// use.
type Group struct {
	mu    sync.Mutex
	calls map[string]*call
}

// Do returns the result of fn for key, coalescing concurrent callers:
// the first caller runs fn in a fresh goroutine, later callers share
// the one result. shared reports whether this caller joined an already
// in-flight computation. A panic in fn becomes every waiter's error, and
// the key is free for a fresh computation afterwards.
//
// fn runs under a context derived from base (the server's lifetime, not
// any single request): one impatient client must not cancel a solve
// other clients are still waiting on. Each waiter waits under its own
// ctx; a waiter whose ctx ends before fn returns gets ctx.Err() — and
// when the last waiter leaves, the shared context is cancelled so the
// computation itself is reclaimed.
func (g *Group) Do(ctx, base context.Context, key string, fn func(context.Context) ([]byte, error)) (val []byte, shared bool, err error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*call)
	}
	if c, ok := g.calls[key]; ok {
		c.waiters++
		g.mu.Unlock()
		return g.wait(ctx, c, true)
	}
	cctx, cancel := context.WithCancel(base)
	c := &call{done: make(chan struct{}), waiters: 1, cancel: cancel}
	g.calls[key] = c
	g.mu.Unlock()
	go func() {
		c.val, c.err = run(cctx, fn)
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
		cancel()
	}()
	return g.wait(ctx, c, false)
}

// run calls fn and turns a panic into its error, so a poisoned solve (a
// solver invariant tripping on one request) costs that request's waiters
// an error instead of taking the daemon down.
func run(ctx context.Context, fn func(context.Context) ([]byte, error)) (val []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			val, err = nil, fmt.Errorf("serve: solve panicked: %v", p)
		}
	}()
	return fn(ctx)
}

func (g *Group) wait(ctx context.Context, c *call, shared bool) ([]byte, bool, error) {
	select {
	case <-c.done:
		return c.val, shared, c.err
	case <-ctx.Done():
		g.mu.Lock()
		c.waiters--
		abandoned := c.waiters == 0
		g.mu.Unlock()
		if abandoned {
			c.cancel()
		}
		return nil, shared, ctx.Err()
	}
}

// Inflight returns the number of in-flight coalesced computations.
func (g *Group) Inflight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}

package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/serve"
)

// cmdServe runs the synthesis daemon: a long-lived engine behind
// HTTP/JSON endpoints (POST /v1/synthesize, POST /v1/pareto,
// GET /v1/algorithms/{fingerprint}, GET /healthz, GET /metrics), with
// per-fingerprint request coalescing, a sharded response cache,
// admission control, and library-backed warm start and snapshots.
// SIGINT/SIGTERM drain in-flight requests, snapshot the library, and
// close the engine.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:7333", "listen address")
	library := fs.String("library", "", "algorithm library JSON: warm-start from it, snapshot back to it")
	snapshotEvery := fs.Duration("snapshot-every", 5*time.Minute, "periodic library snapshot interval (0 = only on shutdown)")
	shards := fs.Int("shards", 0, "response-cache lock stripes (0 = 64)")
	cacheEntries := fs.Int("cache-entries", 0, "response-cache capacity (0 = 65536)")
	solveSlots := fs.Int("solve-slots", 0, "concurrent solves admitted (0 = GOMAXPROCS)")
	queuePerFamily := fs.Int("queue-per-family", 0, "queued-or-running solves per collective+topology family (0 = 16)")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second, "graceful-shutdown drain deadline")
	quiet := fs.Bool("quiet", false, "suppress daemon lifecycle lines on stderr")
	ef := addEngineFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	eng := ef.build()
	slots := *solveSlots
	if slots < 1 {
		slots = runtime.GOMAXPROCS(0)
	}
	progress := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", a...)
	}
	if *quiet {
		progress = nil
	}
	srv, err := serve.New(serve.Config{
		Engine:         eng,
		LibraryPath:    *library,
		SnapshotEvery:  *snapshotEvery,
		Shards:         *shards,
		CacheEntries:   *cacheEntries,
		SolveSlots:     slots,
		QueuePerFamily: *queuePerFamily,
		DrainTimeout:   *drainTimeout,
		Progress:       progress,
	})
	if err != nil {
		eng.Close()
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return srv.Run(ctx, *addr)
}

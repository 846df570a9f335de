package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	sccl "repro"
)

// opTimeout bounds every probe and request; running into it fails the
// operation.
const opTimeout = 60 * time.Second

// minPasses is the fewest timed passes a run reports a median over.
const minPasses = 3

// workload is one set of inputs the benchmark runs. A pass is the
// workload's whole script on a fresh Engine: cold caches, cold session
// pool, and for serve-replay a fresh daemon.
type workload interface {
	// prepare builds the inputs from the seed and loads the references.
	prepare(seed int64, tmpdir string) error
	// fabrics lists the topology specs the workload runs on.
	fabrics() []string
	// pass runs the script once. tr is nil in untraced passes.
	pass(tr *tracer) passOut
	// probes runs the layer probes that are not part of a pass and only
	// the traced run needs (direct encoder calls, lowering, library
	// save and load), adding their metrics to m.
	probes(tr *tracer, last passOut, m metricSet)
}

// passOut is what one pass measured.
type passOut struct {
	// wall is the whole pass, engine construction and teardown included.
	wall time.Duration
	// missWall is the wall of the pass's cold-miss phase: every operation
	// of a synthesis workload, the twelve distinct cold requests of
	// serve-replay.
	missWall time.Duration
	// hitRPS is answers per second from cache: the pass's operations
	// asked again of the same engine, or HTTP response-cache hits.
	hitRPS float64
	ops    opCount
	// layer holds per-pass layer numbers by metric name; samples holds
	// per-operation latencies pooled over passes before a percentile is
	// taken.
	layer   map[string]float64
	samples map[string][]float64
	// witnesses are the Sat algorithms the pass produced, for the
	// algorithm and lowering layers; answered are exact-budget requests
	// whose answers the pass left in the engine's algorithm cache, and
	// library is that cache as saved after a traced pass (nil otherwise),
	// for the engine layer.
	witnesses []*sccl.Algorithm
	answered  []sccl.Request
	library   []byte
}

type metricSet map[string]float64

func newWorkload(name string) workload {
	switch name {
	case "table4-dgx1":
		return &table4Workload{}
	case "pareto-rings", "pareto-chains", "pareto-fabrics":
		return &paretoWorkload{name: name}
	case "serve-replay":
		return &serveWorkload{}
	}
	return nil
}

// runWorkload runs one workload in this process and prints its report.
func runWorkload(w io.Writer, spec *benchSpec, name string, opts options) (runRecord, error) {
	rec := runRecord{Workload: name, Seed: opts.seed, Trace: opts.trace}
	wl := newWorkload(name)
	if wl == nil {
		return rec, fmt.Errorf("workload %q is in BENCHMARK.json but not in the harness", name)
	}
	if err := wl.prepare(opts.seed, opts.tmpdir); err != nil {
		return rec, fmt.Errorf("prepare %s: %w", name, err)
	}
	var total opCount
	// One untimed warm-up pass: the first pass of a process pays for heap
	// growth the later ones do not. Its answers are checked like any
	// other's.
	warm := wl.pass(nil)
	total.add(warm.ops)
	setup := time.Since(processStart)

	var tr *tracer
	if opts.trace == 1 {
		tr = newTracer()
	}
	var plain, traced []passOut
	var mem0 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&mem0)
	}
	// An untraced run times at least minPasses passes. A traced run
	// alternates untraced and traced passes, so the two medians it
	// compares saw the same machine, and needs one pair.
	began := time.Now()
	enough := func(i int) bool {
		switch {
		case tr != nil && i%2 == 1:
			return false // finish the pair
		case tr != nil && opts.passes > 0:
			return i >= 2*opts.passes
		case opts.passes > 0:
			return i >= opts.passes
		case tr != nil && i < 2, tr == nil && i < minPasses:
			return false
		}
		return time.Since(began).Seconds() >= opts.seconds
	}
	for i := 0; !enough(i); i++ {
		runtime.GC()
		if tr != nil && i%2 == 1 {
			traced = append(traced, wl.pass(tr))
		} else {
			plain = append(plain, wl.pass(nil))
		}
	}
	all := append(append([]passOut(nil), plain...), traced...)
	for _, p := range all {
		total.add(p.ops)
	}

	metrics := metricSet{}
	if tr == nil {
		endToEnd(metrics, setup, plain)
	} else {
		var mem1 runtime.MemStats
		runtime.ReadMemStats(&mem1)
		layerMetrics(metrics, all, spec)
		runtimeMetrics(metrics, mem0, mem1, len(all))
		metrics["trace_overhead_pct"] = 100 * (medianWall(traced) - medianWall(plain)) / medianWall(plain)
		last := traced[len(traced)-1]
		commonProbes(tr, wl, last, opts.seed, metrics)
		wl.probes(tr, last, metrics)
		if opts.traceOut != "" {
			if err := writeTraceFile(opts.traceOut, name, tr.spans); err != nil {
				return rec, err
			}
		}
	}

	rec.Correct = total.failed == 0
	rec.Attempted, rec.Failed = total.attempted, total.failed
	specs := spec.EndToEnd
	if tr != nil {
		specs = spec.PerLayer
	}
	known := map[string]bool{}
	rec.Metrics = map[string]value{}
	fmt.Fprintf(w, "workload %s  seed %d  trace %d  passes %d (+1 warm-up)\n", name, opts.seed, opts.trace, len(plain)+len(traced))
	for _, ms := range specs {
		known[ms.Name] = true
		v, measured := metrics[ms.Name]
		rec.Metrics[ms.Name] = value{Value: v, Unit: ms.Unit}
		note := ""
		if !measured {
			note = "  (not applicable to this workload)"
		}
		fmt.Fprintf(w, "  %-36s %16.6g %-8s%s\n", ms.Name, v, ms.Unit, note)
	}
	var stray []string
	for k := range metrics {
		if !known[k] {
			stray = append(stray, k)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return rec, fmt.Errorf("harness produced metrics BENCHMARK.json does not list: %v", stray)
	}
	if tr == nil {
		fmt.Fprintf(w, "  pass_wall_s over %d passes: %s\n", len(plain), quartileLine(walls(plain)))
	} else {
		for _, lt := range selfTimes(tr.spans) {
			fmt.Fprintf(w, "  span %-28s n=%-6d total %10.3f ms  self %10.3f ms\n", lt.Name, lt.Count, secs(lt.Total)*1e3, secs(lt.Self)*1e3)
		}
	}
	fmt.Fprintf(w, "  failed_share %g  (%d failed of %d operations)\n", total.share(), total.failed, total.attempted)
	if total.firstErr != "" {
		fmt.Fprintf(w, "  first failure: %s\n", total.firstErr)
	}
	return rec, nil
}

func walls(ps []passOut) []float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = secs(p.wall)
	}
	return xs
}

func medianWall(ps []passOut) float64 { return median(walls(ps)) }

func quartileLine(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("median %.6g  q1 %.6g  q3 %.6g  n=%d", median(xs), q1, q3, len(xs))
}

// endToEnd fills the metrics of an untraced run: medians over its timed
// passes, set-up time, and the peak resident set of this process.
func endToEnd(m metricSet, setup time.Duration, passes []passOut) {
	var miss, hit []float64
	for _, p := range passes {
		miss = append(miss, secs(p.missWall))
		hit = append(hit, p.hitRPS)
	}
	m["setup_s"] = secs(setup)
	m["pass_wall_s"] = medianWall(passes)
	m["miss_wall_s"] = median(miss)
	m["hit_rps"] = median(hit)
	m["peak_rss_mb"] = peakRSSMB()
}

// peakRSSMB is ru_maxrss of this process, which on Linux is in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// layerMetrics folds the per-pass layer numbers into one value each and
// the pooled latency samples into percentiles. Times and ratios are
// medians over the passes. Counts are those of the last pass, whole
// numbers as the program reported them: the session solvers are not
// deterministic from pass to pass (carried learnts and, on amd, probes
// differ between identical sweeps), and a median of differing counts
// would be a number no pass produced.
func layerMetrics(m metricSet, passes []passOut, spec *benchSpec) {
	counts := map[string]bool{}
	for _, ms := range spec.PerLayer {
		counts[ms.Name] = ms.Unit == "count"
	}
	byName := map[string][]float64{}
	pooled := map[string][]float64{}
	for _, p := range passes {
		for k, v := range p.layer {
			byName[k] = append(byName[k], v)
		}
		for k, v := range p.samples {
			pooled[k] = append(pooled[k], v...)
		}
	}
	for k, vs := range byName {
		if counts[k] {
			m[k] = vs[len(vs)-1]
		} else {
			m[k] = median(vs)
		}
	}
	for k, vs := range pooled {
		for _, pc := range samplePercentiles[k] {
			v, ok := percentile(vs, pc.p)
			if !ok {
				fmt.Fprintf(os.Stderr, "bench: %s has fewer than ten of %d samples beyond it\n", pc.metric, len(vs))
			}
			m[pc.metric] = v
		}
	}
}

// samplePercentiles names the percentiles reported of each pooled
// latency sample. The percentile in a metric's name is fixed, so that
// the name means one thing; each was chosen as the highest the sample
// count of a default traced run supports.
var samplePercentiles = map[string][]struct {
	metric string
	p      float64
}{
	"engine.synthesize_ms": {{"engine.synthesize_p50_ms", 50}, {"engine.synthesize_p80_ms", 80}},
	"serve.hit_us":         {{"serve.hit_p50_us", 50}, {"serve.hit_p99_us", 99}},
	"serve.miss_ms":        {{"serve.miss_p50_ms", 50}},
	"serve.pareto_hit_us":  {{"serve.pareto_hit_us", 50}},
}

// runtimeMetrics reports the Go runtime's own counters over the timed
// passes of this process.
func runtimeMetrics(m metricSet, a, b runtime.MemStats, passes int) {
	n := float64(passes)
	m["runtime.alloc_mb_per_pass"] = float64(b.TotalAlloc-a.TotalAlloc) / n / (1 << 20)
	m["runtime.mallocs_per_pass"] = float64(b.Mallocs-a.Mallocs) / n
	m["runtime.gc_cycles"] = float64(b.NumGC - a.NumGC)
	m["runtime.gc_pause_ms"] = float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6
	m["runtime.peak_heap_mb"] = float64(b.HeapSys) / (1 << 20)
}

func writeTraceFile(path, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, workload, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

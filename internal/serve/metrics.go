package serve

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket latency histogram safe for concurrent
// observation: cumulative rendering happens at scrape time, so the hot
// path is one atomic add per observation. Buckets are exponential —
// 100µs doubling up to ~105s — which spans sub-millisecond cache hits
// and minutes-long pathological solves in one instrument.
type Histogram struct {
	// uppers are bucket upper bounds in seconds, ascending; counts has
	// one extra slot for +Inf.
	uppers []float64
	counts []atomic.Uint64
	sum    atomic.Uint64 // nanoseconds
	total  atomic.Uint64
}

// NewLatencyHistogram builds the standard serve latency histogram.
func NewLatencyHistogram() *Histogram {
	uppers := make([]float64, 21)
	b := 100e-6
	for i := range uppers {
		uppers[i] = b
		b *= 2
	}
	return &Histogram{uppers: uppers, counts: make([]atomic.Uint64, len(uppers)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(h.uppers, s)
	h.counts[i].Add(1)
	h.sum.Add(uint64(d.Nanoseconds()))
	h.total.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) of the
// observed durations: the upper edge of the bucket the quantile falls
// in (+Inf reports the largest finite edge). Zero with no observations.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i >= len(h.uppers) {
				i = len(h.uppers) - 1
			}
			return time.Duration(h.uppers[i] * float64(time.Second))
		}
	}
	return time.Duration(h.uppers[len(h.uppers)-1] * float64(time.Second))
}

// write renders the histogram in Prometheus text exposition format.
func (h *Histogram) write(w io.Writer, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	for i, upper := range h.uppers {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, strconv.FormatFloat(upper, 'g', -1, 64), cum)
	}
	cum += h.counts[len(h.uppers)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sum.Load())/1e9)
	fmt.Fprintf(w, "%s_count %d\n", name, h.total.Load())
}

// Metrics holds the serve-side counters and histograms. All fields are
// safe for concurrent use; the exporter renders them together with the
// engine's CacheStats in Prometheus text format.
type Metrics struct {
	// Requests counts HTTP requests per endpoint.
	mu       sync.Mutex
	requests map[string]*atomic.Uint64

	// Solves counts engine solves actually started (singleflight
	// leaders); Coalesced counts requests that attached to an in-flight
	// identical solve instead of starting their own.
	Solves    atomic.Uint64
	Coalesced atomic.Uint64
	// Overloads counts admission rejections (429s); Abandoned counts
	// requests whose client disconnected before the answer was ready.
	Overloads atomic.Uint64
	Abandoned atomic.Uint64
	// Errors counts requests answered with a 4xx/5xx other than 429.
	Errors atomic.Uint64
	// Decodes counts request documents decoded; a replayed document is
	// answered by the digest of its bytes and does not count.
	Decodes atomic.Uint64

	// QueueWait observes the admission wait of each solve leader;
	// SolveWall the engine wall of each solve; HitLatency the
	// end-to-end handler time of response-cache hits.
	QueueWait  *Histogram
	SolveWall  *Histogram
	HitLatency *Histogram
}

// NewMetrics builds an empty metrics set.
func NewMetrics() *Metrics {
	return &Metrics{
		requests:   make(map[string]*atomic.Uint64),
		QueueWait:  NewLatencyHistogram(),
		SolveWall:  NewLatencyHistogram(),
		HitLatency: NewLatencyHistogram(),
	}
}

// CountRequest records one request against an endpoint label.
func (m *Metrics) CountRequest(endpoint string) {
	m.mu.Lock()
	c, ok := m.requests[endpoint]
	if !ok {
		c = new(atomic.Uint64)
		m.requests[endpoint] = c
	}
	m.mu.Unlock()
	c.Add(1)
}

// writeCounter renders one counter metric with HELP/TYPE headers.
func writeCounter(w io.Writer, name, help string, v uint64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

// writeGauge renders one gauge metric with HELP/TYPE headers.
func writeGauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}

// write renders the serve-side metrics in Prometheus text format.
func (m *Metrics) write(w io.Writer) {
	m.mu.Lock()
	endpoints := make([]string, 0, len(m.requests))
	for ep := range m.requests {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)
	counts := make(map[string]uint64, len(endpoints))
	for _, ep := range endpoints {
		counts[ep] = m.requests[ep].Load()
	}
	m.mu.Unlock()

	fmt.Fprint(w, "# HELP sccl_serve_requests_total Requests received, by endpoint.\n# TYPE sccl_serve_requests_total counter\n")
	for _, ep := range endpoints {
		fmt.Fprintf(w, "sccl_serve_requests_total{endpoint=%q} %d\n", ep, counts[ep])
	}
	writeCounter(w, "sccl_serve_solves_total", "Engine solves started (singleflight leaders).", m.Solves.Load())
	writeCounter(w, "sccl_serve_coalesced_total", "Requests coalesced onto an in-flight identical solve.", m.Coalesced.Load())
	writeCounter(w, "sccl_serve_overload_total", "Requests rejected 429 at admission.", m.Overloads.Load())
	writeCounter(w, "sccl_serve_abandoned_total", "Requests whose client disconnected before the answer.", m.Abandoned.Load())
	writeCounter(w, "sccl_serve_errors_total", "Requests answered with an error other than 429.", m.Errors.Load())
	writeCounter(w, "sccl_serve_request_decodes_total", "Request documents decoded (replayed documents are answered by body digest).", m.Decodes.Load())
	m.QueueWait.write(w, "sccl_serve_queue_wait_seconds", "Admission wait before each solve.")
	m.SolveWall.write(w, "sccl_serve_solve_wall_seconds", "Engine wall clock of each solve.")
	m.HitLatency.write(w, "sccl_serve_hit_latency_seconds", "Handler time of response-cache hits.")
}

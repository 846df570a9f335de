package main

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. The harness records
// spans itself, around its calls into each layer; nothing inside the
// program under test is instrumented.
type span struct {
	ID     int
	Parent int // 0 = root
	// Req is shared by every span of one request or sweep.
	Req   int
	Name  string
	Start time.Duration // since the tracer's epoch
	End   time.Duration
	// Tid is the client goroutine that recorded the span.
	Tid  int
	Args map[string]string
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newReq hands out the identifier the spans of one request share.
func (t *tracer) newReq() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, req, tid int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now, End: -1, Tid: tid})
	return len(t.spans)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// tag attaches a key/value to an open or closed span.
func (t *tracer) tag(id int, key, value string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	if s.Args == nil {
		s.Args = map[string]string{}
	}
	s.Args[key] = value
}

// split records, under a closed parent span, child intervals the harness
// cannot observe directly: the public stat struct of the call says how
// long each part took (encode, solve), not when, so the parts are laid
// end to end from the parent's start. Self time of the parent is then
// what the parts leave uncovered.
func (t *tracer) split(parent int, parts ...part) {
	if t == nil || parent == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	at := p.Start
	for _, pt := range parts {
		end := at + pt.d
		if end > p.End {
			end = p.End
		}
		t.spans = append(t.spans, span{
			ID: len(t.spans) + 1, Parent: parent, Req: p.Req, Name: pt.name,
			Start: at, End: end, Tid: p.Tid, Args: map[string]string{"from": "stats"},
		})
		at = end
	}
}

type part struct {
	name string
	d    time.Duration
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent, req int, fn func()) time.Duration {
	id := t.begin(name, parent, req, 0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(id)
	return d
}

// layerTime is the total and self time of every span with one name.
type layerTime struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// selfTimes computes, per span name, total time and self time: a span's
// duration minus the part of its interval its children cover (children
// may overlap each other and may stick out of the parent; both are
// handled by clipping and taking the union).
func selfTimes(spans []span) []layerTime {
	children := map[int][]span{}
	for _, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	byName := map[string]*layerTime{}
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		lt.Count++
		lt.Total += s.dur()
		lt.Self += s.dur() - covered(s, children[s.ID])
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			if v.b > curB {
				curB = v.b
			}
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// chromeEvent is one complete ("X") event of the chrome://tracing JSON
// object format (the same format internal/sim/trace.go writes for
// schedules).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChrome renders the spans as a chrome://tracing (Perfetto) file.
func writeChrome(w io.Writer, workload string, spans []span) error {
	type file struct {
		TraceEvents     []chromeEvent     `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		Meta            map[string]string `json:"otherData"`
	}
	f := file{DisplayTimeUnit: "ms", Meta: map[string]string{"workload": workload}, TraceEvents: []chromeEvent{}}
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		args := map[string]string{}
		for k, v := range s.Args {
			args[k] = v
		}
		args["id"] = strconv.Itoa(s.ID)
		args["parent"] = strconv.Itoa(s.Parent)
		args["req"] = strconv.Itoa(s.Req)
		cat, _, _ := strings.Cut(s.Name, ".")
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: s.Name, Cat: cat, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Tid, Args: args,
		})
	}
	return json.NewEncoder(w).Encode(f)
}

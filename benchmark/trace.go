package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one handler invocation seen by the benchmark's middleware. Spans of
// one request are joined by wall-clock containment (the traced pass runs one
// closed-loop client), so the request index is the shared identifier.
type span struct {
	Name  string        `json:"name"` // "<layer>.<op>": router.rank, meta.locate, worker.get, ...
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer owns the middleware mounted in front of every handler. It is always
// mounted; with tracing off a request costs one atomic load.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) time.Duration { return at.Sub(t.epoch) }

func (t *tracer) wrap(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		s := span{Name: layer + "." + spanOp(r), Start: t.since(start), End: t.since(end)}
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	})
}

// spanOp names the operation: the method for KV payload routes, else the
// last path segment (rank, load, access, locate, register, keys, ...).
func spanOp(r *http.Request) string {
	if strings.HasPrefix(r.URL.Path, "/kv/") {
		return strings.ToLower(r.Method)
	}
	return r.URL.Path[strings.LastIndexByte(r.URL.Path, '/')+1:]
}

// take returns the spans recorded so far, sorted by start, and clears them.
func (t *tracer) take() []span {
	t.mu.Lock()
	out := t.spans
	t.spans = nil
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// onPath reports whether a handler span sits on a rank request's critical
// path below the frontend: the three meta calls of a plan and the pool
// fetch. Stores, registers, un-registers and the router's residency polls
// run beside requests, not inside them.
func onPath(name string) bool {
	switch name {
	case "meta.access", "meta.access_batch", "meta.locate", "worker.get":
		return true
	}
	return false
}

// budget is the traced pass folded into per-layer self times (ms, means over
// requests unless noted).
type budget struct {
	clientMs     float64
	httpSelfMs   float64 // client latency − entry handler span
	proxySelfMs  float64 // router span − frontend span (dist only)
	serveSelfMs  float64 // frontend (or local server) span − children
	metaSelfMs   float64 // mean per on-path meta call
	metaCalls    float64 // per request
	getSelfMs    float64 // mean per worker GET
	getCalls     float64 // per request
	putSelfMs    float64 // mean per worker PUT/PATCH (off the request path)
	tileGapPct   float64 // median per-request |latency − Σ self| / latency
	clientMedian float64
}

// foldSpans attributes handler spans to the client-observed requests that
// contain them and computes self times: a layer's self time is its span
// minus the part of it its children cover. direct marks a pass whose callers
// invoked the program in-process, where the call itself is the only span.
func foldSpans(spans []span, reqs []span, direct bool) budget {
	var b budget
	if len(reqs) == 0 {
		return b
	}
	var metaN, getN, putN int
	var metaSum, getSum, putSum time.Duration
	for _, s := range spans {
		if s.Name == "worker.put" || s.Name == "worker.patch" {
			putN++
			putSum += s.dur()
		}
	}
	gaps := make([]float64, 0, len(reqs))
	lats := make([]float64, 0, len(reqs))
	next := 0
	for _, rq := range reqs {
		lat := rq.dur()
		lats = append(lats, ms(lat))
		b.clientMs += ms(lat)
		for next < len(spans) && spans[next].Start < rq.Start {
			next++
		}
		// entry is the outermost handler span (router or local server); for
		// a direct in-process call the call itself. front is the frontend's.
		var entry, front span
		if direct {
			entry = rq
		}
		var children []span
		for i := next; i < len(spans) && spans[i].Start < rq.End; i++ {
			s := spans[i]
			if s.End > rq.End {
				continue
			}
			switch {
			case s.Name == "router.rank" || s.Name == "server.rank":
				entry = s
			case s.Name == "frontend.rank":
				front = s
			case onPath(s.Name):
				children = append(children, s)
			}
		}
		serve := entry
		var proxySelf time.Duration
		if front.End > 0 {
			serve = front
			proxySelf = entry.dur() - front.dur()
		}
		var childSum time.Duration
		for _, c := range children {
			childSum += c.dur()
			if c.Name == "worker.get" {
				getN++
				getSum += c.dur()
			} else {
				metaN++
				metaSum += c.dur()
			}
		}
		httpSelf := lat - entry.dur()
		serveSelf := serve.dur() - covered(children, serve)
		b.httpSelfMs += ms(httpSelf)
		b.proxySelfMs += ms(proxySelf)
		b.serveSelfMs += ms(serveSelf)
		// Negative self times (a child outside its parent) are clamped, so a
		// nesting error widens the gap instead of cancelling out.
		total := max(httpSelf, 0) + max(proxySelf, 0) + max(serveSelf, 0) + childSum
		if entry.End == 0 {
			total = 0 // no handler span inside the request: nothing tiles
		}
		gaps = append(gaps, 100*math.Abs(ms(lat-total))/ms(lat))
	}
	n := float64(len(reqs))
	b.clientMs /= n
	b.httpSelfMs /= n
	b.proxySelfMs /= n
	b.serveSelfMs /= n
	b.metaCalls = float64(metaN) / n
	b.getCalls = float64(getN) / n
	b.metaSelfMs = ratio(ms(metaSum), float64(metaN))
	b.getSelfMs = ratio(ms(getSum), float64(getN))
	b.putSelfMs = ratio(ms(putSum), float64(putN))
	b.tileGapPct = median(gaps)
	b.clientMedian = median(lats)
	return b
}

// covered is the length of the union of the children's intervals clipped to
// the parent.
func covered(children []span, parent span) time.Duration {
	var total time.Duration
	edge := parent.Start
	for _, c := range children { // already sorted by start
		lo, hi := c.Start, c.End
		if lo < edge {
			lo = edge
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

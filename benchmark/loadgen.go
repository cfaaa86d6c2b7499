package main

import (
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"bat/internal/serving"
)

// oracleEvery: every 64th response is kept and re-derived after the timed
// region by a cache-less ranker.
const oracleEvery = 64

// sample is one attempted request.
type sample struct {
	idx int // stream index
	// at is when the request started, as an offset from the phase start: the
	// send instant in a closed loop, the due instant in the open loop.
	at, lat          time.Duration
	failed           bool // transport error, non-200 or degraded
	reused, computed int
	resp             *serving.RankResponse // kept for every oracleEvery-th index only
}

// phase is one load-generation pass over a plane.
type phase struct {
	samples  []sample
	lateness []float64 // open loop: ms each burst left after its due instant
	marks    []mark    // a gated pass: the probes of the machine, in start order
	// wall and cpu are the pass's length and the process CPU (user + system,
	// load generator included) it used.
	wall, cpu time.Duration
}

// measure runs drive — a whole pass — and fills in how long it took and the
// process CPU it used. A gated pass gets a gate to probe the machine with
// (quiet.go); otherwise g is nil.
func measure(gated bool, drive func(start time.Time, g *gate) *phase) *phase {
	start, cpu := time.Now(), processCPU()
	var g *gate
	if gated {
		g = newGate(start)
	}
	ph := drive(start, g)
	g.probe() // closes the last cell
	ph.wall, ph.cpu, ph.marks = time.Since(start), processCPU()-cpu, g.take()
	return ph
}

func (ph *phase) failed() int {
	n := 0
	for _, s := range ph.samples {
		if s.failed {
			n++
		}
	}
	return n
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// issue sends stream request idx and records the outcome. start is the
// instant latency counts from.
func (p *plane) issue(client *http.Client, idx int, phaseStart, start time.Time) sample {
	i := idx % len(p.st.reqs)
	resp, err := p.rank(client, p.st.reqs[i], p.st.bodies[i])
	s := sample{idx: idx, at: start.Sub(phaseStart), lat: time.Since(start)}
	if err != nil || resp.Degraded {
		s.failed = true
		return s
	}
	s.reused, s.computed = resp.ReusedTokens, resp.ComputedTokens
	if idx%oracleEvery == 0 {
		s.resp = resp
	}
	return s
}

// runClosed drives the plane with closed-loop clients for dur, each sending
// its next request only after the previous reply. Requests are taken in
// stream order from index from.
func (p *plane) runClosed(clients int, dur time.Duration, from int, gated bool) *phase {
	var next atomic.Int64
	next.Store(int64(from))
	perClient := make([][]sample, clients)
	return measure(gated, func(start time.Time, g *gate) *phase {
		deadline := start.Add(dur)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				client := newHTTPClient()
				defer client.CloseIdleConnections()
				for {
					g.probeDue()
					idx := int(next.Add(1) - 1)
					t0 := time.Now()
					if !t0.Before(deadline) {
						return
					}
					perClient[c] = append(perClient[c], p.issue(client, idx, start, t0))
				}
			}(c)
		}
		wg.Wait()
		ph := &phase{}
		for _, s := range perClient {
			ph.samples = append(ph.samples, s...)
		}
		return ph
	})
}

// traceBlock is how many consecutive requests of the traced pass run with
// the tracer in one state before it flips.
const traceBlock = 32

// runTraced drives the plane with one closed-loop client for dur, flipping
// the tracer every traceBlock requests. One client means the handler spans
// of a request nest inside its client span by wall clock alone; alternating
// blocks means the traced and untraced halves see the same minutes of the
// machine, so their difference is the tracer and not drift.
func (p *plane) runTraced(dur time.Duration, from int) (plain, traced *phase, reqSpans []span) {
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	plain, traced = &phase{}, &phase{}
	start := time.Now()
	for k := 0; time.Since(start) < dur; k++ {
		on := (k/traceBlock)%2 == 0
		p.tr.on.Store(on)
		t0 := time.Now()
		s := p.issue(client, from+k, start, t0)
		if on {
			traced.samples = append(traced.samples, s)
			reqSpans = append(reqSpans, span{Start: p.tr.since(t0), End: p.tr.since(t0.Add(s.lat))})
		} else {
			plain.samples = append(plain.samples, s)
		}
	}
	p.tr.on.Store(false)
	return plain, traced, reqSpans
}

// openCallers is how many parked goroutines stand ready to carry open-loop
// calls: enough that a burst never waits for a caller unless the program is
// more than seven bursts behind.
const openCallers = 64

// spinLead is how long before a due instant the open-loop generator stops
// sleeping and starts yielding: a loaded time.Sleep overshoots by up to 1.2 ms
// on the reference box, which alone would break the 1 ms lateness limit.
const spinLead = time.Millisecond

// probeLead is the least time before a due instant at which the open-loop
// generator still probes the machine: a probe takes 0.1-0.2 ms and must not
// make the burst late.
const probeLead = 500 * time.Microsecond

// sleepUntil returns at due, not a timer tick after it. Through the last
// spinLead it yields in a loop, so the generator takes a processor only while
// no goroutine of the program wants one. A gated pass probes the machine once
// on the way, in the gap where the program is idle.
func sleepUntil(due time.Time, g *gate) {
	if d := time.Until(due) - spinLead; d > 0 {
		time.Sleep(d)
	}
	if time.Until(due) >= probeLead {
		g.probe()
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// runOpen drives the plane on a fixed schedule: burstSize simultaneous
// in-process calls every burstEvery, whether or not earlier ones have
// returned. Latency counts from the due instant, so a stall charges every
// request it delays. The callers are parked goroutines, not threads or
// connections, so the scheduler is not the thing measured.
func (p *plane) runOpen(dur time.Duration, from int, gated bool) *phase {
	type job struct {
		idx int
		due time.Time
	}
	// Buffered for a full second of schedule, so a slow program shows up as
	// latency rather than as generator lateness.
	jobs := make(chan job, int(time.Second/p.w.burstEvery)*p.w.burstSize)
	perCaller := make([][]sample, openCallers)
	return measure(gated, func(start time.Time, g *gate) *phase {
		var wg sync.WaitGroup
		for c := 0; c < openCallers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for j := range jobs {
					perCaller[c] = append(perCaller[c], p.issue(nil, j.idx, start, j.due))
				}
			}(c)
		}
		ph := &phase{}
		idx := from
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * p.w.burstEvery)
			if due.Sub(start) >= dur {
				break
			}
			sleepUntil(due, g)
			ph.lateness = append(ph.lateness, ms(time.Since(due)))
			for b := 0; b < p.w.burstSize; b++ {
				jobs <- job{idx: idx, due: due}
				idx++
			}
		}
		close(jobs)
		wg.Wait()
		for _, s := range perCaller {
			ph.samples = append(ph.samples, s...)
		}
		return ph
	})
}

// runLoad drives the plane with the workload's own load shape; gated, it
// probes the machine as it goes.
func (p *plane) runLoad(clients int, dur time.Duration, from int, gated bool) *phase {
	if p.w.open {
		return p.runOpen(dur, from, gated)
	}
	return p.runClosed(clients, dur, from, gated)
}

package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The reference box does not run at one speed. Its vCPUs share their cores
// with other tenants, and for stretches of a tenth of a second to a whole
// minute the same code runs 1.7-1.9 times slower; how much of a 25 s run
// falls into such stretches changes from run to run (3-75% measured), so
// whole-run timings of an unchanged program spread by 10-60%. The stretches
// cannot be avoided, but they can be seen: a fixed piece of arithmetic that
// belongs to the benchmark, not to the program, reads one of two speeds. A
// gate runs that probe between requests throughout the measured pass, and the
// timings count only the work that ran between two probes that both found the
// machine at its full speed. The probe knows nothing of the program's
// latency, so this is not a best-of selection: a stall, a collection or an
// eviction storm of the program's own falls between quiet probes as often as
// anywhere and counts in full.
const (
	// gateEvery is the least time between two probes of a closed loop; the
	// open loop probes in the idle gap before each burst.
	gateEvery = 10 * time.Millisecond
	// quietShare of the pass's fastest probe is what a probe must reach for
	// the machine to count as undisturbed at that instant. The two speeds are
	// 2.6-2.7 and 1.3-1.9 GFLOP/s on the reference box.
	quietShare = 0.9
	// minQuietSamples is the least number of full responses between quiet
	// probes the timings may rest on. A pass with fewer (the machine was
	// disturbed almost throughout) reports whole-pass timings and says so.
	minQuietSamples = 500
	probeN          = 32 // the probe multiplies two probeN x probeN matrices
	probeReps       = 4  // and keeps the fastest of this many repetitions
)

// mark is one probe of the machine: when it ran (offsets from the pass
// start), the process CPU at both ends, and the speed it read.
type mark struct {
	start, end time.Duration
	cpu0, cpu1 time.Duration
	gflops     float64
}

// gate probes the machine during one load pass. A nil gate probes nothing.
type gate struct {
	passStart time.Time
	last      atomic.Int64 // start of the latest probe, ns after passStart

	mu      sync.Mutex // one probe at a time: they share the matrices
	a, b, c [probeN * probeN]float32
	marks   []mark
}

func newGate(passStart time.Time) *gate {
	g := &gate{passStart: passStart}
	g.last.Store(-int64(gateEvery))
	for i := range g.a {
		g.a[i], g.b[i] = float32(i%7)*0.1, float32(i%5)*0.2
	}
	return g
}

// probeDue probes if the last probe is gateEvery old. Closed-loop clients
// call it before every request.
func (g *gate) probeDue() {
	if g == nil {
		return
	}
	now, last := int64(time.Since(g.passStart)), g.last.Load()
	if now-last >= int64(gateEvery) && g.last.CompareAndSwap(last, now) {
		g.probe()
	}
}

// probe times probeReps small matrix products (about 25 us each at full
// speed) and records the fastest: a repetition the scheduler interrupted reads
// slow, and the fastest of four is only slow when the machine is.
func (g *gate) probe() {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	m := mark{start: time.Since(g.passStart), cpu0: processCPU()}
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		for i := 0; i < probeN; i++ {
			out := g.c[i*probeN : (i+1)*probeN]
			for k := 0; k < probeN; k++ {
				aik, row := g.a[i*probeN+k], g.b[k*probeN:(k+1)*probeN]
				for j := range out {
					out[j] = out[j]*0.5 + aik*row[j] // halved each step, so it stays bounded
				}
			}
		}
		if gf := 3 * probeN * probeN * probeN / time.Since(t0).Seconds() / 1e9; gf > m.gflops {
			m.gflops = gf
		}
	}
	m.end, m.cpu1 = time.Since(g.passStart), processCPU()
	g.marks = append(g.marks, m)
}

func (g *gate) take() []mark {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	sort.Slice(g.marks, func(i, j int) bool { return g.marks[i].start < g.marks[j].start })
	return g.marks
}

// quietPass is the part of a pass that ran while the machine was undisturbed.
type quietPass struct {
	lat       []float64     // ms, full responses that ran between quiet probes, in start order
	wall, cpu time.Duration // summed over the quiet cells, probes excluded
	done      int           // full responses completed inside quiet cells
	probes    int           // all probes of the pass
	quiet     int           // probes that found the machine undisturbed
	ref       float64       // the fastest probe, GFLOP/s
}

// quietPart picks out of full responses (in start order) and marks (in start
// order) the work done on an undisturbed machine. A cell is the time between
// two consecutive probes; it is quiet when both were. A response counts
// towards latency when every probe from the last one before it started to the
// first one after it ended was quiet, and towards throughput and CPU in the
// cell it completed in.
func quietPart(full []sample, marks []mark) quietPass {
	q := quietPass{probes: len(marks)}
	for _, m := range marks {
		q.ref = max(q.ref, m.gflops)
	}
	// disturbed[i] counts the disturbed probes among marks[:i].
	disturbed := make([]int, len(marks)+1)
	for i, m := range marks {
		disturbed[i+1] = disturbed[i]
		if m.gflops < quietShare*q.ref {
			disturbed[i+1]++
		}
	}
	q.quiet = len(marks) - disturbed[len(marks)]

	ends := make([]time.Duration, len(full))
	for i, s := range full {
		ends[i] = s.at + s.lat
		lo := sort.Search(len(marks), func(k int) bool { return marks[k].start > s.at }) - 1
		hi := sort.Search(len(marks), func(k int) bool { return marks[k].start >= ends[i] })
		if lo >= 0 && hi < len(marks) && disturbed[hi+1] == disturbed[lo] {
			q.lat = append(q.lat, ms(s.lat))
		}
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	completedBy := func(t time.Duration) int {
		return sort.Search(len(ends), func(k int) bool { return ends[k] >= t })
	}
	for i := 0; i+1 < len(marks); i++ {
		if disturbed[i+2] != disturbed[i] {
			continue
		}
		q.wall += marks[i+1].start - marks[i].end
		q.cpu += marks[i+1].cpu0 - marks[i].cpu1
		q.done += completedBy(marks[i+1].end) - completedBy(marks[i].end)
	}
	return q
}

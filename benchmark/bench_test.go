package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the declarations in metrics.go")

func TestStreamFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := newStream(w, 7, 512)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, err := newStream(w, 7, 512)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		c, err := newStream(w, 8, 512)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		same, other := bytes.Join(a.bodies, nil), bytes.Join(c.bodies, nil)
		if !bytes.Equal(same, bytes.Join(b.bodies, nil)) {
			t.Errorf("%s: seed 7 gave two different request streams", w.name)
		}
		if bytes.Equal(same, other) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", w.name)
		}
		if !reflect.DeepEqual(a.ds.UserHistory, b.ds.UserHistory) {
			t.Errorf("%s: seed 7 gave two different datasets", w.name)
		}
		// The work a seed carries must not depend on the seed: the multiset of
		// history lengths is fixed by popularity rank.
		for r := 0; r < w.users; r++ {
			if got, want := len(c.ds.UserHistory[c.userOfRank[r]]), w.histLen(r); got != want {
				t.Fatalf("%s: rank %d history has %d tokens, want %d", w.name, r, got, want)
			}
			if l := w.histLen(r); l < w.histMin || l > w.histMax {
				t.Fatalf("%s: rank %d history length %d outside [%d,%d]", w.name, r, l, w.histMin, w.histMax)
			}
		}
	}
}

func TestDeclaredMetricsMatchManifest(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !valid.MatchString(d.Name) {
			t.Errorf("metric name %q is not a valid name", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, w := range workloads {
		if !valid.MatchString(w.name) || len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %q: name invalid or why of %d characters outside 1..200", w.name, len(w.why))
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}

	// BENCHMARK.json at the repo root must declare exactly what this package
	// emits: it is writeManifest's output, byte for byte.
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("BENCHMARK.json differs from the declarations in metrics.go; run `go test ./benchmark -run Manifest -update`")
	}
	var m manifest
	if err := json.Unmarshal(got, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) || m.RunSeconds != runSeconds {
		t.Errorf("manifest declares %d workloads, run_seconds %d", len(m.Workloads), m.RunSeconds)
	}
}

func TestPercentileAndWindowP99(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 50, 0.99: 99, 1: 100, 0.001: 1} {
		if got := percentile(hundred, q); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", q, got, want)
		}
	}
	if got := median([]float64{5, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}

	// Five windows of 1 000 samples in start order; window k reads k+1 ms
	// except for its slowest twenty, which read 100(k+1) ms. The p99s are
	// 100..500 ms and their median is window 2's, although the slowest window
	// would set a whole-run p99.
	var lat []float64
	for k := 0; k < p99Windows; k++ {
		for i := 0; i < minP99Samples; i++ {
			v := float64(k + 1)
			if i%50 == 0 {
				v *= 100
			}
			lat = append(lat, v)
		}
	}
	if p99, windows := windowP99(lat); p99 != 300 || windows != p99Windows {
		t.Errorf("windowP99 = %v over %d windows, want 300 over %d", p99, windows, p99Windows)
	}
	// Too few samples for five windows of 1 000: fewer windows, never a
	// window with under ten samples beyond its p99.
	if _, windows := windowP99(lat[:2*minP99Samples+10]); windows != 2 {
		t.Errorf("windowP99 over %d samples used %d windows, want 2", 2*minP99Samples+10, windows)
	}
	if p99, windows := windowP99(lat[:100]); p99 != 100 || windows != 1 {
		t.Errorf("windowP99 over 100 samples = %v over %d windows, want 100 over 1", p99, windows)
	}
}

func TestQuietPartCountsOnlyWorkBetweenQuietProbes(t *testing.T) {
	at := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// Probes every 10 ms, each 1 ms long and 1 ms of CPU; between probes the
	// process burns 5 ms of CPU. Probe 3 (at 30 ms) finds the machine slowed.
	var marks []mark
	for i := 0; i < 6; i++ {
		m := mark{start: at(10 * i), end: at(10*i + 1), cpu0: at(6 * i), cpu1: at(6*i + 1), gflops: 2.6}
		if i == 3 {
			m.gflops = 1.5
		}
		marks = append(marks, m)
	}
	full := []sample{
		{at: at(2), lat: at(3)},  // inside the quiet cell 0-10
		{at: at(4), lat: at(9)},  // ends at 13: spans probe 1, probes 0 to 2 all quiet
		{at: at(22), lat: at(3)}, // the cell 20-30 ends in the slowed probe
		{at: at(28), lat: at(5)}, // spans the slowed probe
		{at: at(41), lat: at(4)}, // inside the quiet cell 40-50
		{at: at(48), lat: at(9)}, // outlives the last probe: nothing vouches for its end
	}
	q := quietPart(full, marks)
	if want := []float64{3, 9, 4}; !reflect.DeepEqual(q.lat, want) {
		t.Errorf("quiet latencies %v, want %v", q.lat, want)
	}
	// Quiet cells are 0-10, 10-20 and 40-50: 9 ms of wall and 5 ms of CPU each
	// without their probes, and the responses that end at 5, 13 and 45 ms.
	if q.wall != at(27) || q.cpu != at(15) || q.done != 3 {
		t.Errorf("quiet cells: wall %v cpu %v done %d, want 27ms 15ms 3", q.wall, q.cpu, q.done)
	}
	if q.probes != 6 || q.quiet != 5 || q.ref != 2.6 {
		t.Errorf("probes %d quiet %d ref %v, want 6 5 2.6", q.probes, q.quiet, q.ref)
	}

	// A pass whose quiet part is too small to rest on reports itself whole.
	ph := &phase{samples: full, marks: marks, wall: at(60), cpu: at(36)}
	if tm := ph.timings(); tm.samples != len(full) || tm.rps != float64(len(full))/0.06 {
		t.Errorf("%d quiet samples: timings rest on %d samples at %v req/s, want the whole pass", len(q.lat), tm.samples, tm.rps)
	}
}

func TestFoldSpansTiles(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	at := func(name string, lo, hi int) span { return span{Name: name, Start: us(lo), End: us(hi)} }
	reqs := []span{at("", 0, 1000), at("", 2000, 3000)}
	spans := []span{
		// Request 0: 100 us of client HTTP, 100 us of proxy, three meta calls
		// and one fetch inside the frontend.
		at("router.rank", 50, 950),
		at("frontend.rank", 100, 900),
		at("meta.access", 110, 130),
		at("meta.access_batch", 140, 160),
		at("meta.locate", 170, 190),
		at("worker.get", 200, 300),
		// A residency poll and a write-behind store beside it: off the path.
		at("frontend.load", 400, 420),
		at("worker.put", 920, 990),
		// Request 1: the fetch outlives the frontend span, which cannot be.
		at("router.rank", 2050, 2950),
		at("frontend.rank", 2100, 2900),
		at("worker.get", 2800, 2950),
	}
	b := foldSpans(spans, reqs[:1], false)
	if b.tileGapPct != 0 {
		t.Errorf("well-nested request: tile gap %v%%, want 0", b.tileGapPct)
	}
	for name, got := range map[string]float64{
		"http self": b.httpSelfMs, "proxy self": b.proxySelfMs, "meta self": b.metaSelfMs,
		"get self": b.getSelfMs, "put self": b.putSelfMs,
	} {
		want := map[string]float64{"http self": 0.1, "proxy self": 0.1, "meta self": 0.02, "get self": 0.1, "put self": 0.07}[name]
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v ms, want %v", name, got, want)
		}
	}
	if b.metaCalls != 3 || b.getCalls != 1 {
		t.Errorf("calls per request: meta %v get %v, want 3 and 1", b.metaCalls, b.getCalls)
	}
	if want := 0.8 - 0.16; math.Abs(b.serveSelfMs-want) > 1e-9 {
		t.Errorf("frontend self = %v ms, want %v", b.serveSelfMs, want)
	}
	if bad := foldSpans(spans, reqs[1:], false); bad.tileGapPct < 4 {
		t.Errorf("child outside its parent: tile gap %v%%, want the 50 us overhang to show", bad.tileGapPct)
	}
}

// TestQuickSmoke runs every topology end to end for a moment and checks the
// oracle; one distributed and the open-loop workload also run the traced mode.
func TestQuickSmoke(t *testing.T) {
	o := options{seed: 3, seconds: 0.3, quick: true}
	for _, w := range workloads {
		r, err := measureEndToEnd(w, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d notes=%q", w.name, r.Correct, r.Attempted, r.Failed, r.notes)
		}
		if len(r.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics emitted, %d declared", w.name, len(r.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			// Attainment against a fixed limit may be 0 on a slowed machine
			// (the race detector); the driver's box is not.
			if v := r.Metrics[d.Name].Value; v <= 0 && d.Name != "slo_attainment" {
				t.Errorf("%s: %s = %v, end-to-end metrics must never be 0", w.name, d.Name, v)
			}
		}
	}
	for _, name := range []string{"dist_scan_mix", "local_burst_batch"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := traceLayers(w, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !r.Correct || r.Failed != 0 {
			t.Errorf("%s traced: correct=%v failed=%d notes=%q", name, r.Correct, r.Failed, r.notes)
		}
		if len(r.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, %d declared", name, len(r.Metrics), len(perLayer))
		}
		if name == "dist_scan_mix" && (r.Metrics["distserve.meta_calls_per_req"].Value != 3 || r.Metrics["trace.tile_gap_pct"].Value > maxTileGapPct) {
			t.Errorf("%s: traced budget off: meta calls %v, tile gap %v%%", name,
				r.Metrics["distserve.meta_calls_per_req"].Value, r.Metrics["trace.tile_gap_pct"].Value)
		}
	}
}

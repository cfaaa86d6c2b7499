package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile is the nearest-rank q-quantile (0 < q <= 1) of an ascending
// slice; 0 for an empty one.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median sorts a copy of vs and returns its middle value (mean of the two
// middle values for an even count); 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// windowP99 cuts latencies, given in the order the requests started, into
// p99Windows consecutive windows of equal sample count and returns the median
// of the windows' 99th percentiles: one disturbed stretch of a run moves one
// window, not the result. Every window must hold minP99Samples, so that ten
// samples lie beyond its p99; a run too short for that gets fewer windows
// (at least one), and the count is returned.
func windowP99(inStartOrder []float64) (p99 float64, windows int) {
	windows = min(p99Windows, len(inStartOrder)/minP99Samples)
	if windows < 1 {
		windows = 1
	}
	p99s := make([]float64, windows)
	for k := range p99s {
		lo, hi := k*len(inStartOrder)/windows, (k+1)*len(inStartOrder)/windows
		w := append([]float64(nil), inStartOrder[lo:hi]...)
		sort.Float64s(w)
		p99s[k] = percentile(w, 0.99)
	}
	return median(p99s), windows
}

// timings are the client-observed figures of one load pass.
type timings struct {
	rps, p50, p99, cpuMs float64 // cpuMs per full response
	samples              int     // full responses the latencies rest on
	note                 string  // the sample counts behind the figures
}

// timings folds a pass into its throughput, median latency and CPU per
// response, and the median of its windows' p99s (windowP99). Only full
// responses count. A gated pass that was quiet for long enough counts only
// its quiet part (quiet.go); any other pass counts whole.
func (ph *phase) timings() timings {
	sort.Slice(ph.samples, func(i, j int) bool { return ph.samples[i].at < ph.samples[j].at })
	full := make([]sample, 0, len(ph.samples))
	lat := make([]float64, 0, len(ph.samples))
	for _, s := range ph.samples {
		if !s.failed {
			full = append(full, s)
			lat = append(lat, ms(s.lat))
		}
	}
	done, wall, cpu := len(lat), ph.wall, ph.cpu
	gating := "not gated"
	if len(ph.marks) > 0 {
		q := quietPart(full, ph.marks)
		gating = fmt.Sprintf("machine quiet at %d of %d probes (fastest %.2f GFLOP/s), %d of %d samples between quiet probes",
			q.quiet, q.probes, q.ref, len(q.lat), len(lat))
		if len(q.lat) >= minQuietSamples {
			lat, done, wall, cpu = q.lat, q.done, q.wall, q.cpu
			gating += fmt.Sprintf(", %.2f s of quiet cells", wall.Seconds())
		} else {
			gating += fmt.Sprintf(": under %d, WHOLE-PASS timings", minQuietSamples)
		}
	}
	p99, windows := windowP99(lat)
	t := timings{rps: ratio(float64(done), wall.Seconds()), p50: median(lat), p99: p99, cpuMs: ratio(ms(cpu), float64(done)), samples: len(lat)}
	sort.Float64s(lat)
	t.note = fmt.Sprintf("%d samples over %.2f s; %s; p99 is the median of %d window(s) of %d samples, p99 of them all %.3f ms",
		len(ph.samples), ph.wall.Seconds(), gating, windows, len(lat)/windows, percentile(lat, 0.99))
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

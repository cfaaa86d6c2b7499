// Command benchmark is the repository's one rank-path benchmark: four
// workloads, the end-to-end metrics a caller of /v1/rank sees, and a traced
// per-layer budget. It builds each workload's topology from the layers'
// public constructors, replays a seeded request stream, verifies outputs
// against a cache-less ranker and prints every metric by name. It runs in one
// process: the per-layer run at the Go default GOMAXPROCS = nproc, the
// end-to-end run on one P. See README.md.
//
// The whole suite, both modes per workload:
//
//	go run ./benchmark -seed 11 [-repeat 5] [-quick] [-trace-out spans.jsonl]
//
// The driver's form runs one workload in one mode; benchmark/run.sh is the
// same program built with the Go caches kept inside the checkout:
//
//	bash benchmark/run.sh --workload dist_zipf_hit --seed 11 --seconds 25 --trace 0
//
// Every result ends with its one-line JSON object, so the driver's form ends
// with exactly one.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	var (
		name     = flag.String("workload", "", "run one workload (default: the whole suite)")
		seed     = flag.Int64("seed", 11, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace    = flag.Int("trace", -1, "0 = end-to-end metrics, 1 = per-layer metrics (default: both)")
		repeat   = flag.Int("repeat", 1, "run the suite N times and check the end-to-end metrics agree within their bounds")
		quick    = flag.Bool("quick", false, "smoke run: 1 s per pass, one set-up, no limits checked")
		traceOut = flag.String("trace-out", "", "write the traced pass's handler spans to this file (JSON lines)")
	)
	flag.Parse()
	o := options{seed: *seed, seconds: *seconds, quick: *quick, traceOut: *traceOut}
	if o.quick {
		o.seconds = 1
	}
	if o.seconds <= 0 || *repeat < 1 || *trace < -1 || *trace > 1 {
		fatal(fmt.Errorf("need -seconds > 0, -repeat >= 1 and -trace 0 or 1"))
	}
	selected := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		selected = []*workload{w}
	}
	fp := newFingerprint(o.seed)
	fmt.Printf("# bat rank-path benchmark: %s, %.0f s per run\n", fp, o.seconds)

	runs := make([]suiteRun, *repeat)
	ok := true
	for i := range runs {
		runs[i] = suiteRun{}
		for _, w := range selected {
			var pair [2]*result
			for mode, run := range []func(*workload, options) (*result, error){measureEndToEnd, traceLayers} {
				if *trace >= 0 && *trace != mode {
					continue
				}
				r, err := run(w, o)
				if err != nil {
					fatal(fmt.Errorf("%s: %w", w.name, err))
				}
				defs := endToEnd
				if mode == 1 {
					defs = perLayer
				}
				fmt.Printf("%s  trace=%d\n", w.name, mode)
				if err := r.print(os.Stdout, defs); err != nil {
					fatal(err)
				}
				ok = ok && r.Correct
				pair[mode] = r
			}
			runs[i][w.name] = pair
		}
	}
	if *repeat > 1 && !compareRuns(runs) {
		ok = false
	}

	if !ok {
		os.Exit(1)
	}
}

// suiteRun is one pass over the selected workloads: per workload, the
// end-to-end result and the per-layer result (nil when that mode was not run).
type suiteRun map[string][2]*result

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// compareRuns prints, per workload and end-to-end metric, the spread across
// the repeated runs against the metric's bound, and reports whether every
// pair of runs agrees within it.
func compareRuns(runs []suiteRun) bool {
	ok := true
	fmt.Printf("# agreement of %d runs (max-min over min, against the bound)\n", len(runs))
	names := make([]string, 0, len(runs[0]))
	for name := range runs[0] {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if runs[0][name][0] == nil {
			continue
		}
		for _, d := range endToEnd {
			vs := make([]float64, len(runs))
			for i, run := range runs {
				vs[i] = run[name][0].Metrics[d.Name].Value
			}
			sort.Float64s(vs)
			lo, hi := vs[0], vs[len(vs)-1]
			spread := ratio(hi-lo, lo)
			verdict := "ok"
			if spread > d.Bound {
				verdict, ok = "DISAGREE", false
			}
			fmt.Printf("  %-18s %-22s min %12.4f  median %12.4f  max %12.4f  spread %6.2f%%  bound %5.1f%%  %s\n",
				name, d.Name, lo, median(vs), hi, 100*spread, 100*d.Bound, verdict)
		}
	}
	return ok
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitHash reads the checked-out commit from .git without running git; the
// driver's checkout is not a repository, where it reports "unknown".
func commitHash() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if sum, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(sum))
	}
	return "unknown"
}

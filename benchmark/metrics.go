package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// runSeconds is how long one driver run measures (BENCHMARK.json's
// run_seconds): five 5-second windows, which on the slowest workload (about
// 240 req/s) still hold 1 000 samples each. ISSUE 12 proposed 30 s; the
// driver's 92 runs, each with three set-ups and the oracle, fit its time cap
// at 25.
const runSeconds = 25

// metricDef declares one emitted metric. bound (end-to-end only) is the share
// of the parent's median by which the metric may worsen before a change
// counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees; the same set on every workload.
//
// The builder's contract (quoted in README.md) shapes three things here. Every
// bound is a share of the parent's median and at most 0.25, so ISSUE 12's
// absolute bounds become relative ones. A metric may never read 0, so
// failed_share (0 by construction) and token_hit_rate (0 on local_long_miss)
// cannot be end-to-end metrics: both are emitted under those names per-layer,
// and the hit rate's complement, computed_token_share, carries its bound here.
// The benchmark is refused if ten seeds spread (quartile distance over median)
// by more than a bound, and the shared 2-vCPU reference VM spreads the timings
// by 6-20% from one quarter of an hour to the next with the program untouched,
// so the timing bounds are the ceiling, 0.25, not ISSUE 12's 5-10%. README.md
// records the spreads and what a performance claim needs instead.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "rank_rps", Unit: "req/s", Better: "higher", Bound: 0.25},
	{Name: "rank_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rank_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "slo_attainment", Unit: "share", Better: "higher", Bound: 0.03},
	{Name: "computed_token_share", Unit: "share", Better: "lower", Bound: 0.08},
	{Name: "cpu_ms_per_req", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

func lower(name, unit string) metricDef  { return metricDef{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }

// perLayer is the traced budget: module-prefixed, one row per layer number.
// Source key: H = handler-wrapper span in the traced pass, O = read from the
// program's exported counters over the load pass, P = direct-call probe.
var perLayer = []metricDef{
	// ISSUE 12's two end-to-end names that can read exactly 0 (see endToEnd)
	higher("token_hit_rate", "share"), // O
	lower("failed_share", "share"),    // all three passes
	// the end-to-end timings again, from the load pass at GOMAXPROCS = nproc
	higher("nproc.rank_rps", "req/s"),
	lower("nproc.rank_p50_ms", "ms"),
	lower("nproc.rank_p99_ms", "ms"),
	lower("nproc.cpu_ms_per_req", "ms"),
	// routing
	lower("routing.proxy_self_ms", "ms"),            // H
	lower("routing.pick_ns", "ns"),                  // P
	higher("routing.affinity_route_share", "share"), // O
	lower("routing.failovers", "count"),             // O
	// distserve: frontend / transfer engine
	lower("distserve.meta_self_ms", "ms"),              // H
	lower("distserve.meta_calls_per_req", "count"),     // H
	lower("distserve.fetch_ms", "ms"),                  // O
	lower("distserve.fetch_calls_per_req", "count"),    // O
	lower("distserve.rx_bytes_per_req", "bytes"),       // O
	higher("distserve.prefetched_plan_share", "share"), // O
	higher("distserve.coalesced_fetch_share", "share"), // O
	lower("distserve.fetch_error_share", "share"),      // O
	lower("distserve.hedged_fetch_share", "share"),     // O
	lower("distserve.store_ms", "ms"),                  // O
	lower("distserve.tx_bytes_per_req", "bytes"),       // O
	higher("distserve.delta_store_share", "share"),     // O
	lower("distserve.delta_fallback_share", "share"),   // O
	lower("distserve.store_drop_share", "share"),       // O
	higher("distserve.store_coalesced_share", "share"), // O
	// distserve: cache worker
	lower("distserve.worker_get_self_ms", "ms"),            // H
	lower("distserve.worker_put_self_ms", "ms"),            // H
	higher("distserve.worker_hit_share", "share"),          // O
	lower("distserve.worker_evictions_per_req", "count"),   // O
	lower("distserve.worker_append_reject_share", "share"), // O
	lower("distserve.cw_get_us", "us"),                     // P
	lower("distserve.cw_put_us", "us"),                     // P
	// serving core
	lower("serving.admit_ms", "ms"),                // O
	lower("serving.queue_ms", "ms"),                // O
	lower("serving.window_ms", "ms"),               // O
	lower("serving.plan_ms", "ms"),                 // O
	lower("serving.execute_ms", "ms"),              // O
	lower("serving.commit_ms", "ms"),               // O
	lower("serving.queue_p99_ms", "ms"),            // O
	higher("serving.avg_batch_size", "count"),      // O
	higher("serving.max_batch_size", "count"),      // O
	higher("serving.deduped_token_share", "share"), // O
	lower("serving.degraded_share", "share"),       // O
	lower("serving.shed_share", "share"),           // O
	lower("serving.stage_tile_gap_pct", "%"),       // O
	// scheduler / server
	higher("scheduler.ip_share", "share"),        // O
	higher("server.user_cache_entries", "count"), // O
	higher("server.item_cache_entries", "count"), // O
	// bipartite / model / tensor
	lower("bipartite.layout_build_us", "us"),        // P
	lower("bipartite.exec_hit_ms", "ms"),            // P
	lower("bipartite.exec_miss_ms", "ms"),           // P
	lower("bipartite.exec_batch8_ms_per_req", "ms"), // P
	higher("model.prefill_tok_s", "tok/s"),          // P
	lower("model.kv_bytes_per_token", "bytes"),      // P
	higher("model.kv_marshal_mb_s", "MB/s"),         // P
	higher("model.kv_unmarshal_mb_s", "MB/s"),       // P
	higher("model.kv_stream_decode_mb_s", "MB/s"),   // P
	// kvcache / cachemeta / admission
	lower("kvcache.pool_put_ns", "ns"),               // P
	lower("kvcache.pool_lookup_ns", "ns"),            // P
	lower("kvcache.pool_evictions_per_put", "count"), // P
	lower("cachemeta.record_access_ns", "ns"),        // P
	lower("cachemeta.locations_ns", "ns"),            // P
	lower("admission.acquire_release_ns", "ns"),      // P
	// machine ceilings and the harness itself
	higher("machine.memcpy_mb_s", "MB/s"),         // P
	lower("machine.loopback_rtt_ms", "ms"),        // P
	higher("machine.matmul_gflops", "GFLOP/s"),    // P
	lower("machine.sleep_overshoot_p99_ms", "ms"), // P
	lower("client.http_self_ms", "ms"),            // H
	lower("trace.tile_gap_pct", "%"),              // H
	lower("trace.overhead_pct", "%"),              // H
	lower("loadgen.lateness_p99_ms", "ms"),        // load pass
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []manifestWL `json:"workloads"`
	EndToEnd   []metricDef  `json:"end_to_end"`
	PerLayer   []metricDef  `json:"per_layer"`
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// writeManifest prints BENCHMARK.json from the declarations above, so the
// file and the emitted metric set cannot drift apart.
func writeManifest(w io.Writer) error {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer, // no bounds, so the key is omitted
	}
	for _, wl := range workloads {
		m.Workloads = append(m.Workloads, manifestWL{Name: wl.name, Why: wl.why})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(m)
}

// result is one workload's outcome in one mode (end-to-end or per-layer).
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// notes are the human-readable lines printed beside the metrics: sample
	// counts, oracle coverage, what failed a check.
	notes []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newResult packs measured values under their declared names and units. A
// declared metric without a value, or a value without a declaration, is a
// bug in the benchmark.
func newResult(defs []metricDef, values map[string]float64) (*result, error) {
	r := &result{Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s declared but not measured", d.Name)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		var extra []string
		for name := range values {
			if _, ok := r.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics measured but not declared: %v", extra)
	}
	return r, nil
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the metrics by name with their units, the notes, and last the
// result as the one-line JSON object the driver reads.
func (r *result) print(w io.Writer, defs []metricDef) error {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	out, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

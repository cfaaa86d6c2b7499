package main

import (
	"math"

	"bat/internal/admission"
	"bat/internal/serving"
)

// counters is a snapshot of the cumulative counters the program already
// exports (Stats(), Observer() stage histograms), summed over the topology's
// members. Per-layer metrics are differences between two snapshots, so
// warm-up never leaks into a measured pass.
type counters map[string]float64

func (c counters) minus(o counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

// stageNames are the histograms read from each serving.Observer: the six
// lifecycle stages plus the off-lifecycle fetch and store stages.
var stageNames = append(append([]string(nil), serving.LifecycleStages...), serving.StageFetch, serving.StageStore)

// addObserver folds one serving core's stage histograms in. The registry
// hands back the histogram the core already registered under each name.
func (c counters) addObserver(obs *serving.Observer) {
	reg := obs.Registry()
	for _, s := range stageNames {
		h := reg.LatencyHistogram(`bat_stage_latency_seconds{stage="` + s + `"}`)
		c["stage."+s+".n"] += float64(h.Count())
		c["stage."+s+".sum"] += h.Sum()
	}
	e2e := reg.LatencyHistogram("bat_request_latency_seconds")
	c["stage.e2e.n"] += float64(e2e.Count())
	c["stage.e2e.sum"] += e2e.Sum()
}

// coreStats is the serving-core slice that server.StatsResponse and
// distserve.FrontendStats both carry.
type coreStats struct {
	requests, userPrefix, itemPrefix, reused, computed, deduped, degraded, batches int64
	avgBatch                                                                       float64
	adm                                                                            admission.Stats
}

func (c counters) addCore(s coreStats, obs *serving.Observer) {
	c["requests"] += float64(s.requests)
	c["user_prefix"] += float64(s.userPrefix)
	c["item_prefix"] += float64(s.itemPrefix)
	c["reused"] += float64(s.reused)
	c["computed"] += float64(s.computed)
	c["deduped"] += float64(s.deduped)
	c["degraded"] += float64(s.degraded)
	c["batches"] += float64(s.batches)
	c["batched"] += s.avgBatch * float64(s.batches)
	c["admitted"] += float64(s.adm.Admitted)
	c["shed"] += float64(s.adm.ShedQueueFull + s.adm.ShedDeadline)
	c.addObserver(obs)
}

func (p *plane) snapshot() counters {
	c := counters{}
	if p.srv != nil {
		st := p.srv.Stats()
		c.addCore(coreStats{st.Requests, st.UserPrefix, st.ItemPrefix, st.ReusedTokens, st.ComputedTokens,
			st.DedupedTokens, st.DegradedRequests, st.Batches, st.AvgBatchSize, st.Admission}, p.srv.Observer())
	}
	for _, cl := range p.cells {
		st := cl.frontend.Stats()
		c.addCore(coreStats{st.Requests, st.UserPrefix, st.ItemPrefix, st.ReusedTokens, st.ComputedTokens,
			st.DedupedTokens, st.DegradedRequests, st.Batches, st.AvgBatchSize, st.Admission}, cl.frontend.Observer())
		c["rx"] += float64(st.RxBytes)
		c["tx"] += float64(st.TxBytes + st.TxDeltaBytes)
		c["prefetched"] += float64(st.PrefetchedPlans)
		c["coalesced"] += float64(st.CoalescedFetches)
		c["fetch_errors"] += float64(st.FetchErrors)
		c["hedged"] += float64(st.HedgedFetches)
		c["delta_stores"] += float64(st.DeltaStores)
		c["delta_fallbacks"] += float64(st.DeltaFallbacks)
		c["store_drops"] += float64(st.StoreDrops)
		c["store_coalesced"] += float64(st.StoreCoalesced)
		for _, w := range cl.workers {
			ws := w.Stats()
			c["w.hits"] += float64(ws.Hits)
			c["w.misses"] += float64(ws.Misses)
			c["w.evictions"] += float64(ws.Evictions)
			c["w.appends"] += float64(ws.Appends)
			c["w.append_rejects"] += float64(ws.AppendRejects)
		}
	}
	if p.router != nil {
		st := p.router.Stats()
		for _, n := range st.Decisions {
			c["decisions"] += float64(n)
		}
		c["affinity"] = float64(st.Decisions["cache-affinity"])
		c["failovers"] = float64(st.Failovers)
	}
	return c
}

// gauges reads the exported values that are levels, not counts.
func (p *plane) gauges() map[string]float64 {
	g := map[string]float64{}
	observe := func(obs *serving.Observer, maxBatch int64) {
		if q := obs.StageQuantile(serving.StageQueue, 0.99) * 1e3; q > g["queue_p99_ms"] {
			g["queue_p99_ms"] = q
		}
		if float64(maxBatch) > g["max_batch"] {
			g["max_batch"] = float64(maxBatch)
		}
	}
	if p.srv != nil {
		st := p.srv.Stats()
		observe(p.srv.Observer(), st.MaxBatchSize)
		g["user_entries"] = float64(st.UserCacheEntries)
		g["item_entries"] = float64(st.ItemCacheEntries)
	}
	for _, cl := range p.cells {
		observe(cl.frontend.Observer(), cl.frontend.Stats().MaxBatchSize)
		for _, w := range cl.workers {
			g["user_entries"] += float64(len(w.ResidentIDs("user", 0)))
			g["item_entries"] += float64(len(w.ResidentIDs("item", 0)))
		}
	}
	return g
}

// loadMetrics derives the counter-sourced (O) per-layer metrics of one load
// pass from the difference of two snapshots.
func loadMetrics(m map[string]float64, d counters, g map[string]float64) {
	reqs := d["requests"]
	fetches, stores := d["stage.fetch.n"], d["stage.store.n"]
	queued := stores + d["store_drops"] + d["store_coalesced"]

	m["routing.affinity_route_share"] = ratio(d["affinity"], d["decisions"])
	m["routing.failovers"] = d["failovers"]

	m["distserve.fetch_ms"] = 1e3 * ratio(d["stage.fetch.sum"], fetches)
	m["distserve.fetch_calls_per_req"] = ratio(fetches, reqs)
	m["distserve.rx_bytes_per_req"] = ratio(d["rx"], reqs)
	m["distserve.prefetched_plan_share"] = ratio(d["prefetched"], reqs)
	m["distserve.coalesced_fetch_share"] = ratio(d["coalesced"], fetches+d["coalesced"])
	m["distserve.fetch_error_share"] = ratio(d["fetch_errors"], fetches+d["fetch_errors"])
	m["distserve.hedged_fetch_share"] = ratio(d["hedged"], fetches)
	m["distserve.store_ms"] = 1e3 * ratio(d["stage.store.sum"], stores)
	m["distserve.tx_bytes_per_req"] = ratio(d["tx"], reqs)
	m["distserve.delta_store_share"] = ratio(d["delta_stores"], stores)
	m["distserve.delta_fallback_share"] = ratio(d["delta_fallbacks"], stores)
	m["distserve.store_drop_share"] = ratio(d["store_drops"], queued)
	m["distserve.store_coalesced_share"] = ratio(d["store_coalesced"], queued)

	m["distserve.worker_hit_share"] = ratio(d["w.hits"], d["w.hits"]+d["w.misses"])
	m["distserve.worker_evictions_per_req"] = ratio(d["w.evictions"], reqs)
	m["distserve.worker_append_reject_share"] = ratio(d["w.append_rejects"], d["w.appends"]+d["w.append_rejects"])

	// Stage sums are divided by the request count, not each stage's own
	// sample count, so the six means add up to the request mean.
	served := d["stage.e2e.n"]
	sum := 0.0
	for _, s := range serving.LifecycleStages {
		v := 1e3 * ratio(d["stage."+s+".sum"], served)
		m["serving."+s+"_ms"] = v
		sum += v
	}
	e2e := 1e3 * ratio(d["stage.e2e.sum"], served)
	m["serving.stage_tile_gap_pct"] = 100 * ratio(math.Abs(sum-e2e), e2e)
	// The two below are read from a cumulative histogram and a running
	// maximum, not differenced: warm-up (one client, so no queue and batches
	// of one) adds near-zero samples below the p99 and cannot raise the maximum.
	m["serving.queue_p99_ms"] = g["queue_p99_ms"]
	m["serving.avg_batch_size"] = ratio(d["batched"], d["batches"])
	m["serving.max_batch_size"] = g["max_batch"]
	m["serving.deduped_token_share"] = ratio(d["deduped"], d["computed"])
	m["serving.degraded_share"] = ratio(d["degraded"], reqs)
	m["serving.shed_share"] = ratio(d["shed"], d["admitted"]+d["shed"])
	m["token_hit_rate"] = ratio(d["reused"], d["reused"]+d["computed"])

	m["scheduler.ip_share"] = ratio(d["item_prefix"], d["user_prefix"]+d["item_prefix"])
	m["server.user_cache_entries"] = g["user_entries"]
	m["server.item_cache_entries"] = g["item_entries"]
}

// traceMetrics derives the handler-span (H) per-layer metrics of the traced
// pass.
func traceMetrics(m map[string]float64, b budget) {
	m["client.http_self_ms"] = b.httpSelfMs
	m["routing.proxy_self_ms"] = b.proxySelfMs
	m["distserve.meta_self_ms"] = b.metaSelfMs
	m["distserve.meta_calls_per_req"] = b.metaCalls
	m["distserve.worker_get_self_ms"] = b.getSelfMs
	m["distserve.worker_put_self_ms"] = b.putSelfMs
	m["trace.tile_gap_pct"] = b.tileGapPct
}

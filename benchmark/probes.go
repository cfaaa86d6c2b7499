package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"bat/internal/admission"
	"bat/internal/bipartite"
	"bat/internal/cachemeta"
	"bat/internal/distserve"
	"bat/internal/kvcache"
	"bat/internal/model"
	"bat/internal/ranking"
	"bat/internal/routing"
	"bat/internal/tensor"
)

// probeDiv divides every probe's iteration count in quick (smoke) mode.
const probeDiv = 20

// prober times direct calls; quick shortens every probe to a smoke run.
type prober struct{ quick bool }

// iters is how many calls a probe of n calls makes in this mode.
func (pr prober) iters(n int) int {
	if pr.quick {
		return n/probeDiv + 1
	}
	return n
}

// perOp times fn over three rounds of n calls and returns the median round's
// mean time per call.
func (pr prober) perOp(n int, fn func(i int)) time.Duration {
	n = pr.iters(n)
	rounds := make([]float64, 3)
	for r := range rounds {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		rounds[r] = float64(time.Since(start)) / float64(n)
	}
	return time.Duration(median(rounds))
}

func mbPerSec(bytes int, d time.Duration) float64 {
	return ratio(float64(bytes)/1e6, d.Seconds())
}

// machineProbes measures the ceilings every layer number reads against: a
// 1 MiB copy, a loopback GET of an empty body, and tensor.MatMul at the
// engine's shape (a median-length prefix through one 32-wide projection).
func (pr prober) machine(m map[string]float64) error {
	src, dst := make([]byte, 1<<20), make([]byte, 1<<20)
	m["machine.memcpy_mb_s"] = mbPerSec(len(src), pr.perOp(200, func(int) { copy(dst, src) }))

	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	defer srv.Close()
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	var rttErr error
	rtt := pr.perOp(300, func(int) {
		resp, err := client.Get(srv.URL)
		if err != nil {
			rttErr = err
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body) // empty body; drained so the connection is reused
		resp.Body.Close()
	})
	if rttErr != nil {
		return fmt.Errorf("loopback probe: %w", rttErr)
	}
	m["machine.loopback_rtt_ms"] = ms(rtt)

	// How late an idle time.Sleep returns: the floor under the open-loop
	// generator's lateness.
	over := make([]float64, 200)
	for i := range over {
		due := time.Now().Add(time.Millisecond)
		time.Sleep(time.Until(due))
		over[i] = ms(time.Since(due))
	}
	sort.Float64s(over)
	m["machine.sleep_overshoot_p99_ms"] = percentile(over, 0.99)

	const rows, width = 256, 32
	a, b, out := tensor.NewMatrix(rows, width), tensor.NewMatrix(width, width), tensor.NewMatrix(rows, width)
	for i := range a.Data {
		a.Data[i] = float32(i%7) - 3
	}
	for i := range b.Data {
		b.Data[i] = float32(i%5) - 2
	}
	mm := pr.perOp(2000, func(int) { tensor.MatMul(out, a, b) })
	m["machine.matmul_gflops"] = ratio(2*rows*width*width/1e9, mm.Seconds())
	return nil
}

// layerProbes times direct calls into each layer's public functions on
// inputs sampled from the workload's stream.
func (pr prober) layers(m map[string]float64, w *workload, st *stream) error {
	ranker, err := ranking.NewRanker(st.ds, ranking.VariantBase)
	if err != nil {
		return err
	}
	wts := ranker.W
	cfg := wts.Config()

	// Sixteen requests spread over the stream, each with its user-prefix
	// layout and the user cache a pool hit would have supplied.
	const sampled = 16
	layouts := make([]*bipartite.Layout, sampled)
	hits := make([]bipartite.CacheSet, sampled)
	evals := make([]ranking.EvalRequest, sampled)
	for i := range layouts {
		rq := st.reqs[i*len(st.reqs)/sampled]
		evals[i] = ranking.EvalRequest{User: rq.UserID, Candidates: rq.CandidateIDs}
		if layouts[i], err = ranker.BuildLayout(evals[i], bipartite.UserPrefix, false); err != nil {
			return err
		}
		hits[i].User = bipartite.ComputeUserCache(wts, layouts[i].Tokens[:layouts[i].PrefixLen])
	}
	var probeErr error
	note := func(err error) {
		if err != nil && probeErr == nil {
			probeErr = err
		}
	}
	m["bipartite.layout_build_us"] = 1e3 * ms(pr.perOp(2000, func(i int) {
		_, err := ranker.BuildLayout(evals[i%sampled], bipartite.UserPrefix, false)
		note(err)
	}))
	m["bipartite.exec_hit_ms"] = ms(pr.perOp(100, func(i int) {
		_, err := bipartite.Execute(wts, layouts[i%sampled], hits[i%sampled])
		note(err)
	}))
	m["bipartite.exec_miss_ms"] = ms(pr.perOp(50, func(i int) {
		_, err := bipartite.Execute(wts, layouts[i%sampled], bipartite.CacheSet{})
		note(err)
	}))
	batch := make([]bipartite.BatchItem, 8)
	m["bipartite.exec_batch8_ms_per_req"] = ms(pr.perOp(20, func(i int) {
		for j := range batch {
			k := (i*len(batch) + j) % sampled
			batch[j] = bipartite.BatchItem{Layout: layouts[k], Caches: hits[k]}
		}
		_, err := bipartite.ExecuteBatch(wts, batch)
		note(err)
	})) / float64(len(batch))

	// A prefix of the workload's mean history length.
	n := w.meanHistLen()
	tokens, positions := make([]int, n), make([]int, n)
	for i := range tokens {
		tokens[i] = st.ds.InteractionToken(i % datasetItems)
		positions[i] = i
	}
	var cache *model.KVCache
	fwd := pr.perOp(100, func(int) {
		cache = model.NewKVCache(cfg)
		wts.Forward(tokens, positions, nil, cache)
	})
	m["model.prefill_tok_s"] = ratio(float64(n), fwd.Seconds())
	m["model.kv_bytes_per_token"] = float64(cfg.KVBytesPerToken())

	var wire []byte
	m["model.kv_marshal_mb_s"] = mbPerSec(cache.EncodedSize(), pr.perOp(500, func(int) {
		wire, err = cache.MarshalBinary()
		note(err)
	}))
	into := model.NewKVCache(cfg)
	m["model.kv_unmarshal_mb_s"] = mbPerSec(len(wire), pr.perOp(500, func(int) { note(into.UnmarshalBinary(wire)) }))
	m["model.kv_stream_decode_mb_s"] = mbPerSec(len(wire), pr.perOp(500, func(int) {
		_, err := model.NewKVCache(cfg).ReadFrom(bytes.NewReader(wire))
		note(err)
	}))

	// A cache worker at capacity, driven with the workload's payload size:
	// every put evicts, every get hits.
	entries := w.cellUserEntries / workersPerCell
	if entries == 0 {
		entries = 64
	}
	cw, err := distserve.NewCacheWorker(int64(entries * len(wire)))
	if err != nil {
		return err
	}
	key := func(i int) string { return fmt.Sprintf("user/%d", i) }
	for i := 0; i < entries; i++ {
		note(cw.Put(key(i), wire))
	}
	const puts = 4000 // each round re-puts the same keys, so the last `entries` of them stay resident
	m["distserve.cw_put_us"] = 1e3 * ms(pr.perOp(puts, func(i int) { note(cw.Put(key(entries+i), wire)) }))
	last := entries + pr.iters(puts)
	m["distserve.cw_get_us"] = 1e3 * ms(pr.perOp(puts, func(i int) {
		if _, ok := cw.Get(key(last - 1 - i%entries)); !ok {
			note(fmt.Errorf("cache worker probe: resident key missing"))
		}
	}))

	// kvcache.Pool driven by the workload's own key and size stream, sized
	// like the plane's user cache — the continuity meter for when the live
	// planes move onto it.
	capacity := int64(entries*workersPerCell) * int64(n*cfg.KVBytesPerToken())
	pool, err := kvcache.NewPool(capacity, 16*cfg.KVBytesPerToken(), cfg.KVBytesPerToken(), kvcache.EvictLRU)
	if err != nil {
		return err
	}
	userKey := func(i int) kvcache.EntryKey {
		return kvcache.EntryKey{Kind: kvcache.UserEntry, ID: uint64(st.reqs[i%len(st.reqs)].UserID)}
	}
	poolPuts := 0
	m["kvcache.pool_put_ns"] = float64(pr.perOp(20000, func(i int) {
		rq := st.reqs[i%len(st.reqs)]
		pool.Put(userKey(i), len(st.ds.UserHistory[rq.UserID]), 1)
		poolPuts++
	}))
	m["kvcache.pool_evictions_per_put"] = ratio(float64(pool.Evictions), float64(poolPuts))
	m["kvcache.pool_lookup_ns"] = float64(pr.perOp(20000, func(i int) { pool.Lookup(userKey(i)) }))

	meta := cachemeta.New(300)
	for i := 0; i < w.users; i++ {
		meta.RegisterEntry(kvcache.EntryKey{Kind: kvcache.UserEntry, ID: uint64(i)}, cachemeta.WorkerID(i%workersPerCell))
	}
	m["cachemeta.record_access_ns"] = float64(pr.perOp(20000, func(i int) { meta.RecordAccess(userKey(i), float64(i)*1e-3) }))
	m["cachemeta.locations_ns"] = float64(pr.perOp(20000, func(i int) { meta.Locations(userKey(i)) }))

	ctl := admission.NewController(admission.Config{})
	m["admission.acquire_release_ns"] = float64(pr.perOp(20000, func(int) {
		g, err := ctl.Acquire(context.Background())
		if err != nil {
			note(err)
			return
		}
		g.Release()
	}))

	// The router's pick over two candidates whose residency summaries hold
	// half the users each.
	pipe := routing.NewPipeline(0)
	cands := make([]routing.Candidate, distCells)
	for c := range cands {
		sum := routing.NewSummary(0)
		for u := c; u < w.users; u += distCells {
			sum.Add(routing.EntryHash("user", uint64(u)))
		}
		cands[c] = routing.Candidate{Index: c, Alive: true, Resident: sum.Contains}
	}
	m["routing.pick_ns"] = float64(pr.perOp(20000, func(i int) {
		pipe.Pick(routing.Request{Key: routing.EntryHash("user", userKey(i).ID)}, cands)
	}))
	return probeErr
}

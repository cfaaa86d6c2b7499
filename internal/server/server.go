// Package server exposes the BAT serving mechanism as a real HTTP service:
// an executable transformer (internal/ranking's constructed GR), an
// in-process disaggregated cache holding per-item and per-user KV tensors,
// a hotness-aware prefix decision per request, and a JSON API. It is a thin
// adapter over the shared serving core (internal/serving), which owns the
// request lifecycle and the continuous-batching loop; the server's job is
// HTTP parsing plus the local cache backend: lock-free snapshot reads at
// plan time, serial admissions/evictions at batch boundaries.
package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bat/internal/admission"
	"bat/internal/bipartite"
	"bat/internal/cachemeta"
	"bat/internal/kvcache"
	"bat/internal/model"
	"bat/internal/partition"
	"bat/internal/ranking"
	"bat/internal/scheduler"
	"bat/internal/serving"
	"bat/internal/tensor"
)

// RankRequest and RankResponse are the shared serving types; aliased so the
// server API keeps its historical names.
type (
	RankRequest  = serving.RankRequest
	RankResponse = serving.RankResponse
)

// Config assembles a server.
type Config struct {
	Dataset *ranking.Dataset
	Variant ranking.ModelVariant
	// MaxUserCaches caps the user-cache entries held in memory (default 256).
	MaxUserCaches int
	// MaxItemCaches caps the item-cache entries held in memory (0 =
	// unbounded, the historical behavior). Items beyond the cap are evicted
	// in admission order at batch boundaries.
	MaxItemCaches int
	// Partition selects the capacity split between the user and item cache
	// classes: "static" (default) keeps MaxUserCaches/MaxItemCaches fixed;
	// "adaptive" runs a partition.Controller that re-divides the combined
	// entry budget by marginal hit-rate utility. Adaptive requires a bounded
	// MaxItemCaches (defaulted to 4096 when unset).
	Partition string
	// PartitionInterval is the adaptive controller's tick period (default 2s).
	PartitionInterval time.Duration
	// HotnessWindowSec configures the frequency estimator (default 300).
	HotnessWindowSec float64
	// PrecomputeItems builds every item's KV cache at startup (the paper's
	// offline item-cache initialization); otherwise items are cached on
	// first use.
	PrecomputeItems bool
	// TopK is the ranked-list length returned (default 10).
	TopK int
	// Policy decides the prefix; nil means hotness-aware.
	Policy scheduler.Policy
	// MultiDisc serves with the §4.2 multi-discriminant extension: one
	// discriminant token per candidate instead of a single shared one.
	MultiDisc bool
	// Admission tunes the overload ladder (in-flight bound, wait queue,
	// default deadline, degrade threshold). Zero value = defaults.
	Admission admission.Config
	// DegradedMaxCandidates caps the candidate set served in degraded mode
	// (default 16).
	DegradedMaxCandidates int
	// BatchWindow, WindowPolicy, and MaxBatch tune the serving core's
	// batch-forming loop (see serving.Config); zero values take the core
	// defaults (adaptive window).
	BatchWindow  time.Duration
	WindowPolicy string
	MaxBatch     int
	// TraceRing sizes the retained request-trace ring served at
	// GET /debug/trace (default 128).
	TraceRing int
	// BatchHook, when non-nil, runs before each batch executes (tests).
	BatchHook func(size int)
	// Now supplies time (injectable for tests); nil means time.Now.
	Now func() time.Time
}

// Server is the ranking service.
type Server struct {
	cfg  Config
	core *serving.Core
	be   *localBackend
	part *partition.Controller
}

// New builds a server.
func New(cfg Config) (*Server, error) {
	if cfg.Dataset == nil {
		return nil, fmt.Errorf("server: nil dataset")
	}
	if cfg.MaxUserCaches == 0 {
		cfg.MaxUserCaches = 256
	}
	if cfg.HotnessWindowSec == 0 {
		cfg.HotnessWindowSec = 300
	}
	if cfg.Policy == nil {
		cfg.Policy = scheduler.HotnessAware{}
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	mode := partition.Static
	if cfg.Partition != "" {
		var err error
		if mode, err = partition.ParseMode(cfg.Partition); err != nil {
			return nil, err
		}
	}
	if mode == partition.Adaptive && cfg.MaxItemCaches == 0 {
		// Adaptive re-division needs a bounded item class to trade against.
		cfg.MaxItemCaches = 4096
	}
	if cfg.PartitionInterval == 0 {
		cfg.PartitionInterval = 2 * time.Second
	}
	r, err := ranking.NewRanker(cfg.Dataset, cfg.Variant)
	if err != nil {
		return nil, err
	}
	retr, err := ranking.NewRetriever(cfg.Dataset, 0.9)
	if err != nil {
		return nil, err
	}
	be := &localBackend{
		cfg:   &cfg,
		meta:  cachemeta.New(cfg.HotnessWindowSec),
		start: cfg.Now(),
	}
	be.userBudget.Store(int64(cfg.MaxUserCaches))
	be.itemBudget.Store(int64(cfg.MaxItemCaches))
	state := &localState{
		items: make(map[int]*model.KVCache),
		users: make(map[int]*model.KVCache),
	}
	if cfg.PrecomputeItems {
		// Item caches are independent forwards, so build them across the
		// tensor worker pool, each into its own slot. Same caches as the
		// serial loop, just faster.
		items := make([]*model.KVCache, len(cfg.Dataset.ItemTokens))
		tensor.Parallel(len(items), func(i int) {
			items[i] = bipartite.ComputeItemCache(r.W, cfg.Dataset.ItemTokens[i])
		})
		for i, c := range items {
			state.items[i] = c
			state.itemLRU = append(state.itemLRU, i)
		}
	}
	be.snap.Store(state)
	core, err := serving.NewCore(serving.Config{
		Dataset:               cfg.Dataset,
		Ranker:                r,
		Retriever:             retr,
		TopK:                  cfg.TopK,
		MultiDisc:             cfg.MultiDisc,
		DegradedMaxCandidates: cfg.DegradedMaxCandidates,
		Admission:             cfg.Admission,
		BatchWindow:           cfg.BatchWindow,
		WindowPolicy:          cfg.WindowPolicy,
		MaxBatch:              cfg.MaxBatch,
		TraceRing:             cfg.TraceRing,
		BatchHook:             cfg.BatchHook,
	}, be)
	if err != nil {
		return nil, err
	}
	// Scrape-time gauges for the local cache pool (lock-free snapshot reads).
	reg := core.Observer().Registry()
	reg.GaugeFunc("bat_item_cache_entries", func() float64 { return float64(len(be.snap.Load().items)) })
	reg.GaugeFunc("bat_user_cache_entries", func() float64 { return float64(len(be.snap.Load().users)) })
	srv := &Server{cfg: cfg, core: core, be: be}
	if mode == partition.Adaptive {
		ctrl, err := partition.New(partition.Config{Interval: cfg.PartitionInterval},
			partition.Class{
				Name:        "user",
				Stats:       be.userClassStats,
				Capacity:    be.userBudget.Load,
				SetCapacity: func(n int64) int64 { return be.setBudget(&be.userBudget, n) },
			},
			partition.Class{
				Name:        "item",
				Stats:       be.itemClassStats,
				Capacity:    be.itemBudget.Load,
				SetCapacity: func(n int64) int64 { return be.setBudget(&be.itemBudget, n) },
			})
		if err != nil {
			core.Close()
			return nil, err
		}
		ctrl.RegisterMetrics(reg)
		ctrl.Run()
		srv.part = ctrl
	}
	return srv, nil
}

// Close stops the serving core's batch loop and the partition controller.
func (s *Server) Close() {
	if s.part != nil {
		s.part.Stop()
	}
	s.core.Close()
}

// PartitionStatus reports the adaptive controller's split; the second return
// is false when the server runs a static partition.
func (s *Server) PartitionStatus() (partition.Status, bool) {
	if s.part == nil {
		return partition.Status{}, false
	}
	return s.part.Status(), true
}

// Handler returns the HTTP API:
//
//	POST /v1/rank      {"user_id": u, "candidate_ids": [...]}
//	GET  /v1/stats
//	GET  /metrics      per-stage latency histograms + lifecycle counters (text)
//	GET  /debug/trace  last-N request traces (JSON; ?n= caps the list)
//	GET  /healthz
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/rank", s.core.HandleRank)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.core.HandleMetrics)
	mux.HandleFunc("/debug/trace", s.core.HandleTraces)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Observer exposes the serving core's observability state (stage histograms
// and the trace ring) for experiments and tests.
func (s *Server) Observer() *serving.Observer { return s.core.Observer() }

// Rank serves one ranking request (the API handler's core, callable
// directly by examples and tests). It never cancels; use RankCtx to bound
// execution by a context.
func (s *Server) Rank(req RankRequest) (*RankResponse, error) {
	return s.core.Rank(req)
}

// RankCtx is Rank bounded by a context: the deadline and cancellation are
// polled at batch phase boundaries, so an abandoned request stops burning
// compute instead of running to completion.
func (s *Server) RankCtx(ctx context.Context, req RankRequest) (*RankResponse, error) {
	return s.core.RankCtx(ctx, req)
}

// StatsResponse is the /v1/stats reply.
type StatsResponse struct {
	Requests         int64   `json:"requests"`
	UserPrefix       int64   `json:"user_prefix_requests"`
	ItemPrefix       int64   `json:"item_prefix_requests"`
	ReusedTokens     int64   `json:"reused_tokens"`
	ComputedTokens   int64   `json:"computed_tokens"`
	DedupedTokens    int64   `json:"deduped_tokens"`
	TokenHitRate     float64 `json:"token_hit_rate"`
	ItemCacheEntries int     `json:"item_cache_entries"`
	UserCacheEntries int     `json:"user_cache_entries"`
	// Admission is the overload ladder's front door; DegradedRequests counts
	// retrieval-fallback responses and DeadlineAborts counts serves canceled
	// mid-execution by an expired deadline or disconnected client.
	Admission        admission.Stats `json:"admission"`
	DegradedRequests int64           `json:"degraded_requests"`
	DeadlineAborts   int64           `json:"deadline_aborts"`
	// Batches counts packed executions; AvgBatchSize is the mean requests
	// per batch; MaxBatchSize the largest batch formed.
	Batches      int64   `json:"batches"`
	AvgBatchSize float64 `json:"avg_batch_size"`
	MaxBatchSize int64   `json:"max_batch_size"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	serving.WriteJSON(w, s.Stats())
}

// Stats snapshots the serving counters (the /v1/stats payload).
func (s *Server) Stats() StatsResponse {
	cs := s.core.Stats()
	state := s.be.snap.Load()
	resp := StatsResponse{
		Requests:         cs.Requests,
		UserPrefix:       cs.UserPrefix,
		ItemPrefix:       cs.ItemPrefix,
		ReusedTokens:     cs.ReusedTokens,
		ComputedTokens:   cs.ComputedTokens,
		DedupedTokens:    cs.DedupedTokens,
		ItemCacheEntries: len(state.items),
		UserCacheEntries: len(state.users),
		Admission:        cs.Admission,
		DegradedRequests: cs.DegradedRequests,
		DeadlineAborts:   cs.DeadlineAborts,
		Batches:          cs.Batches,
		MaxBatchSize:     cs.MaxBatchSize,
	}
	if total := cs.ReusedTokens + cs.ComputedTokens; total > 0 {
		resp.TokenHitRate = float64(cs.ReusedTokens) / float64(total)
	}
	if cs.Batches > 0 {
		resp.AvgBatchSize = float64(cs.BatchedRequests) / float64(cs.Batches)
	}
	return resp
}

// itemCacheCount and userCacheCount read the current snapshot (tests).
func (s *Server) itemCacheCount() int { return len(s.be.snap.Load().items) }
func (s *Server) userCacheCount() int { return len(s.be.snap.Load().users) }

// localState is one immutable cache-pool snapshot: plans read it lock-free;
// commits replace it wholesale at batch boundaries (RCU style).
type localState struct {
	items   map[int]*model.KVCache
	users   map[int]*model.KVCache
	userLRU []int // oldest first; small cap keeps O(n) fine
	itemLRU []int // admission order, oldest first (used when items are capped)
}

// localBackend is the in-process cache pool behind the serving core.
type localBackend struct {
	cfg   *Config
	start time.Time
	snap  atomic.Pointer[localState]

	// Per-class entry budgets. Static mode pins them at the configured
	// Max*Caches; adaptive mode re-divides them from the controller's tick
	// goroutine, so Plan/Commit read them atomically.
	userBudget atomic.Int64
	itemBudget atomic.Int64 // 0 = unbounded (static only)

	// Token-weighted per-class hit/miss counters: the marginal-utility
	// signal. Counted at plan time against the snapshot the plan used.
	userHitTokens  atomic.Int64
	userMissTokens atomic.Int64
	itemHitTokens  atomic.Int64
	itemMissTokens atomic.Int64

	// metaMu guards the hotness estimator (cachemeta.Service is not safe for
	// concurrent use; concurrent Plan calls serialize only this small part).
	metaMu sync.Mutex
	meta   *cachemeta.Service
}

func (b *localBackend) userClassStats() partition.ClassStats {
	return partition.ClassStats{Hits: b.userHitTokens.Load(), Misses: b.userMissTokens.Load()}
}

func (b *localBackend) itemClassStats() partition.ClassStats {
	return partition.ClassStats{Hits: b.itemHitTokens.Load(), Misses: b.itemMissTokens.Load()}
}

// setBudget applies a controller resize. Entry budgets have no pinned
// footprint, so any request >= 1 applies fully; eviction down to a shrunken
// budget happens at the next Commit.
func (b *localBackend) setBudget(budget *atomic.Int64, n int64) int64 {
	if n < 1 {
		n = 1
	}
	budget.Store(n)
	return n
}

// Plan decides one request's prefix organization from the current snapshot.
// It runs concurrently with the other plans of the batch and mutates nothing
// but the (mutex-guarded) hotness estimator.
func (b *localBackend) Plan(ctx context.Context, req serving.RankRequest) (*serving.Plan, error) {
	ds := b.cfg.Dataset
	state := b.snap.Load()
	now := b.cfg.Now().Sub(b.start).Seconds()
	userKey := kvcache.EntryKey{Kind: kvcache.UserEntry, ID: uint64(req.UserID)}
	b.metaMu.Lock()
	hotness := b.meta.RecordAccess(userKey, now)
	minHot := b.minUserHotness(state, now)
	b.metaMu.Unlock()

	userTokens := len(ds.UserHistory[req.UserID])
	itemTokens := 0
	for _, it := range req.CandidateIDs {
		itemTokens += len(ds.ItemTokens[it])
	}
	_, cached := state.users[req.UserID]
	dec := b.cfg.Policy.Decide(scheduler.Context{
		UserTokens:           userTokens,
		ItemTokens:           itemTokens,
		UserHotness:          hotness,
		UserCached:           cached,
		UserPoolHasSpace:     int64(len(state.users)) < b.userBudget.Load(),
		MinCachedHotness:     minHot,
		HaveMinCachedHotness: len(state.users) > 0,
	})

	plan := &serving.Plan{Kind: dec.Kind, Recompute: dec.Recompute, AdmitUser: dec.AdmitUser}
	if dec.Recompute {
		plan.Kind = bipartite.UserPrefix
	} else if plan.Kind == bipartite.UserPrefix {
		plan.Caches.User = state.users[req.UserID]
		if plan.Caches.User != nil {
			b.userHitTokens.Add(int64(userTokens))
		} else {
			b.userMissTokens.Add(int64(userTokens))
		}
	} else {
		plan.Caches.Items = make(map[int]*model.KVCache, len(req.CandidateIDs))
		for slot, it := range req.CandidateIDs {
			if c, ok := state.items[it]; ok {
				plan.Caches.Items[slot] = c
				b.itemHitTokens.Add(int64(len(ds.ItemTokens[it])))
			} else {
				b.itemMissTokens.Add(int64(len(ds.ItemTokens[it])))
			}
		}
	}
	return plan, nil
}

// Commit applies the batch's cache admissions and LRU evictions serially at
// the batch boundary: build the next snapshot copy-on-write and publish it
// atomically. Evicted caches are contiguous and simply dropped; a reader
// still holding one keeps a valid cache until the garbage collector takes it.
func (b *localBackend) Commit(entries []serving.CommitEntry) {
	cur := b.snap.Load()
	userBudget, itemBudget := b.userBudget.Load(), b.itemBudget.Load()
	// Steady-state batches (all cache hits, nothing to admit) are the common
	// case; detect them against the current snapshot before paying for the
	// full copy-on-write rebuild. A partition shrink since the last commit
	// also forces a rebuild so the new budgets take effect.
	admits := int64(len(cur.users)) > userBudget ||
		(itemBudget > 0 && int64(len(cur.items)) > itemBudget)
	for _, e := range entries {
		if admits {
			break
		}
		if e.Plan.Recompute {
			continue
		}
		if e.Run.NewUserCache != nil && e.Plan.AdmitUser {
			if _, ok := cur.users[e.Req.UserID]; !ok {
				admits = true
				break
			}
		}
		for slot := range e.Run.NewItemCaches {
			if cur.items[e.Req.CandidateIDs[slot]] == nil {
				admits = true
				break
			}
		}
	}
	if !admits {
		return
	}
	next := &localState{
		items:   make(map[int]*model.KVCache, len(cur.items)+len(entries)),
		users:   make(map[int]*model.KVCache, len(cur.users)+1),
		userLRU: append([]int(nil), cur.userLRU...),
		itemLRU: append([]int(nil), cur.itemLRU...),
	}
	for k, v := range cur.items {
		next.items[k] = v
	}
	for k, v := range cur.users {
		next.users[k] = v
	}
	changed := false
	for _, e := range entries {
		if e.Plan.Recompute {
			continue
		}
		if e.Run.NewUserCache != nil && e.Plan.AdmitUser {
			// First admission wins when a batch carried the same user twice:
			// both runs computed bit-identical caches, so the duplicate is
			// dropped instead of adopted-then-leaked.
			u := e.Req.UserID
			if _, ok := next.users[u]; !ok {
				next.userLRU = append(next.userLRU, u)
				next.users[u] = e.Run.NewUserCache
				changed = true
			}
		}
		for slot, c := range e.Run.NewItemCaches {
			if id := e.Req.CandidateIDs[slot]; next.items[id] == nil {
				next.items[id] = c
				next.itemLRU = append(next.itemLRU, id)
				changed = true
			}
		}
	}
	// Enforce the (possibly freshly re-divided) per-class budgets.
	for int64(len(next.users)) > userBudget && len(next.userLRU) > 0 {
		victim := next.userLRU[0]
		next.userLRU = next.userLRU[1:]
		if _, ok := next.users[victim]; ok {
			changed = true
		}
		delete(next.users, victim)
	}
	for itemBudget > 0 && int64(len(next.items)) > itemBudget && len(next.itemLRU) > 0 {
		victim := next.itemLRU[0]
		next.itemLRU = next.itemLRU[1:]
		if _, ok := next.items[victim]; ok {
			changed = true
		}
		delete(next.items, victim)
	}
	if !changed {
		return
	}
	b.snap.Store(next)
}

// minUserHotness scans the snapshot's cached users for the coldest one.
// Caller holds metaMu.
func (b *localBackend) minUserHotness(state *localState, now float64) float64 {
	min := 0.0
	first := true
	for u := range state.users {
		h := b.meta.Hotness(kvcache.EntryKey{Kind: kvcache.UserEntry, ID: uint64(u)}, now)
		if first || h < min {
			min, first = h, false
		}
	}
	return min
}

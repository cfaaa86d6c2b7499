// Package server exposes the BAT serving mechanism as a real HTTP service:
// an executable transformer (internal/ranking's constructed GR), an
// in-process disaggregated cache holding per-item and per-user KV tensors,
// a hotness-aware prefix decision per request, and a JSON API. It is a thin
// adapter over the shared serving core (internal/serving), which owns the
// request lifecycle and the continuous-batching loop; the server's job is
// HTTP parsing plus the local cache backend: plans read the pool under a
// read lock, and each batch's admissions and evictions are made in place at
// its boundary. Resident users sit in a min-heap ordered by hotness, so the
// scheduler's coldest-resident signal and coldest-first user eviction cost
// O(log users), not a scan of the pool.
package server

import (
	"container/heap"
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
	// Admitting a user past the cap evicts the coldest resident user by
	// decayed hotness (§5.3's min_{p∈C_u} f_p), not the oldest admission.
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
	be := newLocalBackend(&cfg)
	if cfg.PrecomputeItems {
		// Item caches are independent forwards, so build them across the
		// tensor worker pool, each into its own slot. Same caches as the
		// serial loop, just faster.
		items := make([]*model.KVCache, len(cfg.Dataset.ItemTokens))
		tensor.Parallel(len(items), func(i int) {
			items[i] = bipartite.ComputeItemCache(r.W, cfg.Dataset.ItemTokens[i])
		})
		for i, c := range items {
			be.items[i] = c
			be.itemLRU = append(be.itemLRU, i)
		}
	}
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
	// Scrape-time gauges for the local cache pool.
	reg := core.Observer().Registry()
	reg.GaugeFunc("bat_item_cache_entries", func() float64 { n, _ := be.sizes(); return float64(n) })
	reg.GaugeFunc("bat_user_cache_entries", func() float64 { _, n := be.sizes(); return float64(n) })
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
	items, users := s.be.sizes()
	resp := StatsResponse{
		Requests:         cs.Requests,
		UserPrefix:       cs.UserPrefix,
		ItemPrefix:       cs.ItemPrefix,
		ReusedTokens:     cs.ReusedTokens,
		ComputedTokens:   cs.ComputedTokens,
		DedupedTokens:    cs.DedupedTokens,
		ItemCacheEntries: items,
		UserCacheEntries: users,
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

// itemCacheCount and userCacheCount read the pool's sizes (tests).
func (s *Server) itemCacheCount() int { n, _ := s.be.sizes(); return n }
func (s *Server) userCacheCount() int { _, n := s.be.sizes(); return n }

// localBackend is the in-process cache pool behind the serving core.
//
// The serving core calls Commit only after every plan of its batch has
// returned, and never runs two batches at once, so the pool is mutated in
// place: plans read it under mu's read lock, Commit writes it under the
// write lock, and the lock also orders both against /v1/stats and /metrics
// readers. A plan hands out cache pointers, never the maps, and an evicted
// cache is simply dropped: an execution still holding it keeps a valid
// cache until the garbage collector takes it.
type localBackend struct {
	cfg   *Config
	start time.Time

	mu      sync.RWMutex
	items   map[int]*model.KVCache
	users   map[int]*residentUser
	itemLRU []int // admission order, oldest first (used when items are capped)

	// Per-class entry budgets. Static mode pins them at the configured
	// Max*Caches; adaptive mode re-divides them from the controller's tick
	// goroutine, so Plan/Commit read them atomically.
	userBudget atomic.Int64
	itemBudget atomic.Int64 // 0 = unbounded (static only)

	// Token-weighted per-class hit/miss counters: the marginal-utility
	// signal. Counted at plan time against the pool the plan read.
	userHitTokens  atomic.Int64
	userMissTokens atomic.Int64
	itemHitTokens  atomic.Int64
	itemMissTokens atomic.Int64

	// metaMu guards the hotness estimator (cachemeta.Service is not safe for
	// concurrent use) and cold, the resident users ordered coldest first.
	// Concurrent plans serialize only on this small part. Lock order: mu,
	// then metaMu.
	metaMu sync.Mutex
	meta   *cachemeta.Service
	cold   userHeap
}

// residentUser is one cached user prefix. cache is fixed at admission; key
// and idx belong to the cold heap and change only under metaMu.
type residentUser struct {
	id    int
	cache *model.KVCache
	key   float64 // meta.OrderKey at the user's last access
	idx   int     // position in the cold heap
}

func newLocalBackend(cfg *Config) *localBackend {
	b := &localBackend{
		cfg:   cfg,
		start: cfg.Now(),
		items: make(map[int]*model.KVCache),
		users: make(map[int]*residentUser),
		meta:  cachemeta.New(cfg.HotnessWindowSec),
	}
	b.userBudget.Store(int64(cfg.MaxUserCaches))
	b.itemBudget.Store(int64(cfg.MaxItemCaches))
	return b
}

// sizes reports the resident item and user cache counts.
func (b *localBackend) sizes() (items, users int) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.items), len(b.users)
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

// Plan decides one request's prefix organization from the current pool.
// It runs concurrently with the other plans of the batch and mutates nothing
// but the (metaMu-guarded) hotness estimator and cold heap.
func (b *localBackend) Plan(ctx context.Context, req serving.RankRequest) (*serving.Plan, error) {
	ds := b.cfg.Dataset
	b.mu.RLock()
	defer b.mu.RUnlock()
	sc := b.schedContext(req)
	dec := b.cfg.Policy.Decide(sc)

	plan := &serving.Plan{Kind: dec.Kind, Recompute: dec.Recompute, AdmitUser: dec.AdmitUser}
	if dec.Recompute {
		plan.Kind = bipartite.UserPrefix
	} else if plan.Kind == bipartite.UserPrefix {
		if r := b.users[req.UserID]; r != nil {
			plan.Caches.User = r.cache
			b.userHitTokens.Add(int64(sc.UserTokens))
		} else {
			b.userMissTokens.Add(int64(sc.UserTokens))
		}
	} else {
		plan.Caches.Items = make(map[int]*model.KVCache, len(req.CandidateIDs))
		for slot, it := range req.CandidateIDs {
			if c, ok := b.items[it]; ok {
				plan.Caches.Items[slot] = c
				b.itemHitTokens.Add(int64(len(ds.ItemTokens[it])))
			} else {
				b.itemMissTokens.Add(int64(len(ds.ItemTokens[it])))
			}
		}
	}
	return plan, nil
}

// schedContext records the request's user access and builds the scheduler's
// view of the pool. MinCachedHotness is the cold heap's root evaluated now:
// the keys order users as their hotness does at every time since their last
// access, so the root is the coldest resident without a scan. The clock is
// read under metaMu, so every access is recorded at a time no earlier than
// the last one. Caller holds mu (read or write).
func (b *localBackend) schedContext(req serving.RankRequest) scheduler.Context {
	ds := b.cfg.Dataset
	userKey := userEntry(req.UserID)
	resident := b.users[req.UserID]
	b.metaMu.Lock()
	now := b.cfg.Now().Sub(b.start).Seconds()
	hotness := b.meta.RecordAccess(userKey, now)
	if resident != nil {
		resident.key = b.meta.OrderKey(userKey)
		heap.Fix(&b.cold, resident.idx)
	}
	minHot := 0.0
	if len(b.cold) > 0 {
		minHot = b.meta.Hotness(userEntry(b.cold[0].id), now)
	}
	b.metaMu.Unlock()

	itemTokens := 0
	for _, it := range req.CandidateIDs {
		itemTokens += len(ds.ItemTokens[it])
	}
	return scheduler.Context{
		UserTokens:           len(ds.UserHistory[req.UserID]),
		ItemTokens:           itemTokens,
		UserHotness:          hotness,
		UserCached:           resident != nil,
		UserPoolHasSpace:     int64(len(b.users)) < b.userBudget.Load(),
		MinCachedHotness:     minHot,
		HaveMinCachedHotness: len(b.users) > 0,
	}
}

// Commit applies the batch's cache admissions and evictions in place at the
// batch boundary. Work is proportional to the batch, not the pool: a user
// admission evicts the coldest residents (the cold heap's root) down to one
// below the budget and then inserts the newcomer, as kvcache.Pool does;
// items are evicted in admission order. The first admission wins when a
// batch carried the same user or item twice: both runs computed
// bit-identical caches, so the duplicate is dropped.
func (b *localBackend) Commit(entries []serving.CommitEntry) {
	userBudget, itemBudget := b.userBudget.Load(), b.itemBudget.Load()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.metaMu.Lock()
	defer b.metaMu.Unlock()
	for _, e := range entries {
		if e.Plan.Recompute {
			continue
		}
		if e.Run.NewUserCache != nil && e.Plan.AdmitUser {
			b.admitUser(e.Req.UserID, e.Run.NewUserCache, userBudget)
		}
		for slot, c := range e.Run.NewItemCaches {
			if id := e.Req.CandidateIDs[slot]; b.items[id] == nil {
				b.items[id] = c
				b.itemLRU = append(b.itemLRU, id)
			}
		}
	}
	// Enforce the (possibly freshly re-divided) per-class budgets.
	b.evictUsers(userBudget)
	for itemBudget > 0 && int64(len(b.items)) > itemBudget {
		delete(b.items, b.itemLRU[0])
		b.itemLRU = b.itemLRU[1:]
	}
}

// admitUser inserts user u's fresh cache unless it is already resident.
// Caller holds mu for writing and metaMu.
func (b *localBackend) admitUser(u int, c *model.KVCache, budget int64) {
	if _, ok := b.users[u]; ok {
		return
	}
	b.evictUsers(budget - 1)
	r := &residentUser{id: u, cache: c, key: b.meta.OrderKey(userEntry(u))}
	heap.Push(&b.cold, r)
	b.users[u] = r
}

// evictUsers drops the coldest resident users until at most n remain.
// Caller holds mu for writing and metaMu.
func (b *localBackend) evictUsers(n int64) {
	for int64(len(b.cold)) > n && len(b.cold) > 0 {
		r := heap.Pop(&b.cold).(*residentUser)
		delete(b.users, r.id)
	}
}

func userEntry(u int) kvcache.EntryKey {
	return kvcache.EntryKey{Kind: kvcache.UserEntry, ID: uint64(u)}
}

// userHeap is a min-heap of resident users by OrderKey: the root is the
// coldest user at any time from its last access on.
type userHeap []*residentUser

func (h userHeap) Len() int           { return len(h) }
func (h userHeap) Less(i, j int) bool { return h[i].key < h[j].key }
func (h userHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].idx = i; h[j].idx = j }
func (h *userHeap) Push(x any)        { r := x.(*residentUser); r.idx = len(*h); *h = append(*h, r) }
func (h *userHeap) Pop() any {
	old := *h
	n := len(old)
	r := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return r
}

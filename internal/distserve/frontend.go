package distserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"bat/internal/admission"
	"bat/internal/bipartite"
	"bat/internal/costmodel"
	"bat/internal/metrics"
	"bat/internal/model"
	"bat/internal/ranking"
	"bat/internal/routing"
	"bat/internal/scheduler"
	"bat/internal/serving"
)

// ErrValidation marks request errors the caller can fix (unknown IDs, empty
// candidate sets); everything else is an internal serving failure. It is the
// shared serving core's sentinel, re-exported under its historical name.
var ErrValidation = serving.ErrValidation

// RankRequest / RankResponse are the shared serving types; aliased so the
// frontend API keeps its historical names and stays wire-identical to the
// single-process server.
type (
	RankRequest  = serving.RankRequest
	RankResponse = serving.RankResponse
)

// FrontendConfig wires an inference frontend to its cluster.
type FrontendConfig struct {
	Dataset *ranking.Dataset
	Variant ranking.ModelVariant
	// MetaURL is the cache meta service's base URL.
	MetaURL string
	// CacheWorkers are the cache workers' base URLs; slice index is the
	// worker ID used with the meta service.
	CacheWorkers []string
	// Policy decides each request's attention pattern (default hotness-aware).
	Policy scheduler.Policy
	// TopK is the returned ranking length (default 10).
	TopK int
	// Client issues the HTTP calls. Defaults to a client bounded by
	// Transfer.Timeout — never a timeout-less http.DefaultClient, so a hung
	// cache worker cannot wedge requests. A client without a Transport (the
	// default included) rides the frontend's own keep-alive transport, which
	// Close shuts; a client with a Transport is used as is.
	Client *http.Client
	// Transfer tunes the fault-tolerant transfer engine (timeouts, retries,
	// circuit breakers, fetch parallelism). Zero value = defaults.
	Transfer TransferConfig
	// Admission tunes the overload ladder (in-flight bound, wait queue,
	// default deadline, degrade threshold). Zero value = defaults.
	Admission admission.Config
	// DegradedMaxCandidates caps the candidate set served in degraded mode
	// (default 16).
	DegradedMaxCandidates int
	// GPU selects the costmodel device whose fitted prefill estimator
	// anchors the deadline gate (default A100-PCIe4). The estimator's shape
	// prediction is calibrated online against observed wall clock, so only
	// its relative form matters.
	GPU costmodel.GPU
	// BatchWindow, WindowPolicy, and MaxBatch tune the serving core's
	// batch-forming loop (see serving.Config); zero values take the core
	// defaults (adaptive window).
	BatchWindow  time.Duration
	WindowPolicy string
	MaxBatch     int
	// TraceRing sizes the retained request-trace ring served at
	// GET /debug/trace (default 128).
	TraceRing int
	// Replication is how many distinct live workers each fresh cache is
	// written to (clamped to the pool size; 0 or 1 = single copy, the
	// pre-replication behavior). The first replica rides the write-behind
	// queue as before; the extras are tagged secondary copies on the same
	// queue, all registered in meta.
	Replication int
	// ReadRepairBudget caps background read-repair backfills per second
	// (0 = default 16; negative disables read repair).
	ReadRepairBudget int
	// CloseFlushTimeout bounds Close()'s drain of queued write-behind stores
	// (0 = default 2s; negative = abandon the queue immediately, the
	// pre-flush behavior).
	CloseFlushTimeout time.Duration
	// LoadSummaryTTL is how long /v1/load serves a cached user-residency
	// summary before re-polling the workers (0 = default 1s; negative =
	// refresh on every request, for tests).
	LoadSummaryTTL time.Duration
	// BatchHook, when non-nil, runs before each batch executes (tests).
	BatchHook func(size int)
}

// Frontend is the inference worker + prompt scheduler of Figure 3: it owns
// the model replica, consults the meta service, moves KV payloads to and
// from cache workers through the fault-tolerant transfer engine, and
// executes Bipartite Attention. The request lifecycle (validate → admit →
// batch → execute → respond) lives in the shared serving core; the frontend
// is its network-cache backend: plans fetch caches from the pool, commits
// write fresh ones back at batch boundaries.
type Frontend struct {
	cfg      FrontendConfig
	ranker   *ranking.Ranker
	transfer *transferClient
	// transport is the keep-alive transport the frontend built for itself
	// (nil when FrontendConfig.Client brought its own); every call to the
	// meta service and the cache workers rides it.
	transport *http.Transport
	est       *costmodel.Estimator
	core      *serving.Core
	// ring shards entries across the cache workers (the shared consistent
	// walk from internal/routing; liveness comes from alive/draining).
	ring routing.Ring

	// flight coalesces concurrent fetches of the same item cache: the first
	// request becomes the leader and issues the network fetch; followers wait
	// for its result instead of issuing N identical GETs.
	flightMu sync.Mutex
	flight   map[uint64]*flightCall

	// fetchCtr counts pool round trips by outcome under
	// bat_fetch_total{outcome=...} in the core's metric registry.
	fetchCtr map[string]*metrics.Counter
	// bytesCtr counts transfer payload bytes under
	// bat_transfer_bytes_total{dir,kind,mode}: rx = streaming fetches,
	// tx = stores; mode "delta" marks suffix-only PATCH appends.
	bytesCtr       map[string]*metrics.Counter
	deltaStores    *metrics.Counter
	deltaFallbacks *metrics.Counter
	storeDrops     *metrics.Counter
	storeCoalesced *metrics.Counter
	streamFetches  *metrics.Counter
	readRepairs    *metrics.Counter
	closeDrops     *metrics.Counter
	drainsCtr      *metrics.Counter
	// hedgedCtr counts issued hedge races by winner under
	// bat_hedged_fetches_total{outcome="primary"|"hedged"|"miss"};
	// replicaStores counts queued store copies by role under
	// bat_replica_stores_total{role="primary"|"secondary"}.
	hedgedCtr     map[string]*metrics.Counter
	replicaStores map[string]*metrics.Counter

	// loadMu guards the /v1/load residency summary cache (see load.go).
	// loadGen counts user stores landed; the cached summary is valid only
	// while loadSumGen, the count its fold started at, still equals it.
	loadMu      sync.Mutex
	loadSummary *routing.Summary
	loadUsers   int
	loadAt      time.Time
	loadGen     uint64
	loadSumGen  uint64

	// repairMu guards the read-repair token window (repairs admitted in the
	// current one-second window).
	repairMu     sync.Mutex
	repairWindow time.Time
	repairCount  int

	// stored remembers, per cache key, which worker last accepted the entry
	// and at how many tokens — the prefix knowledge that lets the next store
	// of the same key ship only the suffix as a PATCH delta.
	storedMu sync.Mutex
	stored   map[string]storedPrefix

	// Write-behind store queue: Commit enqueues fresh caches here and the
	// storeLoop workers upload them off the batch-serial critical path. The
	// queue coalesces per key (latest cache wins) and drops on overflow
	// (counted) rather than stalling a batch boundary. storeCtx is
	// frontend-owned — request contexts are canceled the moment their
	// response goes out, which is exactly when these stores run.
	storeCtx     context.Context
	storeCancel  context.CancelFunc
	storeMu      sync.Mutex
	storeCond    *sync.Cond
	storePending map[string]*storeJob
	storeActive  int
	storeCh      chan string
	storeWG      sync.WaitGroup

	mu               sync.Mutex
	fetchErrors      int64
	failovers        int64
	staleUnregisters int64
	coalescedFetches int64
	prefetchedPlans  int64
	workerPurges     int64
	purgedBindings   int64
	// calibRatio is the EWMA of observed-seconds / estimator-predicted
	// seconds; 0 until the first full request completes, which disables the
	// deadline gate cold (never shed on an uncalibrated estimate).
	calibRatio float64
	// alive[w] routes cache writes away from workers the poolguard marked
	// dead; all true at start. draining[w] does the same for workers mid
	// graceful drain — they still serve reads but refuse stores.
	alive    []bool
	draining []bool
	// lastPurge rate-limits breaker-open worker-granularity meta purges.
	lastPurge []time.Time
	guard     *PoolGuard
}

// storedPrefix is the frontend's record of a worker-resident entry: the delta
// store path may PATCH-append to it instead of re-uploading the whole cache.
type storedPrefix struct {
	worker int
	tokens int
}

// storeJob is one queued write-behind store.
type storeJob struct {
	worker int
	kind   string
	id     uint64
	c      *model.KVCache
}

// maxStoredPrefixes bounds the delta-tracking map; when full it resets (the
// only cost is full PUTs until it repopulates).
const maxStoredPrefixes = 8192

// Replication-layer defaults.
const (
	// defaultCloseFlushTimeout bounds how long Close waits for queued
	// write-behind stores before dropping them.
	defaultCloseFlushTimeout = 2 * time.Second
	// defaultReadRepairBudget is the per-second cap on background replica
	// backfills triggered by degraded reads.
	defaultReadRepairBudget = 16
	// defaultHedgeQuantile is the fetch-stage latency quantile whose observed
	// value arms the hedged-read timer.
	defaultHedgeQuantile = 0.99
	// minHedgeDelay floors the hedge timer so a momentarily empty histogram
	// bucket cannot make every fetch issue two RPCs.
	minHedgeDelay = 500 * time.Microsecond
)

// NewFrontend builds a frontend.
func NewFrontend(cfg FrontendConfig) (*Frontend, error) {
	if cfg.Dataset == nil {
		return nil, fmt.Errorf("distserve: nil dataset")
	}
	if cfg.MetaURL == "" || len(cfg.CacheWorkers) == 0 {
		return nil, fmt.Errorf("distserve: frontend needs a meta URL and at least one cache worker")
	}
	if cfg.Policy == nil {
		cfg.Policy = scheduler.HotnessAware{}
	}
	cfg.Transfer = cfg.Transfer.withDefaults()
	if cfg.Client == nil {
		// http.DefaultClient has no Timeout; a single hung worker would
		// stall /v1/rank forever. Bound every call even when the transfer
		// engine's per-attempt deadline is somehow bypassed.
		cfg.Client = &http.Client{Timeout: cfg.Transfer.Timeout}
	}
	if cfg.GPU.TFLOPS == 0 {
		cfg.GPU = costmodel.A100PCIe4
	}
	r, err := ranking.NewRanker(cfg.Dataset, cfg.Variant)
	if err != nil {
		return nil, err
	}
	retr, err := ranking.NewRetriever(cfg.Dataset, 0.9)
	if err != nil {
		return nil, err
	}
	est, err := costmodel.FitEstimator(cfg.GPU, r.W.Config())
	if err != nil {
		return nil, err
	}
	f := &Frontend{
		cfg:    cfg,
		ranker: r,
		est:    est,
		ring:   routing.NewRing(len(cfg.CacheWorkers)),
		flight: make(map[uint64]*flightCall),
		alive:  make([]bool, len(cfg.CacheWorkers)),
	}
	for i := range f.alive {
		f.alive[i] = true
	}
	f.draining = make([]bool, len(cfg.CacheWorkers))
	f.lastPurge = make([]time.Time, len(cfg.CacheWorkers))
	core, err := serving.NewCore(serving.Config{
		Dataset:               cfg.Dataset,
		Ranker:                r,
		Retriever:             retr,
		TopK:                  cfg.TopK,
		DegradedMaxCandidates: cfg.DegradedMaxCandidates,
		Admission:             cfg.Admission,
		BatchWindow:           cfg.BatchWindow,
		WindowPolicy:          cfg.WindowPolicy,
		MaxBatch:              cfg.MaxBatch,
		TraceRing:             cfg.TraceRing,
		BatchHook:             cfg.BatchHook,
		Ladder:                f.ladder,
	}, f)
	if err != nil {
		return nil, err
	}
	f.core = core
	reg := core.Observer().Registry()
	// Calls in flight to one host are bounded by the requests admission lets
	// in (in-flight plus queue: each one plans — meta calls, then a fetch —
	// from enqueue on), the write-behind store workers, and the pool guard's
	// probe and scrub loops. Keeping that many idle connections per host
	// lets every call find a warm one; dials are counted per target kind.
	adm := core.Admission().Config()
	metaAddr := dialAddr(cfg.MetaURL)
	metaDials := reg.Counter(`bat_transfer_dials_total{target="meta"}`)
	workerDials := reg.Counter(`bat_transfer_dials_total{target="worker"}`)
	f.cfg.Client, f.transport = routing.OwnedClient(cfg.Client,
		adm.MaxInFlight+adm.MaxQueue+cfg.Transfer.StoreWorkers+2,
		func(addr string) {
			if addr == metaAddr {
				metaDials.Inc()
			} else {
				workerDials.Inc()
			}
		})
	f.transfer = newTransferClient(f.cfg.Client, cfg.Transfer, len(cfg.CacheWorkers))
	f.fetchCtr = make(map[string]*metrics.Counter, len(fetchOutcomes))
	for _, o := range fetchOutcomes {
		f.fetchCtr[o] = reg.Counter(`bat_fetch_total{outcome="` + o + `"}`)
	}
	f.bytesCtr = make(map[string]*metrics.Counter, 8)
	for _, dir := range []string{"rx", "tx"} {
		for _, kind := range []string{"user", "item"} {
			for _, mode := range []string{"full", "delta"} {
				f.bytesCtr[dir+"/"+kind+"/"+mode] = reg.Counter(
					`bat_transfer_bytes_total{dir="` + dir + `",kind="` + kind + `",mode="` + mode + `"}`)
			}
		}
	}
	f.deltaStores = reg.Counter("bat_delta_stores_total")
	f.deltaFallbacks = reg.Counter("bat_delta_fallbacks_total")
	f.storeDrops = reg.Counter("bat_store_drops_total")
	f.storeCoalesced = reg.Counter("bat_store_coalesced_total")
	f.streamFetches = reg.Counter("bat_stream_fetches_total")
	f.readRepairs = reg.Counter("bat_read_repairs_total")
	f.closeDrops = reg.Counter("bat_close_dropped_stores_total")
	f.drainsCtr = reg.Counter("bat_drains_total")
	f.hedgedCtr = make(map[string]*metrics.Counter, 3)
	for _, o := range []string{"primary", "hedged", "miss"} {
		f.hedgedCtr[o] = reg.Counter(`bat_hedged_fetches_total{outcome="` + o + `"}`)
	}
	f.replicaStores = make(map[string]*metrics.Counter, 2)
	for _, role := range []string{"primary", "secondary"} {
		f.replicaStores[role] = reg.Counter(`bat_replica_stores_total{role="` + role + `"}`)
	}
	f.stored = make(map[string]storedPrefix)
	f.storeCtx, f.storeCancel = context.WithCancel(context.Background())
	if cfg.Transfer.StoreQueueDepth > 0 {
		f.storePending = make(map[string]*storeJob)
		f.storeCh = make(chan string, cfg.Transfer.StoreQueueDepth)
		f.storeCond = sync.NewCond(&f.storeMu)
		reg.GaugeFunc("bat_store_queue_depth", func() float64 {
			f.storeMu.Lock()
			defer f.storeMu.Unlock()
			return float64(len(f.storePending) + f.storeActive)
		})
		for i := 0; i < cfg.Transfer.StoreWorkers; i++ {
			f.storeWG.Add(1)
			go f.storeLoop()
		}
	}
	for i := range cfg.CacheWorkers {
		ts := f.transfer.targets[i]
		reg.GaugeFunc(`bat_worker_breaker_open{worker="`+strconv.Itoa(i)+`"}`, func() float64 {
			ts.mu.Lock()
			defer ts.mu.Unlock()
			if ts.state == breakerOpen {
				return 1
			}
			return 0
		})
	}
	return f, nil
}

// Fetch-span / bat_fetch_total outcomes. "coalesced" marks a fetch answered
// by another request's in-flight GET; the rest are the leader's round-trip
// results.
var fetchOutcomes = []string{"hit", "miss", "breaker-open", "error", "decode-error", "coalesced"}

// Observer exposes the serving core's observability state (registry, stage
// histograms, trace ring) so tests and the batdist binary can reach it.
func (f *Frontend) Observer() *serving.Observer { return f.core.Observer() }

// observeFetch settles one pool round trip into the outcome counters and —
// when the request is traced — a nested StageFetch span tagged with the
// worker, entry kind, outcome, and retry count.
func (f *Frontend) observeFetch(ctx context.Context, worker int, kind, outcome string, tries int, start time.Time) {
	if c, ok := f.fetchCtr[outcome]; ok {
		c.Inc()
	}
	// Completed round trips calibrate the fetch-stage histogram that arms
	// hedged replica reads. Fed here (not from the trace fold, which skips
	// nested fetch spans) so untraced requests calibrate too; breaker-open
	// short-circuits and coalesced waits would skew the quantile.
	if outcome == "hit" || outcome == "miss" {
		f.core.Observer().ObserveStage(serving.StageFetch, time.Since(start))
	}
	tb := serving.TraceFromContext(ctx)
	if tb == nil {
		return
	}
	attrs := map[string]string{
		"worker":  strconv.Itoa(worker),
		"kind":    kind,
		"outcome": outcome,
	}
	if tries > 1 {
		attrs["retries"] = strconv.Itoa(tries - 1)
	}
	tb.AddSpan(serving.StageFetch, start, time.Since(start), attrs)
}

// Close stops the serving core's batch loop, then drains the write-behind
// store queue for up to CloseFlushTimeout before stopping the store workers,
// so caches committed just before shutdown reach the pool instead of being
// silently abandoned. Stores still unfinished when the timeout expires are
// dropped and counted under bat_close_dropped_stores_total. Last, the
// frontend's own transport closes its idle connections.
func (f *Frontend) Close() {
	f.core.Close()
	timeout := f.cfg.CloseFlushTimeout
	if timeout == 0 {
		timeout = defaultCloseFlushTimeout
	}
	if f.storeCh != nil {
		if timeout > 0 {
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			f.FlushStores(ctx)
			cancel()
		}
		f.storeMu.Lock()
		if rem := len(f.storePending) + f.storeActive; rem > 0 {
			f.closeDrops.Add(int64(rem))
		}
		f.storeMu.Unlock()
	}
	f.storeCancel()
	f.storeWG.Wait()
	if f.storeCond != nil {
		f.storeMu.Lock()
		f.storeCond.Broadcast()
		f.storeMu.Unlock()
	}
	if f.transport != nil {
		f.transport.CloseIdleConnections()
	}
}

// Client is the HTTP client the frontend calls the meta service and the cache
// workers with. A co-located caller of the same hosts — batdist's eviction
// hook un-registering from meta — shares its warm connections through it.
func (f *Frontend) Client() *http.Client { return f.cfg.Client }

// dialAddr is the host:port a transport dials for a base URL — the form its
// DialContext sees — so dials can be attributed to a target.
func dialAddr(base string) string {
	u, err := url.Parse(base)
	if err != nil {
		return ""
	}
	port := u.Port()
	if port == "" {
		port = "80"
		if u.Scheme == "https" {
			port = "443"
		}
	}
	return net.JoinHostPort(u.Hostname(), port)
}

// replication is the effective replication factor: the configured RF clamped
// to [1, pool size].
func (f *Frontend) replication() int {
	rf := f.cfg.Replication
	if rf < 1 {
		rf = 1
	}
	if n := len(f.cfg.CacheWorkers); rf > n {
		rf = n
	}
	return rf
}

// userWorker and itemWorker shard entries across cache workers, routing
// around workers the poolguard marked dead or an operator is draining; the
// *Replicas variants return the full RF-wide replica set for the same hash.
func (f *Frontend) userWorker(u int) int {
	return f.replicaWorkers(routing.EntryHash("user", uint64(u)), 1)[0]
}

func (f *Frontend) itemWorker(i int) int {
	return f.replicaWorkers(routing.EntryHash("item", uint64(i)), 1)[0]
}

func (f *Frontend) userReplicas(u int) []int {
	return f.replicaWorkers(routing.EntryHash("user", uint64(u)), f.replication())
}

func (f *Frontend) itemReplicas(i int) []int {
	return f.replicaWorkers(routing.EntryHash("item", uint64(i)), f.replication())
}

// replicaWorkers maps a shard hash to up to rf distinct live, non-draining
// workers via the shared routing ring's walk-forward selection (staying home
// when the whole pool is unroutable — the store will fail harmlessly).
func (f *Frontend) replicaWorkers(h uint64, rf int) []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ring.Replicas(h, rf, func(w int) bool { return f.alive[w] && !f.draining[w] })
}

// SetWorkerAlive marks a cache worker live or dead for write routing. The
// poolguard flips it on death and rejoin; reads are unaffected (locations
// come from the meta service, which the poolguard purges separately). A death
// also forgets the worker's delta prefixes — its content is presumed gone, so
// the next store of each key ships a full PUT (the checksum guard would catch
// a stale prefix anyway; this just skips the doomed PATCH round trip).
func (f *Frontend) SetWorkerAlive(worker int, alive bool) {
	if worker < 0 || worker >= len(f.cfg.CacheWorkers) {
		return
	}
	f.mu.Lock()
	f.alive[worker] = alive
	f.mu.Unlock()
	if !alive {
		f.forgetWorkerPrefixes(worker)
	}
}

// Rank serves one request end to end through the serving core and the
// disaggregated pool. The context bounds every transfer the request issues;
// cache fetch failures degrade to recompute, never to request failure.
func (f *Frontend) Rank(ctx context.Context, req RankRequest) (*RankResponse, error) {
	return f.core.RankCtx(ctx, req)
}

// distPlan is the backend-private Plan→Commit state: the calibration window
// opens at plan time so observed wall clock covers meta round trips and
// cache fetches, not just the model forward.
type distPlan struct {
	started                time.Time
	userTokens, itemTokens int
}

// prefetchState is one request's in-flight background plan: the goroutine
// Prefetch spawned fills plan/err, then closes done.
type prefetchState struct {
	done chan struct{}
	plan *serving.Plan
	err  error
}

// Prefetch implements serving.Prefetcher: the request's meta round trips and
// pool cache fetches start at enqueue time, on their own goroutine, so
// network transfer hides under the queue/window residency and the previous
// batch's compute instead of serializing at the head of the plan phase. The
// work is identical to Plan's — only the clock it overlaps changes. The
// calibration window therefore opens at enqueue, which is also the honest
// budget for the deadline gate (a queued request's fetches consume its
// deadline whether or not a batch has formed yet).
func (f *Frontend) Prefetch(ctx context.Context, req serving.RankRequest) any {
	ps := &prefetchState{done: make(chan struct{})}
	go func() {
		defer close(ps.done)
		ps.plan, ps.err = f.plan(ctx, req)
	}()
	return ps
}

// Plan is the serving core's scheduling callback. When the core started a
// prefetch for this request, Plan just awaits it (the transfer usually
// finished during the batch window — the whole point); otherwise it runs the
// same work inline. Everything touched is immutable, internally locked, or
// request-private, so concurrent plans are safe.
func (f *Frontend) Plan(ctx context.Context, req serving.RankRequest) (*serving.Plan, error) {
	if ps, ok := serving.PrefetchHandle(ctx).(*prefetchState); ok {
		select {
		case <-ps.done:
			f.mu.Lock()
			f.prefetchedPlans++
			f.mu.Unlock()
			return ps.plan, ps.err
		case <-ctx.Done():
			return nil, fmt.Errorf("distserve: request canceled: %w", ctx.Err())
		}
	}
	return f.plan(ctx, req)
}

// plan records hotness, decides the prefix organization, and fetches whatever
// caches the pool holds.
func (f *Frontend) plan(ctx context.Context, req serving.RankRequest) (*serving.Plan, error) {
	ds := f.cfg.Dataset
	started := time.Now()

	hotness := f.metaAccess(ctx, "user", uint64(req.UserID))
	f.metaAccessBatch(ctx, req.CandidateIDs)
	userTokens := len(ds.UserHistory[req.UserID])
	itemTokens := 0
	for _, it := range req.CandidateIDs {
		itemTokens += len(ds.ItemTokens[it])
	}
	userLocs := f.metaLocate(ctx, "user", uint64(req.UserID))
	dec := f.cfg.Policy.Decide(scheduler.Context{
		UserTokens:  userTokens,
		ItemTokens:  itemTokens,
		UserHotness: hotness,
		UserCached:  len(userLocs) > 0,
		// The disaggregated pool evicts internally; the frontend treats it
		// as always admitting (cache workers apply their own budgets).
		UserPoolHasSpace: true,
	})

	plan := &serving.Plan{
		Kind: dec.Kind, Recompute: dec.Recompute, AdmitUser: dec.AdmitUser,
		Aux: &distPlan{started: started, userTokens: userTokens, itemTokens: itemTokens},
	}
	if dec.Recompute {
		plan.Kind = bipartite.UserPrefix
	}
	if !dec.Recompute {
		if plan.Kind == bipartite.UserPrefix && len(userLocs) > 0 {
			plan.Caches.User = f.fetchReplicated(ctx, "user", uint64(req.UserID), userLocs)
		}
		if plan.Kind == bipartite.ItemPrefix {
			plan.Caches.Items = f.fetchItemCaches(ctx, req.CandidateIDs)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("distserve: request canceled: %w", err)
	}
	return plan, nil
}

// Commit runs serially at each batch boundary: fold every served request
// into the cost-model calibration, then hand freshly computed caches to the
// write-behind store queue (the scheduler's cache write path). Uploads run
// asynchronously so batch N+1's execute is not gated on batch N's stores;
// FlushStores is the determinism hook for callers that need the pool in its
// post-commit state.
func (f *Frontend) Commit(entries []serving.CommitEntry) {
	// A batch that carried the same miss in several requests computed one
	// forward and handed out bit-identical clones; write each (kind, id)
	// back to the pool once, not once per request.
	type storeKey struct {
		user bool
		id   uint64
	}
	stored := make(map[storeKey]bool)
	for _, e := range entries {
		if aux, ok := e.Plan.Aux.(*distPlan); ok {
			f.calibrate(aux.userTokens+aux.itemTokens+2, time.Since(aux.started).Seconds())
		}
		if e.Plan.Recompute {
			continue
		}
		if e.Run.NewUserCache != nil && e.Plan.AdmitUser {
			k := storeKey{user: true, id: uint64(e.Req.UserID)}
			if !stored[k] {
				stored[k] = true
				f.queueStoreReplicas("user", k.id, e.Run.NewUserCache, f.userReplicas(e.Req.UserID))
			}
		}
		for slot, c := range e.Run.NewItemCaches {
			it := e.Req.CandidateIDs[slot]
			k := storeKey{id: uint64(it)}
			if !stored[k] {
				stored[k] = true
				f.queueStoreReplicas("item", k.id, c, f.itemReplicas(it))
			}
		}
	}
}

// ladder adds the frontend's plane-specific overload rungs after the core's
// queue-pressure check: degrade when the pool is mostly breaker-open or the
// remaining deadline cannot cover the estimated full serve, shed when the
// deadline is already gone.
func (f *Frontend) ladder(ctx context.Context, req serving.RankRequest) (mode, reason string) {
	if n := len(f.cfg.CacheWorkers); n > 0 && f.transfer.openWorkerBreakers()*2 >= n {
		return serving.ModeDegraded, "pool-unhealthy"
	}
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl).Seconds()
		if remaining <= 0 {
			return serving.ModeShed, admission.ReasonDeadline
		}
		ds := f.cfg.Dataset
		userTokens := 0
		if req.UserID >= 0 && req.UserID < len(ds.UserHistory) {
			userTokens = len(ds.UserHistory[req.UserID])
		}
		itemTokens := 0
		for _, it := range req.CandidateIDs {
			if it >= 0 && it < len(ds.ItemTokens) {
				itemTokens += len(ds.ItemTokens[it])
			}
		}
		if est := f.estimateFullSeconds(userTokens, itemTokens); est > remaining {
			return serving.ModeDegraded, admission.ReasonDeadline
		}
	}
	return serving.ModeFull, ""
}

// metaAccess records an access; network failures degrade to cold (0).
func (f *Frontend) metaAccess(ctx context.Context, kind string, id uint64) float64 {
	body, err := json.Marshal(EntryRef{Kind: kind, ID: id})
	if err != nil {
		return 0
	}
	status, respBody, err := f.transfer.send(ctx, f.transfer.metaTarget(), http.MethodPost,
		f.cfg.MetaURL+"/v1/access", "application/json", body)
	if err != nil {
		f.noteFetchError()
		return 0
	}
	var out AccessResponse
	if status != http.StatusOK || json.Unmarshal(respBody, &out) != nil {
		return 0
	}
	return out.Hotness
}

// metaAccessBatch records the whole candidate set's item accesses in one
// round trip, keeping item hotness live in the meta service — the signal the
// poolguard's repair path ranks by. Failures are silent (hotness is advisory).
func (f *Frontend) metaAccessBatch(ctx context.Context, items []int) {
	if len(items) == 0 {
		return
	}
	refs := make([]EntryRef, len(items))
	for i, it := range items {
		refs[i] = EntryRef{Kind: "item", ID: uint64(it)}
	}
	body, err := json.Marshal(AccessBatchRequest{Entries: refs})
	if err != nil {
		return
	}
	f.transfer.send(ctx, f.transfer.metaTarget(), http.MethodPost,
		f.cfg.MetaURL+"/v1/access_batch", "application/json", body)
}

// calibrate folds one full request's observed seconds into the EWMA ratio
// that scales the offline estimator to real wall clock (fetch and transfer
// time included). Until the first observation the ratio stays 0 and the
// deadline gate never sheds.
func (f *Frontend) calibrate(tokens int, observed float64) {
	pred := f.est.Predict(tokens, 0)
	if pred <= 0 || observed <= 0 {
		return
	}
	ratio := observed / pred
	f.mu.Lock()
	if f.calibRatio == 0 {
		f.calibRatio = ratio
	} else {
		f.calibRatio = 0.7*f.calibRatio + 0.3*ratio
	}
	f.mu.Unlock()
}

// estimateFullSeconds predicts the wall clock a full (non-degraded) serve of
// this shape would take: the estimator's worst-case recompute prediction
// scaled by the observed calibration ratio. Returns 0 while uncalibrated so
// the deadline gate stays open cold.
func (f *Frontend) estimateFullSeconds(userTokens, itemTokens int) float64 {
	f.mu.Lock()
	ratio := f.calibRatio
	f.mu.Unlock()
	if ratio == 0 {
		return 0
	}
	return ratio * f.est.Predict(userTokens+itemTokens+2, 0)
}

// unregisterWorker bulk-purges one worker's meta bindings and returns the
// hottest purged entries for re-replication. Used by the poolguard on worker
// death and by the breaker-open stale-cleanup path.
func (f *Frontend) unregisterWorker(ctx context.Context, worker, hotLimit int) (*UnregisterWorkerResponse, error) {
	body, err := json.Marshal(UnregisterWorkerRequest{Worker: worker, HotLimit: hotLimit})
	if err != nil {
		return nil, err
	}
	status, respBody, err := f.transfer.send(ctx, f.transfer.metaTarget(), http.MethodPost,
		f.cfg.MetaURL+"/v1/unregister_worker", "application/json", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("distserve: unregister_worker returned status %d", status)
	}
	var out UnregisterWorkerResponse
	if err := json.Unmarshal(respBody, &out); err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.workerPurges++
	f.purgedBindings += int64(out.Removed)
	f.mu.Unlock()
	return &out, nil
}

// maybePurgeWorker runs the worker-granularity stale cleanup when a fetch
// hits an open breaker: instead of per-key 404 unregisters (which never
// happen while the breaker short-circuits fetches), drop every binding the
// dead worker holds so metaLocate stops steering requests at it. Rate-limited
// per worker to one purge per breaker cooldown.
func (f *Frontend) maybePurgeWorker(ctx context.Context, worker int) {
	if worker < 0 || worker >= len(f.lastPurge) {
		return
	}
	now := time.Now()
	f.mu.Lock()
	if now.Sub(f.lastPurge[worker]) < f.cfg.Transfer.BreakerCooldown {
		f.mu.Unlock()
		return
	}
	f.lastPurge[worker] = now
	f.mu.Unlock()
	f.unregisterWorker(ctx, worker, 0)
}

// metaLocate resolves an entry's workers; failures degrade to "not cached".
func (f *Frontend) metaLocate(ctx context.Context, kind string, id uint64) []int {
	u := fmt.Sprintf("%s/v1/locate?kind=%s&id=%d", f.cfg.MetaURL, url.QueryEscape(kind), id)
	status, body, _, err := f.transfer.get(ctx, f.transfer.metaTarget(), u)
	if err != nil {
		f.noteFetchError()
		return nil
	}
	if status != http.StatusOK {
		return nil
	}
	var out LocateResponse
	if json.Unmarshal(body, &out) != nil {
		return nil
	}
	return out.Workers
}

// metaUnregister drops a stale location binding after a worker miss, so
// metaLocate (and the hotness-aware policy's UserCached signal) stops
// reporting entries the pool has already evicted. Only unregisters that
// removed a live binding count as stale cleanups — a cold miss on a
// never-registered entry is a no-op, not staleness.
func (f *Frontend) metaUnregister(ctx context.Context, kind string, id uint64, worker int) {
	body, err := json.Marshal(RegisterRequest{EntryRef: EntryRef{Kind: kind, ID: id}, Worker: worker})
	if err != nil {
		return
	}
	_, respBody, err := f.transfer.send(ctx, f.transfer.metaTarget(), http.MethodPost,
		f.cfg.MetaURL+"/v1/unregister", "application/json", body)
	if err != nil {
		return
	}
	var out UnregisterResponse
	if json.Unmarshal(respBody, &out) == nil && out.Removed {
		f.mu.Lock()
		f.staleUnregisters++
		f.mu.Unlock()
	}
}

// fetchReplicated serves one entry from its replica set: with a single
// location it is a plain fetch; with more it either races a hedged second
// fetch against a slow first replica (when the fetch-stage histogram has
// calibrated a delay) or walks the locations in order, failing over past
// dead or evicted replicas. Degraded reads — a failover, or fewer locations
// than the replication factor — queue a background read-repair backfill.
func (f *Frontend) fetchReplicated(ctx context.Context, kind string, id uint64, locs []int) *model.KVCache {
	if len(locs) == 0 {
		return nil
	}
	if len(locs) > 1 {
		if d := f.hedgeDelay(); d > 0 {
			return f.fetchHedged(ctx, kind, id, locs, d)
		}
	}
	for i, loc := range locs {
		if c := f.fetchCache(ctx, loc, kind, id); c != nil {
			f.settleReplicaFetch(kind, id, c, loc, i > 0, len(locs))
			return c
		}
	}
	return nil
}

// settleReplicaFetch accounts a successful replica fetch: a read that walked
// past a failed replica is a failover, and any read that saw fewer locations
// than the replication factor (or a failed one) triggers read repair.
func (f *Frontend) settleReplicaFetch(kind string, id uint64, c *model.KVCache, src int, failedOver bool, locCount int) {
	if failedOver {
		f.mu.Lock()
		f.failovers++
		f.mu.Unlock()
	}
	if failedOver || locCount < f.replication() {
		f.maybeReadRepair(kind, id, c, src)
	}
}

// hedgeDelay derives the hedged-read trigger from the observed fetch-stage
// latency quantile. 0 disables hedging for this fetch: the histogram is
// still empty (cold start), hedging is configured off, or the pool has no
// second replica to race.
func (f *Frontend) hedgeDelay() time.Duration {
	q := f.cfg.Transfer.HedgeQuantile
	if q < 0 {
		return 0
	}
	if q == 0 {
		q = defaultHedgeQuantile
	}
	sec := f.core.Observer().StageQuantile(serving.StageFetch, q)
	if sec <= 0 {
		return 0
	}
	d := time.Duration(sec * float64(time.Second))
	if d < minHedgeDelay {
		d = minHedgeDelay
	}
	if lim := f.cfg.Transfer.Timeout / 2; d > lim {
		d = lim
	}
	return d
}

// fetchHedged races the first two replicas: the primary fetch gets delay to
// answer; past that a second fetch to the next replica is issued and the
// first success wins. The loser is left to finish and is discarded (its
// result channel is buffered) — canceling it would charge the breaker with a
// failure the worker didn't commit. A primary that fails outright (not
// slowly) degenerates to ordinary failover without burning a hedge.
func (f *Frontend) fetchHedged(ctx context.Context, kind string, id uint64, locs []int, delay time.Duration) *model.KVCache {
	type hedgeResult struct {
		c   *model.KVCache
		idx int
	}
	// The racing fetches ride a cancel-detached context: the caller stops
	// waiting at its own deadline (the ctx.Done case below), but a loser left
	// in flight finishes on the transfer engine's per-attempt timeout instead
	// of being killed at request end — a mid-stream cancel would surface as a
	// fetch error and charge the breaker with a failure the worker didn't
	// commit.
	fctx := context.WithoutCancel(ctx)
	ch := make(chan hedgeResult, 2)
	launch := func(idx int) {
		go func() { ch <- hedgeResult{f.fetchCache(fctx, locs[idx], kind, id), idx} }()
	}
	launch(0)
	timer := time.NewTimer(delay)
	defer timer.Stop()
	select {
	case r := <-ch:
		if r.c != nil {
			f.settleReplicaFetch(kind, id, r.c, locs[0], false, len(locs))
			return r.c
		}
		for i := 1; i < len(locs); i++ {
			if c := f.fetchCache(ctx, locs[i], kind, id); c != nil {
				f.settleReplicaFetch(kind, id, c, locs[i], true, len(locs))
				return c
			}
		}
		return nil
	case <-ctx.Done():
		return nil
	case <-timer.C:
	}
	launch(1)
	primaryFailed := false
	for i := 0; i < 2; i++ {
		r := <-ch
		if r.c != nil {
			outcome := "primary"
			if r.idx != 0 {
				outcome = "hedged"
			}
			f.hedgedCtr[outcome].Inc()
			f.settleReplicaFetch(kind, id, r.c, locs[r.idx], primaryFailed, len(locs))
			if i == 0 {
				// Reap the loser off the request path. A loser that failed
				// outright (not just lost the race) is a replica that cannot
				// serve the entry — without this, a dead replica hides behind
				// hedge wins and never gets failover accounting or repair.
				go func(winner hedgeResult) {
					if loser := <-ch; loser.c == nil {
						f.settleReplicaFetch(kind, id, winner.c, locs[winner.idx], true, len(locs))
					}
				}(r)
			}
			return r.c
		}
		if r.idx == 0 {
			primaryFailed = true
		}
	}
	f.hedgedCtr["miss"].Inc()
	for i := 2; i < len(locs); i++ {
		if c := f.fetchCache(ctx, locs[i], kind, id); c != nil {
			f.settleReplicaFetch(kind, id, c, locs[i], true, len(locs))
			return c
		}
	}
	return nil
}

// maybeReadRepair queues background copies of a fetched cache onto the
// replicas routing says should hold it, minus the one that served the read.
// Repairs ride the write-behind store queue (coalescing with regular stores
// of the same key) and a one-second token window bounds their rate.
func (f *Frontend) maybeReadRepair(kind string, id uint64, c *model.KVCache, src int) {
	if f.cfg.ReadRepairBudget < 0 || c == nil {
		return
	}
	for _, w := range f.replicaWorkers(routing.EntryHash(kind, id), f.replication()) {
		if w == src {
			continue
		}
		if !f.repairAdmit() {
			return
		}
		f.readRepairs.Inc()
		f.queueStore(w, kind, id, c)
	}
}

// repairAdmit spends one token from the per-second read-repair budget.
func (f *Frontend) repairAdmit() bool {
	budget := f.cfg.ReadRepairBudget
	if budget == 0 {
		budget = defaultReadRepairBudget
	}
	now := time.Now()
	f.repairMu.Lock()
	defer f.repairMu.Unlock()
	if now.Sub(f.repairWindow) >= time.Second {
		f.repairWindow = now
		f.repairCount = 0
	}
	if f.repairCount >= budget {
		return false
	}
	f.repairCount++
	return true
}

// flightCall is one in-flight item-cache fetch other requests can wait on.
type flightCall struct {
	done chan struct{}
	c    *model.KVCache
}

// fetchItemCaches pulls the per-candidate item caches with bounded
// concurrency (cfg.Transfer.FetchConcurrency) instead of one serial GET per
// candidate; misses leave nil holes that the ranker recomputes. Fetches of
// the same item — common when a batch of requests shares hot candidates —
// are single-flighted: one network GET per item, shared by every waiter.
func (f *Frontend) fetchItemCaches(ctx context.Context, ids []int) map[int]*model.KVCache {
	results := make([]*model.KVCache, len(ids))
	sem := make(chan struct{}, f.cfg.Transfer.FetchConcurrency)
	var wg sync.WaitGroup
	for slot, it := range ids {
		wg.Add(1)
		sem <- struct{}{}
		go func(slot, it int) {
			defer wg.Done()
			defer func() { <-sem }()
			results[slot] = f.fetchItemCacheShared(ctx, it)
		}(slot, it)
	}
	wg.Wait()
	caches := make(map[int]*model.KVCache, len(ids))
	for slot, c := range results {
		if c != nil {
			caches[slot] = c
		}
	}
	return caches
}

// fetchItemCacheShared coalesces concurrent fetches of one item ID: the
// first caller (leader) issues the real fetch; followers block on its result.
// The shared *KVCache is safe to hand to multiple requests because execution
// never mutates supplied caches. A follower whose own context expires stops
// waiting; a leader that fails yields a miss for every waiter (they recompute
// — correctness never depends on the fetch).
func (f *Frontend) fetchItemCacheShared(ctx context.Context, it int) *model.KVCache {
	id := uint64(it)
	f.flightMu.Lock()
	if call, ok := f.flight[id]; ok {
		f.flightMu.Unlock()
		wait := time.Now()
		select {
		case <-call.done:
			f.mu.Lock()
			f.coalescedFetches++
			f.mu.Unlock()
			f.observeFetch(ctx, f.itemWorker(it), "item", "coalesced", 0, wait)
			return call.c
		case <-ctx.Done():
			return nil
		}
	}
	call := &flightCall{done: make(chan struct{})}
	f.flight[id] = call
	f.flightMu.Unlock()
	call.c = f.fetchReplicated(ctx, "item", id, f.itemReplicas(it))
	f.flightMu.Lock()
	delete(f.flight, id)
	f.flightMu.Unlock()
	close(call.done)
	return call.c
}

// fetchCache pulls and decodes one KV payload; any failure is a miss (the
// request recomputes, never errors). The response body streams straight into
// the codec's frame decoder — decode cost hides under receive time, and the
// full payload is never buffered separately. A truncated or corrupt stream is
// a decode-error miss (the decoder installs nothing on failure, so a partial
// body can never masquerade as a hit). The decoder stops at the last layer
// frame, so a decoded body is read on to EOF before it closes: only then does
// the transport keep the connection, and the next fetch from this worker
// skips the dial. A decode error closes the body where it stands, which drops
// a connection whose stream position is unknown. A 404 means the worker
// evicted the entry, so the stale meta binding is unregistered. Every round
// trip lands in the request's trace as a StageFetch span plus an outcome
// counter.
func (f *Frontend) fetchCache(ctx context.Context, worker int, kind string, id uint64) *model.KVCache {
	if worker < 0 || worker >= len(f.cfg.CacheWorkers) {
		return nil
	}
	start := time.Now()
	u := fmt.Sprintf("%s/kv/%s/%d", f.cfg.CacheWorkers[worker], kind, id)
	status, _, body, tries, err := f.transfer.getStream(ctx, worker, u)
	if err != nil {
		f.noteFetchError()
		outcome := "error"
		if errors.Is(err, errBreakerOpen) {
			outcome = "breaker-open"
		}
		f.observeFetch(ctx, worker, kind, outcome, tries, start)
		if errors.Is(err, errBreakerOpen) {
			f.maybePurgeWorker(ctx, worker)
		}
		return nil
	}
	defer body.Close()
	if status == http.StatusNotFound {
		routing.DrainBody(body)
		f.observeFetch(ctx, worker, kind, "miss", tries, start)
		f.metaUnregister(ctx, kind, id, worker)
		return nil
	}
	if status != http.StatusOK {
		routing.DrainBody(body)
		f.observeFetch(ctx, worker, kind, "error", tries, start)
		return nil
	}
	c := model.NewKVCache(f.ranker.W.Config())
	n, err := c.ReadFrom(body)
	if err != nil {
		f.noteFetchError()
		f.observeFetch(ctx, worker, kind, "decode-error", tries, start)
		return nil
	}
	routing.DrainBody(body)
	f.countBytes("rx", kind, "full", n)
	f.streamFetches.Inc()
	f.observeFetch(ctx, worker, kind, "hit", tries, start)
	return c
}

// countBytes folds one payload into bat_transfer_bytes_total{dir,kind,mode}.
func (f *Frontend) countBytes(dir, kind, mode string, n int64) {
	if c, ok := f.bytesCtr[dir+"/"+kind+"/"+mode]; ok {
		c.Add(n)
	}
}

func (f *Frontend) rememberStored(key string, worker, tokens int) {
	f.storedMu.Lock()
	if len(f.stored) >= maxStoredPrefixes {
		f.stored = make(map[string]storedPrefix)
	}
	f.stored[key] = storedPrefix{worker: worker, tokens: tokens}
	f.storedMu.Unlock()
}

func (f *Frontend) forgetStored(key string) {
	f.storedMu.Lock()
	delete(f.stored, key)
	f.storedMu.Unlock()
}

// kvChecksumHeader carries the FNV-1a/64 checksum (hex) of the stored prefix
// a delta PATCH expects the worker to still hold.
const kvChecksumHeader = "X-KV-Checksum"

// kvTokensHeader carries an entry's token count on HEAD probe responses.
const kvTokensHeader = "X-KV-Tokens"

// storeCache synchronously writes a payload — as a suffix-only delta append
// when this worker already holds a verified prefix of the entry, else a full
// PUT — and registers its location; failures are silent (the cache is an
// optimization). The write-behind queue and the poolguard's repair path both
// land here.
func (f *Frontend) storeCache(ctx context.Context, worker int, kind string, id uint64, c *model.KVCache) {
	if worker < 0 || worker >= len(f.cfg.CacheWorkers) {
		return
	}
	// Delta prefixes are tracked per (worker, key): with replication each
	// replica advances independently, so PATCH vs full PUT is decided per
	// copy, not per entry.
	key := kind + "/" + strconv.FormatUint(id, 10) + "@" + strconv.Itoa(worker)
	if f.tryDeltaStore(ctx, worker, kind, id, key, c) {
		return
	}
	data, err := c.MarshalBinary()
	if err != nil {
		return
	}
	u := fmt.Sprintf("%s/kv/%s/%d", f.cfg.CacheWorkers[worker], kind, id)
	status, _, err := f.transfer.send(ctx, worker, http.MethodPut, u, "application/octet-stream", data)
	if err != nil {
		f.noteFetchError()
		return
	}
	if status != http.StatusNoContent {
		return
	}
	f.countBytes("tx", kind, "full", int64(len(data)))
	f.rememberStored(key, worker, c.Len())
	f.registerLocation(ctx, kind, id, worker)
}

// tryDeltaStore ships only the tokens the worker doesn't have: when the
// frontend last stored this key on the same worker at N ≤ Len tokens, it
// PATCHes the [N, Len) suffix guarded by the prefix token count and checksum.
// Any mismatch (evicted, restarted, content drift) falls back to a full PUT —
// correctness never depends on the worker's state, only bytes moved do.
func (f *Frontend) tryDeltaStore(ctx context.Context, worker int, kind string, id uint64, key string, c *model.KVCache) bool {
	f.storedMu.Lock()
	prev, ok := f.stored[key]
	f.storedMu.Unlock()
	if !ok || prev.worker != worker || prev.tokens <= 0 || prev.tokens > c.Len() {
		return false
	}
	delta, err := c.MarshalRange(prev.tokens, c.Len())
	if err != nil {
		return false
	}
	sum, err := c.ChecksumRange(0, prev.tokens)
	if err != nil {
		return false
	}
	u := fmt.Sprintf("%s/kv/%s/%d?from=%d", f.cfg.CacheWorkers[worker], kind, id, prev.tokens)
	hdr := http.Header{}
	hdr.Set(kvChecksumHeader, strconv.FormatUint(sum, 16))
	status, _, err := f.transfer.sendHeader(ctx, worker, http.MethodPatch, u, "application/octet-stream", hdr, delta)
	if err != nil || status != http.StatusNoContent {
		f.deltaFallbacks.Inc()
		f.forgetStored(key)
		return false
	}
	f.countBytes("tx", kind, "delta", int64(len(delta)))
	f.deltaStores.Inc()
	f.rememberStored(key, worker, c.Len())
	f.registerLocation(ctx, kind, id, worker)
	return true
}

// registerLocation binds (kind, id) → worker in the meta service. Every
// caller has just landed the entry on that worker, so a user entry also
// invalidates the folded /v1/load residency summary.
func (f *Frontend) registerLocation(ctx context.Context, kind string, id uint64, worker int) {
	if kind == "user" {
		f.residencyChanged()
	}
	body, err := json.Marshal(RegisterRequest{EntryRef: EntryRef{Kind: kind, ID: id}, Worker: worker})
	if err != nil {
		return
	}
	f.transfer.send(ctx, f.transfer.metaTarget(), http.MethodPost,
		f.cfg.MetaURL+"/v1/register", "application/json", body)
}

// queueStore hands a freshly computed cache to the write-behind queue; when
// the queue is disabled (StoreQueueDepth < 0) the store runs inline, the
// pre-write-behind behavior. A store for a key already waiting is coalesced
// (the latest cache wins — it strictly supersedes the older bytes); a full
// queue drops the store (counted) rather than stalling a batch boundary.
func (f *Frontend) queueStore(worker int, kind string, id uint64, c *model.KVCache) {
	if f.storeCh == nil {
		f.storeCache(f.storeCtx, worker, kind, id, c)
		return
	}
	// Pending jobs coalesce per (worker, key): replicated stores of one entry
	// to two workers are distinct jobs, while a re-store of the same replica
	// just refreshes the queued payload.
	key := kind + "/" + strconv.FormatUint(id, 10) + "@" + strconv.Itoa(worker)
	f.storeMu.Lock()
	if j, ok := f.storePending[key]; ok {
		j.worker, j.c = worker, c
		f.storeMu.Unlock()
		f.storeCoalesced.Inc()
		return
	}
	select {
	case f.storeCh <- key:
		f.storePending[key] = &storeJob{worker: worker, kind: kind, id: id, c: c}
		f.storeMu.Unlock()
	default:
		f.storeMu.Unlock()
		f.storeDrops.Inc()
	}
}

// queueStoreReplicas fans one fresh cache out to its replica set: the first
// worker is the primary (the pre-replication store), the rest are tagged
// secondary copies; every copy rides the same write-behind queue and
// registers its own meta binding on success.
func (f *Frontend) queueStoreReplicas(kind string, id uint64, c *model.KVCache, workers []int) {
	for ri, w := range workers {
		if ri == 0 {
			f.replicaStores["primary"].Inc()
		} else {
			f.replicaStores["secondary"].Inc()
		}
		f.queueStore(w, kind, id, c)
	}
}

// storeLoop is one write-behind worker: it drains the queue, running each
// store against the frontend-owned background context with a per-store
// timeout (a request's context dies with its response; these must not).
func (f *Frontend) storeLoop() {
	defer f.storeWG.Done()
	for {
		select {
		case <-f.storeCtx.Done():
			return
		case key := <-f.storeCh:
			f.storeMu.Lock()
			j := f.storePending[key]
			delete(f.storePending, key)
			f.storeActive++
			f.storeMu.Unlock()
			if j != nil {
				start := time.Now()
				ctx, cancel := context.WithTimeout(f.storeCtx, 4*f.cfg.Transfer.Timeout)
				f.storeCache(ctx, j.worker, j.kind, j.id, j.c)
				cancel()
				f.core.Observer().ObserveStage(serving.StageStore, time.Since(start))
			}
			f.storeMu.Lock()
			f.storeActive--
			f.storeCond.Broadcast()
			f.storeMu.Unlock()
		}
	}
}

// FlushStores blocks until every queued write-behind store has completed —
// the determinism hook for tests, benchmarks, and shutdown paths that need
// the pool to reflect all commits so far. Returns the context's error if it
// expires first. A frontend with the queue disabled returns immediately.
func (f *Frontend) FlushStores(ctx context.Context) error {
	if f.storeCh == nil {
		return nil
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.storeMu.Lock()
		defer f.storeMu.Unlock()
		for (len(f.storePending) > 0 || f.storeActive > 0) && f.storeCtx.Err() == nil {
			f.storeCond.Wait()
		}
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (f *Frontend) noteFetchError() {
	f.mu.Lock()
	f.fetchErrors++
	f.mu.Unlock()
}

// FrontendStats is the /v1/stats payload.
type FrontendStats struct {
	Requests       int64   `json:"requests"`
	UserPrefix     int64   `json:"user_prefix_requests"`
	ItemPrefix     int64   `json:"item_prefix_requests"`
	ReusedTokens   int64   `json:"reused_tokens"`
	ComputedTokens int64   `json:"computed_tokens"`
	TokenHitRate   float64 `json:"token_hit_rate"`
	FetchErrors    int64   `json:"fetch_errors"`
	// Failovers counts user-cache fetches served by a replica after the
	// first location failed; StaleUnregisters counts evicted entries whose
	// meta bindings were cleaned up after a worker 404.
	Failovers        int64 `json:"failovers"`
	StaleUnregisters int64 `json:"stale_unregisters"`
	// CoalescedFetches counts item-cache fetches answered by another
	// request's in-flight GET instead of a fresh network round trip.
	CoalescedFetches int64 `json:"coalesced_fetches"`
	// DedupedTokens counts prefix tokens whose forward was shared from an
	// identical in-batch miss; PrefetchedPlans counts plans served from a
	// fetch that started at enqueue and overlapped the batch window.
	DedupedTokens   int64 `json:"deduped_tokens"`
	PrefetchedPlans int64 `json:"prefetched_plans"`
	// Admission is the overload ladder's front door: in-flight/queue gauges
	// plus admitted/queued/shed counters.
	Admission admission.Stats `json:"admission"`
	// DegradedRequests counts responses served by the retrieval fallback;
	// DeadlineAborts counts full serves canceled mid-execution by an expired
	// deadline or disconnected client.
	DegradedRequests int64 `json:"degraded_requests"`
	DeadlineAborts   int64 `json:"deadline_aborts"`
	// Batches counts packed executions; AvgBatchSize is the mean requests
	// per batch; MaxBatchSize the largest batch formed.
	Batches      int64   `json:"batches"`
	AvgBatchSize float64 `json:"avg_batch_size"`
	MaxBatchSize int64   `json:"max_batch_size"`
	// WorkerPurges counts bulk meta cleanups (poolguard deaths plus
	// breaker-open sweeps); PurgedBindings is the total bindings they removed.
	WorkerPurges   int64 `json:"worker_purges"`
	PurgedBindings int64 `json:"purged_bindings"`
	// CalibratedCostRatio is the EWMA of observed/predicted full-serve
	// seconds; 0 means the deadline gate is still uncalibrated (never sheds).
	CalibratedCostRatio float64 `json:"calibrated_cost_ratio"`
	// Transfer-engine byte accounting: RxBytes counts streamed fetch payloads,
	// TxBytes full-PUT store payloads, TxDeltaBytes suffix-only PATCH payloads.
	RxBytes      int64 `json:"rx_bytes"`
	TxBytes      int64 `json:"tx_bytes"`
	TxDeltaBytes int64 `json:"tx_delta_bytes"`
	// StreamFetches counts cache fetches decoded frame-by-frame as the body
	// arrived; DeltaStores counts stores shipped as suffix-only appends;
	// DeltaFallbacks counts delta attempts that fell back to a full PUT.
	StreamFetches  int64 `json:"stream_fetches"`
	DeltaStores    int64 `json:"delta_stores"`
	DeltaFallbacks int64 `json:"delta_fallbacks"`
	// Write-behind queue health: coalesced re-stores of a still-queued key and
	// stores dropped on queue overflow.
	StoreCoalesced int64 `json:"store_coalesced"`
	StoreDrops     int64 `json:"store_drops"`
	// Replication health. Replication is the effective RF; ReplicaStores
	// counts secondary copies queued by Commit; ReadRepairs counts background
	// backfills triggered by degraded reads; HedgedFetches counts issued
	// hedge races and HedgedWins the races the second replica won;
	// CloseDroppedStores counts queued stores dropped at shutdown after the
	// bounded flush; Drains counts completed graceful worker drains.
	Replication        int   `json:"replication"`
	ReplicaStores      int64 `json:"replica_stores"`
	ReadRepairs        int64 `json:"read_repairs"`
	HedgedFetches      int64 `json:"hedged_fetches"`
	HedgedWins         int64 `json:"hedged_wins"`
	CloseDroppedStores int64 `json:"close_dropped_stores"`
	Drains             int64 `json:"drains"`
	// Guard is the poolguard's view of the cache pool, when one is attached.
	Guard *PoolGuardStats `json:"poolguard,omitempty"`
	// Workers is per-target transfer health (workers in index order, then
	// the meta service): request/error counts, average latency, and the
	// circuit breaker state, so degradation is measurable rather than
	// silent.
	Workers []WorkerHealth `json:"workers"`
}

// Stats snapshots the frontend.
func (f *Frontend) Stats() FrontendStats {
	cs := f.core.Stats()
	f.mu.Lock()
	st := FrontendStats{
		Requests: cs.Requests, UserPrefix: cs.UserPrefix, ItemPrefix: cs.ItemPrefix,
		ReusedTokens: cs.ReusedTokens, ComputedTokens: cs.ComputedTokens,
		DedupedTokens: cs.DedupedTokens, PrefetchedPlans: f.prefetchedPlans,
		FetchErrors: f.fetchErrors, Failovers: f.failovers,
		StaleUnregisters: f.staleUnregisters, CoalescedFetches: f.coalescedFetches,
		DegradedRequests: cs.DegradedRequests, DeadlineAborts: cs.DeadlineAborts,
		Batches: cs.Batches, MaxBatchSize: cs.MaxBatchSize,
		WorkerPurges: f.workerPurges, PurgedBindings: f.purgedBindings,
		CalibratedCostRatio: f.calibRatio,
	}
	guard := f.guard
	f.mu.Unlock()
	for key, c := range f.bytesCtr {
		switch key {
		case "rx/user/full", "rx/item/full", "rx/user/delta", "rx/item/delta":
			st.RxBytes += c.Value()
		case "tx/user/full", "tx/item/full":
			st.TxBytes += c.Value()
		case "tx/user/delta", "tx/item/delta":
			st.TxDeltaBytes += c.Value()
		}
	}
	st.StreamFetches = f.streamFetches.Value()
	st.DeltaStores = f.deltaStores.Value()
	st.DeltaFallbacks = f.deltaFallbacks.Value()
	st.StoreCoalesced = f.storeCoalesced.Value()
	st.StoreDrops = f.storeDrops.Value()
	st.Replication = f.replication()
	st.ReplicaStores = f.replicaStores["secondary"].Value()
	st.ReadRepairs = f.readRepairs.Value()
	st.HedgedWins = f.hedgedCtr["hedged"].Value()
	for _, c := range f.hedgedCtr {
		st.HedgedFetches += c.Value()
	}
	st.CloseDroppedStores = f.closeDrops.Value()
	st.Drains = f.drainsCtr.Value()
	if total := st.ReusedTokens + st.ComputedTokens; total > 0 {
		st.TokenHitRate = float64(st.ReusedTokens) / float64(total)
	}
	if cs.Batches > 0 {
		st.AvgBatchSize = float64(cs.BatchedRequests) / float64(cs.Batches)
	}
	st.Admission = cs.Admission
	if guard != nil {
		gs := guard.Stats()
		st.Guard = &gs
	}
	st.Workers = f.transfer.health()
	f.mu.Lock()
	for i := range f.draining {
		if i < len(st.Workers) {
			st.Workers[i].Draining = f.draining[i]
		}
	}
	f.mu.Unlock()
	return st
}

// Handler exposes the frontend API: POST /v1/rank, GET /v1/stats, GET
// /metrics (plain-text exposition: the core's per-stage latency histograms
// and counters plus the frontend's pool/fetch lines), GET /debug/trace (the
// last-N request traces, fetch spans tagged with worker and outcome), GET
// /v1/load (the routing tier's load + cache-residency snapshot), and
// /healthz. /v1/rank runs the serving core's overload ladder — admit (bounded
// in-flight + wait queue), degrade (retrieval fallback under queue pressure,
// pool ill-health, or a tight deadline via the frontend's ladder rungs), or
// shed (429 + Retry-After) — then the batch loop. The request's deadline
// comes from the Deadline-Ms header, defaulting to the admission config.
func (f *Frontend) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/rank", f.core.HandleRank)
	mux.HandleFunc("/v1/stats", func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, f.Stats())
	})
	mux.HandleFunc("/metrics", func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		f.core.WriteMetrics(rw)
		f.writePoolMetrics(rw)
	})
	mux.HandleFunc("/debug/trace", f.core.HandleTraces)
	mux.HandleFunc("/v1/load", f.handleLoad)
	mux.HandleFunc("/v1/drain", f.handleDrain)
	mux.HandleFunc("/v1/undrain", f.handleUndrain)
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(rw, "ok")
	})
	return mux
}

// writePoolMetrics appends the disaggregated plane's lines to a /metrics
// scrape: pool fetch health, per-target transfer state, and the poolguard's
// repair counters when a guard is attached.
func (f *Frontend) writePoolMetrics(w io.Writer) {
	st := f.Stats()
	fmt.Fprintf(w, "bat_fetch_errors_total %d\n", st.FetchErrors)
	fmt.Fprintf(w, "bat_fetch_failovers_total %d\n", st.Failovers)
	fmt.Fprintf(w, "bat_coalesced_fetches_total %d\n", st.CoalescedFetches)
	fmt.Fprintf(w, "bat_prefetched_plans_total %d\n", st.PrefetchedPlans)
	fmt.Fprintf(w, "bat_stale_unregisters_total %d\n", st.StaleUnregisters)
	fmt.Fprintf(w, "bat_worker_purges_total %d\n", st.WorkerPurges)
	fmt.Fprintf(w, "bat_purged_bindings_total %d\n", st.PurgedBindings)
	fmt.Fprintf(w, "bat_calibrated_cost_ratio %g\n", st.CalibratedCostRatio)
	for _, wh := range st.Workers {
		fmt.Fprintf(w, "bat_transfer_requests_total{target=%q} %d\n", wh.Target, wh.Requests)
		fmt.Fprintf(w, "bat_transfer_errors_total{target=%q} %d\n", wh.Target, wh.Errors)
		fmt.Fprintf(w, "bat_transfer_breaker_skips_total{target=%q} %d\n", wh.Target, wh.BreakerSkips)
	}
	for i, wh := range st.Workers {
		if wh.Target == "meta" {
			continue
		}
		v := 0
		if wh.Draining {
			v = 1
		}
		fmt.Fprintf(w, "bat_worker_draining{worker=\"%d\"} %d\n", i, v)
	}
	if st.Guard != nil {
		fmt.Fprintf(w, "bat_poolguard_probes_total %d\n", st.Guard.Probes)
		fmt.Fprintf(w, "bat_poolguard_deaths_total %d\n", st.Guard.Deaths)
		fmt.Fprintf(w, "bat_poolguard_rejoins_total %d\n", st.Guard.Rejoins)
		fmt.Fprintf(w, "bat_poolguard_repaired_total %d\n", st.Guard.Repaired)
		fmt.Fprintf(w, "bat_scrub_sweeps_total %d\n", st.Guard.ScrubSweeps)
		fmt.Fprintf(w, "bat_scrub_repairs_total %d\n", st.Guard.ScrubRepairs)
		fmt.Fprintf(w, "bat_scrub_divergent_total %d\n", st.Guard.ScrubDivergent)
		fmt.Fprintf(w, "bat_under_replicated_entries %d\n", st.Guard.UnderReplicated)
		for _, kind := range []string{"user", "item"} {
			fmt.Fprintf(w, "bat_replicas_gauge{kind=%q} %g\n", kind, st.Guard.ReplicaAvg[kind])
		}
	}
}

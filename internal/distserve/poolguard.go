package distserve

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"bat/internal/bipartite"
	"bat/internal/placement"
	"bat/internal/routing"
	"bat/internal/workload"
)

// PoolGuard is the frontend's self-healing loop for the disaggregated cache
// pool: it probes every cache worker's /healthz on a fixed cadence, declares
// a worker dead after consecutive probe failures, and then runs the repair
// sequence — route writes away from it (Frontend.SetWorkerAlive), bulk-purge
// its meta bindings so reads stop being steered at it, and re-replicate the
// hottest purged entries onto surviving workers so the cache damage a death
// causes is concentrated on cold entries. A worker that starts answering
// probes again rejoins automatically: writes route back and its cache refills
// through the normal store path.
//
// The transfer engine's circuit breakers handle the request path (skip a dead
// worker fast); the poolguard handles the pool's state (clean up after it and
// put the hot entries back). They are deliberately independent signals: the
// breaker trips only if requests actually hit the worker, the probe fires
// even on an idle pool.

// Poolguard defaults; all overridable through PoolGuardConfig.
const (
	defaultProbeInterval = 500 * time.Millisecond
	defaultProbeTimeout  = 250 * time.Millisecond
	defaultFailThreshold = 2
	defaultRepairHot     = 16
)

// PoolGuardConfig tunes the self-healing loop. Zero value = defaults.
type PoolGuardConfig struct {
	// ProbeInterval is the health-probe cadence.
	ProbeInterval time.Duration
	// ProbeTimeout bounds each probe.
	ProbeTimeout time.Duration
	// FailThreshold is the consecutive probe failures that declare a worker
	// dead.
	FailThreshold int
	// RepairHot caps how many of a dead worker's hottest entries are
	// re-replicated onto survivors.
	RepairHot int
	// PromotionSlack sizes the dynamic promotion area gating item repairs
	// (default RepairHot).
	PromotionSlack int
	// ScrubInterval is the anti-entropy sweep cadence (scrub.go); 0 = the
	// 2s default, negative disables scrubbing.
	ScrubInterval time.Duration
	// ScrubShards splits the meta index so each sweep walks 1/ScrubShards of
	// the entries (default 8).
	ScrubShards int
	// ScrubMaxRepairs caps re-replications per sweep so a cold start cannot
	// flood the pool with copy traffic (default 32).
	ScrubMaxRepairs int
}

func (c PoolGuardConfig) withDefaults() PoolGuardConfig {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = defaultProbeInterval
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = defaultProbeTimeout
		if c.ProbeTimeout > c.ProbeInterval {
			c.ProbeTimeout = c.ProbeInterval
		}
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = defaultFailThreshold
	}
	if c.RepairHot <= 0 {
		c.RepairHot = defaultRepairHot
	}
	if c.PromotionSlack <= 0 {
		c.PromotionSlack = c.RepairHot
	}
	if c.ScrubInterval == 0 {
		c.ScrubInterval = defaultScrubInterval
	}
	if c.ScrubShards <= 0 {
		c.ScrubShards = defaultScrubShards
	}
	if c.ScrubMaxRepairs <= 0 {
		c.ScrubMaxRepairs = defaultScrubMaxRepairs
	}
	return c
}

// PoolGuard watches one frontend's cache-worker pool.
type PoolGuard struct {
	cfg  PoolGuardConfig
	f    *Frontend
	plan *placement.DynamicPlan
	// ctx is the guard's lifetime: every probe and repair context derives
	// from it, so Stop cancels in-flight HTTP work instead of leaving probe
	// goroutines to ride out their own timeouts against hung workers.
	ctx    context.Context
	cancel context.CancelFunc
	stop   chan struct{}
	done   chan struct{}
	start  sync.Once
	halt   sync.Once

	mu          sync.Mutex
	consecFails []int
	dead        []bool
	probes      int64
	deaths      int64
	rejoins     int64
	repaired    int64
	repairFails int64

	// Anti-entropy scrub state (scrub.go): the next shard to sweep plus
	// cumulative and last-sweep counters.
	scrubShard     int
	scrubSweeps    int64
	scrubRepairs   int64
	scrubDivergent int64
	lastSweep      scrubSweep
}

// NewPoolGuard attaches a self-healing guard to a frontend. Call Start to
// begin probing and Stop to shut down.
func NewPoolGuard(f *Frontend, cfg PoolGuardConfig) *PoolGuard {
	cfg = cfg.withDefaults()
	g := &PoolGuard{
		cfg:         cfg,
		f:           f,
		plan:        placement.NewDynamicPlan(placement.Plan{}, cfg.PromotionSlack),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		consecFails: make([]int, len(f.cfg.CacheWorkers)),
		dead:        make([]bool, len(f.cfg.CacheWorkers)),
	}
	g.ctx, g.cancel = context.WithCancel(context.Background())
	f.mu.Lock()
	f.guard = g
	f.mu.Unlock()
	return g
}

// Start launches the probe loop.
func (g *PoolGuard) Start() {
	g.start.Do(func() {
		go g.run()
	})
}

// Stop halts the probe loop, cancels any in-flight probe or repair HTTP
// work, and waits for the loop to exit.
func (g *PoolGuard) Stop() {
	g.halt.Do(func() {
		close(g.stop)
		g.cancel()
	})
	<-g.done
}

func (g *PoolGuard) run() {
	defer close(g.done)
	ticker := time.NewTicker(g.cfg.ProbeInterval)
	defer ticker.Stop()
	var scrubC <-chan time.Time
	if g.cfg.ScrubInterval > 0 {
		st := time.NewTicker(g.cfg.ScrubInterval)
		defer st.Stop()
		scrubC = st.C
	}
	for {
		select {
		case <-g.stop:
			return
		case <-ticker.C:
			g.probeAll()
		case <-scrubC:
			g.scrubOnce()
		}
	}
}

// probeAll sweeps every worker once, settling state transitions.
func (g *PoolGuard) probeAll() {
	for w := range g.f.cfg.CacheWorkers {
		select {
		case <-g.stop:
			return
		default:
		}
		healthy := g.probe(w)
		g.settle(w, healthy)
	}
}

// probe issues one bounded /healthz GET directly (not through the transfer
// engine: probes must reach a worker whose breaker is open, or rejoin would
// never be observed).
func (g *PoolGuard) probe(worker int) bool {
	ctx, cancel := context.WithTimeout(g.ctx, g.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		g.f.cfg.CacheWorkers[worker]+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := g.f.cfg.Client.Do(req)
	g.mu.Lock()
	g.probes++
	g.mu.Unlock()
	if err != nil {
		return false
	}
	routing.DrainBody(resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// settle folds one probe outcome into the worker's state, firing the repair
// sequence on a death transition and the rejoin path on recovery.
func (g *PoolGuard) settle(worker int, healthy bool) {
	g.mu.Lock()
	if healthy {
		g.consecFails[worker] = 0
		if !g.dead[worker] {
			g.mu.Unlock()
			return
		}
		g.dead[worker] = false
		g.rejoins++
		g.mu.Unlock()
		// Rejoin: the worker starts empty (or stale — its meta bindings were
		// purged, so stale content is unreachable) and refills through the
		// normal store path once writes route back to it.
		g.f.SetWorkerAlive(worker, true)
		return
	}
	g.consecFails[worker]++
	if g.dead[worker] || g.consecFails[worker] < g.cfg.FailThreshold {
		g.mu.Unlock()
		return
	}
	g.dead[worker] = true
	g.deaths++
	g.mu.Unlock()
	g.onDeath(worker)
}

// onDeath runs the repair sequence for a freshly dead worker.
func (g *PoolGuard) onDeath(worker int) {
	g.f.SetWorkerAlive(worker, false)
	ctx, cancel := context.WithTimeout(g.ctx, 2*g.cfg.ProbeInterval+2*time.Second)
	defer cancel()
	resp, err := g.f.unregisterWorker(ctx, worker, g.cfg.RepairHot)
	if err != nil {
		// The meta service is unreachable too; stale bindings will be swept
		// by the breaker-open purge path once requests notice.
		return
	}
	for _, hot := range resp.Hottest {
		if g.repair(ctx, hot) {
			g.mu.Lock()
			g.repaired++
			g.mu.Unlock()
		}
	}
}

// repair recomputes one purged entry and stores it on a surviving worker
// (the frontend's shard functions already route around the dead one). Item
// promotions go through the dynamic plan's bounded slack area, mirroring the
// §5.2 background refresh: a dead worker's hot items are exactly the burst
// entries worth replicating.
func (g *PoolGuard) repair(ctx context.Context, hot HotEntry) bool {
	ds := g.f.cfg.Dataset
	w := g.f.ranker.W
	switch hot.Kind {
	case "item":
		id := int(hot.ID)
		if id < 0 || id >= len(ds.ItemTokens) {
			return false
		}
		if !g.plan.Promote(workload.ItemID(id)) {
			return false
		}
		c := bipartite.ComputeItemCache(w, ds.ItemTokens[id])
		g.f.storeCache(ctx, g.f.itemWorker(id), "item", hot.ID, c)
		return true
	case "user":
		id := int(hot.ID)
		if id < 0 || id >= len(ds.UserHistory) {
			return false
		}
		userTokens := make([]int, len(ds.UserHistory[id]))
		for i, it := range ds.UserHistory[id] {
			userTokens[i] = ds.InteractionToken(it)
		}
		c := bipartite.ComputeUserCache(w, userTokens)
		g.f.storeCache(ctx, g.f.userWorker(id), "user", hot.ID, c)
		return true
	default:
		g.mu.Lock()
		g.repairFails++
		g.mu.Unlock()
		return false
	}
}

// PoolGuardWorker is one worker's slice of PoolGuardStats.
type PoolGuardWorker struct {
	Target      string `json:"target"`
	Dead        bool   `json:"dead"`
	ConsecFails int    `json:"consecutive_probe_failures"`
}

// PoolGuardStats is the guard's /v1/stats slice.
type PoolGuardStats struct {
	Probes   int64 `json:"probes"`
	Deaths   int64 `json:"deaths"`
	Rejoins  int64 `json:"rejoins"`
	Repaired int64 `json:"repaired_entries"`
	// RepairFailures counts purged entries the repair path could not
	// re-replicate (unknown kind or out-of-range ID).
	RepairFailures int64             `json:"repair_failures"`
	Workers        []PoolGuardWorker `json:"workers"`
	// Anti-entropy scrubber: cumulative sweep/repair counters plus the last
	// sweep's classification — entries checked, entries below the effective
	// replication factor before repair, and entries with no live replica.
	ScrubSweeps     int64 `json:"scrub_sweeps"`
	ScrubRepairs    int64 `json:"scrub_repairs"`
	ScrubDivergent  int64 `json:"scrub_divergent_repairs"`
	ScrubChecked    int   `json:"scrub_checked"`
	UnderReplicated int   `json:"under_replicated_entries"`
	LostEntries     int   `json:"lost_entries"`
	// ReplicaAvg is the mean live replicas per entry by kind at the last
	// sweep (0 when the sweep saw no entries of that kind).
	ReplicaAvg map[string]float64 `json:"replicas_avg"`
}

// Stats snapshots the guard.
func (g *PoolGuard) Stats() PoolGuardStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := PoolGuardStats{
		Probes: g.probes, Deaths: g.deaths, Rejoins: g.rejoins,
		Repaired: g.repaired, RepairFailures: g.repairFails,
		Workers:     make([]PoolGuardWorker, len(g.dead)),
		ScrubSweeps: g.scrubSweeps, ScrubRepairs: g.scrubRepairs,
		ScrubDivergent:  g.scrubDivergent,
		ScrubChecked:    g.lastSweep.checked,
		UnderReplicated: g.lastSweep.under,
		LostEntries:     g.lastSweep.lost,
		ReplicaAvg:      map[string]float64{"user": 0, "item": 0},
	}
	if g.lastSweep.userEntries > 0 {
		st.ReplicaAvg["user"] = float64(g.lastSweep.userReplicas) / float64(g.lastSweep.userEntries)
	}
	if g.lastSweep.itemEntries > 0 {
		st.ReplicaAvg["item"] = float64(g.lastSweep.itemReplicas) / float64(g.lastSweep.itemEntries)
	}
	for w := range g.dead {
		st.Workers[w] = PoolGuardWorker{
			Target:      fmt.Sprintf("worker-%d", w),
			Dead:        g.dead[w],
			ConsecFails: g.consecFails[w],
		}
	}
	return st
}

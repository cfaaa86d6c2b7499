package serving

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bat/internal/admission"
	"bat/internal/bipartite"
	"bat/internal/metrics"
	"bat/internal/ranking"
	"bat/internal/tensor"
)

// ErrClosed reports a rank call against a core that has been Closed.
var ErrClosed = errors.New("serving: core closed")

// Serving modes the overload ladder decides between.
const (
	ModeFull     = "full"
	ModeDegraded = "degraded"
	ModeShed     = "shed"
)

// Batch-window policies (Config.WindowPolicy).
const (
	WindowAdaptive = "adaptive"
	WindowFixed    = "fixed"
)

// Adaptive-window tuning: with at least minGapSamples observed inter-arrival
// gaps, the batcher waits per missing slot only gapWaitFactor × the EWMA gap
// (floored at minAdaptiveWait to survive scheduler jitter) instead of the
// full window — so when the queue drains and arrivals are sparse, the batch
// closes as soon as the next arrival is statistically overdue.
const (
	minGapSamples   = 4
	gapWaitFactor   = 4
	minAdaptiveWait = 50 * time.Microsecond
	gapEWMAAlpha    = 0.2 // weight of the newest inter-arrival sample
	// idleExecFraction caps any single adaptive wait at this fraction of the
	// observed mean execute stage: idle spent forming a batch is pure loss,
	// so it must stay small against the compute it hopes to amortize. (The
	// inter-arrival EWMA alone can overshoot — batch-boundary gaps pollute
	// it when clients are fewer than MaxBatch.)
	idleExecFraction = 0.25
)

// Plan is a backend's per-request scheduling outcome: the resolved prefix
// kind and whatever caches the backend could supply for it. Plan calls for
// the requests of one batch run concurrently, so they must only read
// snapshot state; mutations belong in Commit.
type Plan struct {
	// Kind is the prefix organization serving the request (already resolved:
	// a Recompute decision maps to UserPrefix with no caches).
	Kind bipartite.PrefixKind
	// Recompute suppresses cache admission at commit (the scheduler decided
	// reuse wasn't worth it).
	Recompute bool
	// AdmitUser gates admitting a freshly computed user cache.
	AdmitUser bool
	// Caches feeds the bipartite execution; missing entries are recomputed.
	Caches bipartite.CacheSet
	// Aux carries backend-private state from Plan to Commit (e.g. timing).
	Aux any
}

// CommitEntry hands one successfully executed request back to the backend.
type CommitEntry struct {
	Ctx  context.Context
	Req  RankRequest
	Plan *Plan
	Run  *bipartite.Run
}

// Backend is the plane-specific half of the lifecycle: where caches come
// from and where freshly computed ones go. Plan is called concurrently for
// the requests of a batch; Commit is called serially, once per batch, at the
// batch boundary — the only point where the cache pool may change.
type Backend interface {
	Plan(ctx context.Context, req RankRequest) (*Plan, error)
	Commit(entries []CommitEntry)
}

// Prefetcher is an optional Backend extension. When implemented, the core
// calls Prefetch at enqueue time — before the request sits out its queue and
// batch-window residency — so the backend can start cache fetches (network
// round trips on the disaggregated plane) that overlap with the batch-forming
// wait and the previous batch's compute instead of serializing inside Plan.
// The returned handle rides the request to the plan phase and is recoverable
// there via PrefetchHandle; Plan decides whether to await it. Prefetch must
// not block and must only read snapshot state.
type Prefetcher interface {
	Prefetch(ctx context.Context, req RankRequest) any
}

// prefetchKey carries a Prefetcher's handle through the context given to
// Backend.Plan.
type prefetchKey struct{}

// PrefetchHandle returns the handle the backend's Prefetch produced for this
// request, or nil when none was started (backend is not a Prefetcher, or the
// request bypassed the batch loop).
func PrefetchHandle(ctx context.Context) any {
	return ctx.Value(prefetchKey{})
}

// Config assembles a serving core.
type Config struct {
	Dataset   *ranking.Dataset
	Ranker    *ranking.Ranker
	Retriever *ranking.Retriever
	// TopK is the returned ranking length (default 10).
	TopK int
	// MultiDisc serves with the §4.2 multi-discriminant extension: each
	// request's layout carries one discriminant per candidate, and it packs
	// into the batched forward like any other.
	MultiDisc bool
	// DegradedMaxCandidates caps the candidate set served in degraded mode
	// (default 16).
	DegradedMaxCandidates int
	// Admission tunes the overload ladder. Zero value = defaults.
	Admission admission.Config
	// BatchWindow bounds how long the batcher waits for more requests after
	// the first arrival before executing (default 2ms; negative = don't wait,
	// just drain whatever is already queued).
	BatchWindow time.Duration
	// WindowPolicy selects how the window inside that bound behaves:
	// WindowAdaptive (default) closes early when the observed arrival rate
	// says no further request is likely to show up in time — a lone request
	// never eats the full window; WindowFixed always waits out BatchWindow
	// (the pre-adaptive behavior, used by timing-sensitive tests).
	WindowPolicy string
	// MaxBatch caps requests packed into one batched forward (default 8;
	// 1 = serialized execution).
	MaxBatch int
	// Ladder, when non-nil, adds plane-specific rungs to the overload ladder
	// (e.g. pool health, deadline cost estimates). It runs after the shared
	// queue-pressure check and returns a Mode* constant plus a reason.
	Ladder func(ctx context.Context, req RankRequest) (mode, reason string)
	// BatchHook, when non-nil, runs on the batcher goroutine with the batch
	// size right before each batch executes. Tests use it to stall or observe
	// batch formation.
	BatchHook func(size int)
	// TraceRing sizes the ring of retained request traces served at
	// /debug/trace (default 128).
	TraceRing int
}

type outcome struct {
	resp *RankResponse
	err  error
}

type pending struct {
	ctx  context.Context
	req  RankRequest
	done chan outcome

	// tb accumulates the request's stage spans; enq/deq are the queue
	// residency checkpoints (enqueue and batcher pickup).
	tb  *TraceBuilder
	enq time.Time
	deq time.Time
	// prefetch is the backend's in-flight fetch handle (Prefetcher backends
	// only), handed to Plan via its context.
	prefetch any
}

// Core runs the shared request lifecycle for one serving plane.
type Core struct {
	cfg     Config
	backend Backend
	adm     *admission.Controller
	obs     *Observer

	queue    chan *pending
	stop     chan struct{}
	stopOnce sync.Once

	// windowTimer is the batch loop's reused window timer. Owned exclusively
	// by the loop goroutine; always left stopped-and-drained between windows
	// so a stale expiry can never fire into a later window.
	windowTimer *time.Timer

	// windowClose counts window closes by cause (full batch, window timeout,
	// adaptive idle close, drain-only pass, shutdown).
	windowClose map[string]*metrics.Counter

	// Arrival-rate state behind the adaptive window: an EWMA of enqueue
	// inter-arrival gaps. Written by RankCtx callers, read by the batch loop.
	arrMu       sync.Mutex
	lastArrival time.Time
	ewmaGap     time.Duration
	gapSamples  int

	// inflight counts requests between enqueue and response delivery. The
	// adaptive window uses it as a causal arrival signal: when it exceeds the
	// forming batch's size, requests beyond this batch are already live and
	// will enqueue as soon as their goroutines get scheduled, so a drained
	// queue is a scheduling artifact rather than a real lull.
	inflight atomic.Int64

	mu                           sync.Mutex
	requests                     int64
	userPrefix, itemPrefix       int64
	reusedTokens, computedTokens int64
	dedupedTokens                int64
	degraded, deadlineAborts     int64
	batches, batchedRequests     int64
	maxBatch                     int64
}

// NewCore builds a core and starts its batch-forming loop.
func NewCore(cfg Config, backend Backend) (*Core, error) {
	if cfg.Dataset == nil || cfg.Ranker == nil || cfg.Retriever == nil {
		return nil, fmt.Errorf("serving: core needs a dataset, ranker, and retriever")
	}
	if backend == nil {
		return nil, fmt.Errorf("serving: nil backend")
	}
	if cfg.TopK == 0 {
		cfg.TopK = 10
	}
	if cfg.DegradedMaxCandidates <= 0 {
		cfg.DegradedMaxCandidates = 16
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 8
	}
	if cfg.BatchWindow == 0 {
		cfg.BatchWindow = 2 * time.Millisecond
	}
	if cfg.WindowPolicy == "" {
		cfg.WindowPolicy = WindowAdaptive
	}
	if cfg.WindowPolicy != WindowAdaptive && cfg.WindowPolicy != WindowFixed {
		return nil, fmt.Errorf("serving: unknown window policy %q", cfg.WindowPolicy)
	}
	if cfg.TraceRing <= 0 {
		cfg.TraceRing = 128
	}
	adm := admission.NewController(cfg.Admission)
	// The intake queue must cover everything admission can let through at
	// once (in-flight slots plus its wait queue): if it were smaller,
	// admitted requests would block silently in the channel send instead of
	// being shed 429 at the front door. The 4×MaxBatch floor keeps direct
	// RankCtx callers (no admission trip) batching well.
	queueCap := 4 * cfg.MaxBatch
	if depth := adm.Config().MaxInFlight + adm.Config().MaxQueue; depth > queueCap {
		queueCap = depth
	}
	c := &Core{
		cfg:     cfg,
		backend: backend,
		adm:     adm,
		obs:     newObserver(cfg.TraceRing),
		queue:   make(chan *pending, queueCap),
		stop:    make(chan struct{}),
	}
	c.windowTimer = time.NewTimer(time.Hour)
	if !c.windowTimer.Stop() {
		<-c.windowTimer.C
	}
	c.windowClose = make(map[string]*metrics.Counter)
	for _, reason := range []string{"full", "timeout", "idle", "drain", "stop"} {
		c.windowClose[reason] = c.obs.reg.Counter(`bat_window_close_total{reason="` + reason + `"}`)
	}
	c.obs.reg.GaugeFunc("bat_arrival_ewma_gap_seconds", func() float64 {
		c.arrMu.Lock()
		defer c.arrMu.Unlock()
		return c.ewmaGap.Seconds()
	})
	go c.loop()
	return c, nil
}

// noteArrival folds one enqueue timestamp into the inter-arrival EWMA the
// adaptive window policy keys off.
func (c *Core) noteArrival(now time.Time) {
	c.arrMu.Lock()
	if !c.lastArrival.IsZero() {
		gap := now.Sub(c.lastArrival)
		if gap < 0 {
			gap = 0
		}
		if c.gapSamples == 0 {
			c.ewmaGap = gap
		} else {
			c.ewmaGap = time.Duration((1-gapEWMAAlpha)*float64(c.ewmaGap) + gapEWMAAlpha*float64(gap))
		}
		c.gapSamples++
	}
	c.lastArrival = now
	c.arrMu.Unlock()
}

// arrivalOutlook returns the adaptive window's two ingredients: exp, how
// long until the next arrival is statistically overdue (gapWaitFactor × the
// EWMA gap), and budget, the most idle a wait is allowed to burn (a fraction
// of the observed execute-stage mean — idling longer than the compute it
// amortizes against can never pay for itself). ok is false until enough
// samples exist to trust the estimate; budget falls back to the full window
// while the execute histogram is still empty.
func (c *Core) arrivalOutlook() (exp, budget time.Duration, ok bool) {
	c.arrMu.Lock()
	defer c.arrMu.Unlock()
	if c.gapSamples < minGapSamples {
		return 0, 0, false
	}
	exp = gapWaitFactor * c.ewmaGap
	if exp < minAdaptiveWait {
		exp = minAdaptiveWait
	}
	budget = c.cfg.BatchWindow
	if mean := c.obs.StageMean(StageExecute); mean > 0 {
		if b := time.Duration(idleExecFraction * mean * float64(time.Second)); b < budget {
			budget = b
		}
	}
	if budget < minAdaptiveWait {
		budget = minAdaptiveWait
	}
	return exp, budget, true
}

// Close stops the batch loop; queued requests fail with ErrClosed.
func (c *Core) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
}

// Admission exposes the overload ladder's front door.
func (c *Core) Admission() *admission.Controller { return c.adm }

// InFlight reports requests currently between admission and response — the
// live load gauge the routing tier's /v1/load snapshot exports.
func (c *Core) InFlight() int { return int(c.inflight.Load()) }

// Observer exposes the core's observability state: the metric registry and
// the trace ring. Planes register their own metrics into its registry.
func (c *Core) Observer() *Observer { return c.obs }

// loop is the batch-forming loop: the first arrival opens a window
// (cfg.BatchWindow) during which up to cfg.MaxBatch requests coalesce into
// one batch; the batch then executes as a single packed bipartite forward.
func (c *Core) loop() {
	for {
		select {
		case <-c.stop:
			c.drainClosed()
			return
		case p := <-c.queue:
			p.deq = time.Now()
			batch := c.collect(p)
			c.serveBatch(batch)
		}
	}
}

// collect forms one batch starting from its first request. Work already
// queued is always taken immediately; only when the queue is empty does the
// window wait, and under the adaptive policy that wait is bounded by the
// observed arrival rate, so a lone request during a lull never sits out the
// full BatchWindow.
func (c *Core) collect(first *pending) []*pending {
	batch := []*pending{first}
	if c.cfg.MaxBatch <= 1 {
		return batch
	}
	// Drain whatever is already waiting — never idle while work is ready.
	for len(batch) < c.cfg.MaxBatch {
		select {
		case p := <-c.queue:
			p.deq = time.Now()
			batch = append(batch, p)
			continue
		default:
		}
		break
	}
	if len(batch) == c.cfg.MaxBatch {
		c.windowClose["full"].Inc()
		return batch
	}
	if c.cfg.BatchWindow < 0 {
		c.windowClose["drain"].Inc()
		return batch
	}

	deadline := time.Now().Add(c.cfg.BatchWindow)
	adaptive := c.cfg.WindowPolicy == WindowAdaptive
	// disarm restores the reused timer to stopped-and-drained. Called on
	// every exit from a wait (fired or not): a timer left armed — or fired
	// with its channel undrained — would leak its expiry into a later
	// window and close it at the wrong time.
	disarm := func(fired bool) {
		if fired {
			return // the receive already drained the channel
		}
		if !c.windowTimer.Stop() {
			select {
			case <-c.windowTimer.C:
			default:
			}
		}
	}
	for len(batch) < c.cfg.MaxBatch {
		wait := time.Until(deadline)
		if wait <= 0 {
			c.windowClose["timeout"].Inc()
			return batch
		}
		reason := "timeout"
		if adaptive {
			exp, budget, ok := c.arrivalOutlook()
			if int(c.inflight.Load()) > len(batch) {
				// Live requests beyond this batch exist: their clients are
				// between enqueue and response and will reach the queue as
				// soon as they get scheduled. Give each up to the expected
				// gap — the wait is scheduling latency, not a real lull.
				if ok && exp < wait {
					wait, reason = exp, "idle"
				}
			} else if ok {
				if exp > budget {
					// The queue is drained, nobody else is live, and the next
					// arrival is expected later than idling can pay for —
					// close now instead of burning compute time waiting.
					c.windowClose["idle"].Inc()
					return batch
				}
				if exp < wait {
					// A new arrival is imminent: wait just long enough for
					// one; if it fails to show in gapWaitFactor× the typical
					// gap, the lull is real.
					wait, reason = exp, "idle"
				}
			}
		}
		c.windowTimer.Reset(wait)
		select {
		case p := <-c.queue:
			disarm(false)
			p.deq = time.Now()
			batch = append(batch, p)
		case <-c.windowTimer.C:
			disarm(true)
			c.windowClose[reason].Inc()
			return batch
		case <-c.stop:
			disarm(false)
			c.windowClose["stop"].Inc()
			return batch
		}
	}
	c.windowClose["full"].Inc()
	return batch
}

// drainClosed fails everything still queued after Close.
func (c *Core) drainClosed() {
	for {
		select {
		case p := <-c.queue:
			p.done <- outcome{err: ErrClosed}
		default:
			return
		}
	}
}

// serveBatch runs one batch through plan → execute → commit → respond.
// Plans run concurrently (snapshot reads only); execution is one packed
// bipartite forward; the commit applies every cache admission/eviction
// serially at the batch boundary, before responses go out, so a caller that
// has its response also sees its caches admitted.
func (c *Core) serveBatch(batch []*pending) {
	if h := c.cfg.BatchHook; h != nil {
		h(len(batch))
	}
	tBatch := time.Now() // the window closes here; the plan phase begins
	n := len(batch)
	c.mu.Lock()
	c.batches++
	c.batchedRequests += int64(n)
	if int64(n) > c.maxBatch {
		c.maxBatch = int64(n)
	}
	c.mu.Unlock()

	plans := make([]*Plan, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, p := range batch {
		if err := p.ctx.Err(); err != nil {
			errs[i] = err
			continue
		}
		wg.Add(1)
		go func(i int, p *pending) {
			defer wg.Done()
			ctx := p.ctx
			if p.prefetch != nil {
				ctx = context.WithValue(ctx, prefetchKey{}, p.prefetch)
			}
			plans[i], errs[i] = c.backend.Plan(ctx, p.req)
		}(i, p)
	}
	wg.Wait()
	tPlanDone := time.Now()

	// Every request that reaches execution joins one packed forward, so the
	// batch shares one [tPlanDone, tExecDone) execute window; a request that
	// failed before it records no execute or commit span.
	resps := make([]*RankResponse, n)
	executed := make([]bool, n)
	items := make([]bipartite.BatchItem, 0, n)
	cancels := make([]func() error, 0, n)
	idx := make([]int, 0, n)
	for i, p := range batch {
		if errs[i] != nil {
			continue
		}
		layout, err := c.layout(evalReq(p.req), plans[i].Kind)
		if err != nil {
			errs[i] = err
			continue
		}
		items = append(items, bipartite.BatchItem{Layout: layout, Caches: plans[i].Caches})
		cancels = append(cancels, p.ctx.Err)
		idx = append(idx, i)
		executed[i] = true
	}
	runs, rerrs := bipartite.ExecuteBatchCancelable(c.cfg.Ranker.W, items, cancels)
	var entries []CommitEntry
	for j, i := range idx {
		p := batch[i]
		var ranked []int
		if errs[i] = rerrs[j]; errs[i] == nil {
			ranked, errs[i] = c.cfg.Ranker.Score(evalReq(p.req), runs[j])
		}
		if errs[i] != nil {
			continue
		}
		resps[i] = c.fullResponse(p.req, plans[i].Kind, runs[j], ranked)
		entries = append(entries, CommitEntry{Ctx: p.ctx, Req: p.req, Plan: plans[i], Run: runs[j]})
	}
	tExecDone := time.Now()
	if len(entries) > 0 {
		c.backend.Commit(entries)
	}
	tCommitDone := time.Now()
	for i, p := range batch {
		result := "ok"
		if errs[i] != nil {
			result = "error"
			if p.ctx.Err() != nil {
				c.mu.Lock()
				c.deadlineAborts++
				c.mu.Unlock()
				errs[i] = fmt.Errorf("serving: request canceled: %w", p.ctx.Err())
				result = "canceled"
			}
		}
		c.recordTrace(p, tBatch, tPlanDone, tExecDone, tCommitDone, executed[i], n, result)
		p.done <- outcome{resp: resps[i], err: errs[i]}
	}
}

// recordTrace closes out one request's lifecycle spans (queue residency,
// batch-window residency, plan phase, and — for an executed request — the
// execute window and commit), folds them into the per-stage histograms, and
// publishes the trace to the ring.
func (c *Core) recordTrace(p *pending, tBatch, tPlanDone, tExecDone, tCommitDone time.Time, executed bool, batchSize int, result string) {
	tb := p.tb
	if tb == nil {
		return
	}
	end := time.Now()
	if !p.deq.IsZero() {
		tb.AddSpan(StageQueue, p.enq, p.deq.Sub(p.enq), nil)
		tb.AddSpan(StageWindow, p.deq, tBatch.Sub(p.deq), nil)
	}
	tb.AddSpan(StagePlan, tBatch, tPlanDone.Sub(tBatch), nil)
	if executed {
		tb.AddSpan(StageExecute, tPlanDone, tExecDone.Sub(tPlanDone), nil)
		tb.AddSpan(StageCommit, tExecDone, tCommitDone.Sub(tExecDone), nil)
	}
	tr := tb.finish(end, result, batchSize)
	for _, s := range tr.Spans {
		if s.Stage == StageFetch {
			continue // observed at the fetch site; folding here would double-count
		}
		c.obs.observeStage(s.Stage, time.Duration(s.DurMs*float64(time.Millisecond)))
	}
	c.obs.e2e.Add(end.Sub(tr.Start).Seconds())
	c.obs.ring.Add(tr)
}

// layout builds one request's layout: §4.2's multi-discriminant form under
// Config.MultiDisc, else the single-discriminant one.
func (c *Core) layout(req ranking.EvalRequest, kind bipartite.PrefixKind) (*bipartite.Layout, error) {
	if c.cfg.MultiDisc {
		return c.cfg.Ranker.BuildMultiLayout(req, kind)
	}
	return c.cfg.Ranker.BuildLayout(req, kind, false)
}

func evalReq(req RankRequest) ranking.EvalRequest {
	return ranking.EvalRequest{User: req.UserID, Candidates: req.CandidateIDs}
}

// fullResponse folds one served request into the counters and builds its
// top-K reply.
func (c *Core) fullResponse(req RankRequest, kind bipartite.PrefixKind, run *bipartite.Run, ranked []int) *RankResponse {
	c.mu.Lock()
	c.requests++
	if kind == bipartite.UserPrefix {
		c.userPrefix++
	} else {
		c.itemPrefix++
	}
	c.reusedTokens += int64(run.ReusedTokens)
	c.computedTokens += int64(run.ComputedTokens)
	c.dedupedTokens += int64(run.DedupedTokens)
	c.mu.Unlock()
	k := c.cfg.TopK
	if k > len(ranked) {
		k = len(ranked)
	}
	top := make([]int, k)
	for i := 0; i < k; i++ {
		top[i] = req.CandidateIDs[ranked[i]]
	}
	return &RankResponse{
		Ranking:        top,
		Prefix:         kind.String(),
		ReusedTokens:   run.ReusedTokens,
		ComputedTokens: run.ComputedTokens,
	}
}

// Rank serves one request without a deadline.
func (c *Core) Rank(req RankRequest) (*RankResponse, error) {
	return c.RankCtx(context.Background(), req)
}

// RankCtx validates the request and runs it through the batch loop. The
// context is polled at batch phase boundaries, so an abandoned request stops
// burning compute at the next boundary instead of running to completion.
func (c *Core) RankCtx(ctx context.Context, req RankRequest) (*RankResponse, error) {
	if err := Validate(c.cfg.Dataset, req); err != nil {
		return nil, err
	}
	now := time.Now()
	// The trace starts at the admission front door when HandleRank measured
	// it, so the admit span is part of the recorded lifecycle; direct RankCtx
	// callers start at enqueue.
	start := now
	info, admitted := ctx.Value(admitKey{}).(admitInfo)
	if admitted {
		start = info.start
	}
	tb := newTraceBuilder(start, req)
	if admitted {
		tb.AddSpan(StageAdmit, info.start, info.waited, nil)
	}
	p := &pending{ctx: withTrace(ctx, tb), req: req, tb: tb, enq: now, done: make(chan outcome, 1)}
	if pf, ok := c.backend.(Prefetcher); ok {
		// Start the backend's cache fetches now, so network transfer hides
		// under queue/window residency and the previous batch's compute.
		p.prefetch = pf.Prefetch(p.ctx, req)
	}
	c.noteArrival(now)
	select {
	case c.queue <- p:
	case <-ctx.Done():
		return nil, fmt.Errorf("serving: request canceled: %w", ctx.Err())
	case <-c.stop:
		return nil, ErrClosed
	}
	c.inflight.Add(1)
	defer c.inflight.Add(-1)
	select {
	case out := <-p.done:
		return out.resp, out.err
	case <-c.stop:
		return nil, ErrClosed
	}
}

// RankDegraded serves the overload fallback: cap the candidate set and score
// by retrieval similarity — no transformer forward, no cache mutation, no
// trip through the batch loop.
func (c *Core) RankDegraded(req RankRequest, reason string) (*RankResponse, error) {
	if err := Validate(c.cfg.Dataset, req); err != nil {
		return nil, err
	}
	cands := req.CandidateIDs
	if len(cands) > c.cfg.DegradedMaxCandidates {
		cands = cands[:c.cfg.DegradedMaxCandidates]
	}
	scores := c.cfg.Retriever.ScoreCandidates(req.UserID, cands)
	order := tensor.TopK(scores, len(scores))
	k := c.cfg.TopK
	if k > len(order) {
		k = len(order)
	}
	top := make([]int, k)
	for i := 0; i < k; i++ {
		top[i] = cands[order[i]]
	}
	c.mu.Lock()
	c.requests++
	c.degraded++
	c.mu.Unlock()
	return &RankResponse{
		Ranking:       top,
		Prefix:        "degraded-retrieval",
		Degraded:      true,
		DegradeReason: reason,
	}, nil
}

// HandleRank is the shared POST /v1/rank handler: decode, validate, then the
// overload ladder — admit (bounded in-flight + wait queue), degrade
// (retrieval fallback under queue pressure or a backend-specific rung), or
// shed (429 + Retry-After). Admitted full serves go through the batch loop
// with the request context carrying the Deadline-Ms budget.
func (c *Core) HandleRank(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req RankRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), c.adm.Deadline(r))
	defer cancel()
	admitStart := time.Now()
	grant, err := c.adm.Acquire(ctx)
	if err != nil {
		reason := admission.ReasonQueueFull
		if errors.Is(err, admission.ErrDeadline) {
			reason = admission.ReasonDeadline
		}
		c.obs.reg.Counter(`bat_shed_total{reason="` + reason + `"}`).Inc()
		c.adm.Shed(w, reason)
		return
	}
	defer grant.Release()
	ctx = withAdmitInfo(ctx, admitStart, time.Since(admitStart))

	mode, reason := ModeFull, ""
	if c.adm.ShouldDegrade(grant.QueuedBehind) {
		mode, reason = ModeDegraded, "queue-pressure"
	} else if c.cfg.Ladder != nil {
		mode, reason = c.cfg.Ladder(ctx, req)
	}
	var resp *RankResponse
	switch mode {
	case ModeShed:
		c.adm.Shed(w, reason)
		return
	case ModeDegraded:
		resp, err = c.RankDegraded(req, reason)
	default:
		resp, err = c.RankCtx(ctx, req)
	}
	if err != nil {
		if errors.Is(err, ErrValidation) {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if ctx.Err() != nil {
			// The deadline expired mid-serve; tell the client to back off
			// rather than reporting a server fault.
			c.adm.Shed(w, admission.ReasonDeadline)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	WriteJSON(w, resp)
}

// WriteJSON writes a JSON reply (shared by both planes' handlers).
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Stats is the core's lifecycle counter snapshot.
type Stats struct {
	Requests       int64 `json:"requests"`
	UserPrefix     int64 `json:"user_prefix_requests"`
	ItemPrefix     int64 `json:"item_prefix_requests"`
	ReusedTokens   int64 `json:"reused_tokens"`
	ComputedTokens int64 `json:"computed_tokens"`
	// DedupedTokens counts prefix tokens whose forward was shared from an
	// identical in-batch miss instead of recomputed per request.
	DedupedTokens int64 `json:"deduped_tokens"`
	// DegradedRequests counts retrieval-fallback responses; DeadlineAborts
	// counts serves canceled mid-batch by an expired deadline or
	// disconnected client.
	DegradedRequests int64 `json:"degraded_requests"`
	DeadlineAborts   int64 `json:"deadline_aborts"`
	// Batches counts packed executions; BatchedRequests the requests they
	// carried (BatchedRequests/Batches is the mean batch size);
	// MaxBatchSize the largest batch formed.
	Batches         int64 `json:"batches"`
	BatchedRequests int64 `json:"batched_requests"`
	MaxBatchSize    int64 `json:"max_batch_size"`
	// Admission is the overload ladder's front door.
	Admission admission.Stats `json:"admission"`
}

// WriteMetrics renders the core's observability state in Prometheus
// plain-text exposition format: the registry (per-stage latency histograms,
// shed counters, any plane-registered metrics) followed by the lifecycle
// counter snapshot. Planes compose it with their own lines.
func (c *Core) WriteMetrics(w io.Writer) {
	c.obs.reg.WriteText(w)
	st := c.Stats()
	fmt.Fprintf(w, "bat_requests_total %d\n", st.Requests)
	fmt.Fprintf(w, "bat_user_prefix_requests_total %d\n", st.UserPrefix)
	fmt.Fprintf(w, "bat_item_prefix_requests_total %d\n", st.ItemPrefix)
	fmt.Fprintf(w, "bat_reused_tokens_total %d\n", st.ReusedTokens)
	fmt.Fprintf(w, "bat_computed_tokens_total %d\n", st.ComputedTokens)
	fmt.Fprintf(w, "bat_deduped_tokens_total %d\n", st.DedupedTokens)
	fmt.Fprintf(w, "bat_degraded_requests_total %d\n", st.DegradedRequests)
	fmt.Fprintf(w, "bat_deadline_aborts_total %d\n", st.DeadlineAborts)
	fmt.Fprintf(w, "bat_batches_total %d\n", st.Batches)
	fmt.Fprintf(w, "bat_batched_requests_total %d\n", st.BatchedRequests)
	fmt.Fprintf(w, "bat_max_batch_size %d\n", st.MaxBatchSize)
	fmt.Fprintf(w, "bat_admission_in_flight %d\n", st.Admission.InFlight)
	fmt.Fprintf(w, "bat_admission_queue_depth %d\n", st.Admission.QueueDepth)
	fmt.Fprintf(w, "bat_admission_admitted_total %d\n", st.Admission.Admitted)
	fmt.Fprintf(w, "bat_admission_queued_total %d\n", st.Admission.Queued)
	fmt.Fprintf(w, "bat_admission_shed_queue_full_total %d\n", st.Admission.ShedQueueFull)
	fmt.Fprintf(w, "bat_admission_shed_deadline_total %d\n", st.Admission.ShedDeadline)
}

// HandleMetrics serves GET /metrics (plain text, Prometheus exposition).
func (c *Core) HandleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	c.WriteMetrics(w)
}

// TraceResponse is the GET /debug/trace payload: the last-N request traces,
// newest first.
type TraceResponse struct {
	Traces []Trace `json:"traces"`
}

// HandleTraces serves GET /debug/trace. `?n=` caps the returned traces
// (default: everything retained by the ring).
func (c *Core) HandleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	max := 0
	if s := r.URL.Query().Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			http.Error(w, "n must be a positive integer", http.StatusBadRequest)
			return
		}
		max = v
	}
	WriteJSON(w, TraceResponse{Traces: c.obs.ring.Snapshot(max)})
}

// Stats snapshots the core.
func (c *Core) Stats() Stats {
	c.mu.Lock()
	st := Stats{
		Requests: c.requests, UserPrefix: c.userPrefix, ItemPrefix: c.itemPrefix,
		ReusedTokens: c.reusedTokens, ComputedTokens: c.computedTokens,
		DedupedTokens:    c.dedupedTokens,
		DegradedRequests: c.degraded, DeadlineAborts: c.deadlineAborts,
		Batches: c.batches, BatchedRequests: c.batchedRequests, MaxBatchSize: c.maxBatch,
	}
	c.mu.Unlock()
	st.Admission = c.adm.Stats()
	return st
}

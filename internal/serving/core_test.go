package serving

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bat/internal/admission"
	"bat/internal/bipartite"
	"bat/internal/ranking"
)

// stubBackend serves every request cold: no caches, no commit-side state.
// Core tests that exercise only the lifecycle machinery (windows, queueing,
// shedding) don't need a real cache pool behind Plan.
type stubBackend struct{}

func (stubBackend) Plan(ctx context.Context, req RankRequest) (*Plan, error) {
	return &Plan{Kind: bipartite.UserPrefix}, nil
}

func (stubBackend) Commit(entries []CommitEntry) {}

// failPlanBackend is the stub backend with one user whose Plan fails.
type failPlanBackend struct {
	stubBackend
	user int
}

func (b failPlanBackend) Plan(ctx context.Context, req RankRequest) (*Plan, error) {
	if req.UserID == b.user {
		return nil, errors.New("plan failed")
	}
	return b.stubBackend.Plan(ctx, req)
}

// newTestCore wires a small dataset/ranker/retriever under the given
// lifecycle config and starts a core over the stub backend.
func newTestCore(t *testing.T, cfg Config) *Core {
	t.Helper()
	return newTestCoreOver(t, cfg, stubBackend{})
}

// newTestCoreOver is newTestCore over the given backend.
func newTestCoreOver(t *testing.T, cfg Config, backend Backend) *Core {
	t.Helper()
	ds, err := ranking.NewDataset(ranking.DatasetConfig{
		Name: "coretest", Items: 40, Users: 12, Clusters: 4, LatentDim: 8,
		HistoryMin: 4, HistoryMax: 8, ItemAttrTokens: 1,
		ClusterNoise: 0.15, Candidates: 6, HardNegatives: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := ranking.NewRanker(ds, ranking.VariantBase)
	if err != nil {
		t.Fatal(err)
	}
	retr, err := ranking.NewRetriever(ds, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dataset, cfg.Ranker, cfg.Retriever = ds, r, retr
	c, err := NewCore(cfg, backend)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func testReq(u int) RankRequest {
	return RankRequest{UserID: u, CandidateIDs: []int{1, 5, 9, 13, 17, 21}}
}

// TestFixedWindowTimerNotStale is the regression test for the batcher's
// reused window timer: a window that closes early (batch full) must leave the
// timer stopped AND drained. Before the fix, the armed timer from window 1
// kept running, fired mid-window-2, and closed window 2 at window 1's
// deadline — a lone request then got far less than its configured wait.
//
// Shape: window 1 arms the timer (request A waits alone), then B fills the
// batch and closes it early with most of the timer still pending. A lone
// request C opens window 2 inside window 1's original deadline; C must sit
// out its own full BatchWindow, not be cut short by a stale expiry.
func TestFixedWindowTimerNotStale(t *testing.T) {
	const window = 300 * time.Millisecond
	c := newTestCore(t, Config{
		WindowPolicy: WindowFixed,
		BatchWindow:  window,
		MaxBatch:     2,
	})

	var wg sync.WaitGroup
	wg.Add(2)
	start := time.Now()
	for i := 0; i < 2; i++ {
		go func(u int) {
			defer wg.Done()
			if u == 1 {
				// A opens the window alone and arms the timer; B arrives
				// 50ms in and fills the batch, disarming it un-fired.
				time.Sleep(50 * time.Millisecond)
			}
			if _, err := c.Rank(testReq(u)); err != nil {
				t.Errorf("seed request %d: %v", u, err)
			}
		}(i)
	}
	wg.Wait()
	if d := time.Since(start); d >= window {
		t.Fatalf("full batch should close well before the window, took %v", d)
	}

	// C arrives ~150ms after A — inside window 1's original 300ms deadline.
	// A stale timer fires at A+300ms = C+~150ms; the real close is C+300ms.
	time.Sleep(100 * time.Millisecond)
	lone := time.Now()
	if _, err := c.Rank(testReq(2)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(lone); d < window-50*time.Millisecond {
		t.Fatalf("lone fixed-window request served after %v; a stale timer fire from the previous window closed it early (want ~%v)", d, window)
	}
}

// TestAdaptiveWindowClosesOnDrain: under the adaptive policy a lone request
// during a lull must NOT sit out the full BatchWindow — once the arrival-gap
// EWMA is warm, the batcher closes as soon as the next arrival is overdue.
func TestAdaptiveWindowClosesOnDrain(t *testing.T) {
	const window = 500 * time.Millisecond
	c := newTestCore(t, Config{
		WindowPolicy: WindowAdaptive,
		BatchWindow:  window,
		MaxBatch:     8,
	})

	// Seed the EWMA (and the execute-stage histogram) with two concurrent
	// bursts: near-zero inter-arrival gaps, batches close full/fast.
	for burst := 0; burst < 2; burst++ {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(u int) {
				defer wg.Done()
				if _, err := c.Rank(testReq(u)); err != nil {
					t.Errorf("seed: %v", err)
				}
			}(i % 8)
		}
		wg.Wait()
	}

	start := time.Now()
	if _, err := c.Rank(testReq(3)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= window/2 {
		t.Fatalf("lone adaptive request took %v; the window should close on drain, not wait out the full %v", d, window)
	}
}

// TestQueueCapCoversAdmission: the intake queue is derived from the admission
// config — everything admission can let through at once must fit, or admitted
// requests would block silently in the channel send instead of being shed at
// the front door. Small admission configs keep the 4×MaxBatch batching floor.
func TestQueueCapCoversAdmission(t *testing.T) {
	big := newTestCore(t, Config{
		MaxBatch:  2,
		Admission: admission.Config{MaxInFlight: 32, MaxQueue: 64},
	})
	if got := cap(big.queue); got < 96 {
		t.Fatalf("queue cap %d does not cover admission depth 96 (MaxInFlight+MaxQueue)", got)
	}
	small := newTestCore(t, Config{
		MaxBatch:  8,
		Admission: admission.Config{MaxInFlight: 2, MaxQueue: 2},
	})
	if got := cap(small.queue); got != 32 {
		t.Fatalf("queue cap %d, want 4×MaxBatch = 32 floor for small admission configs", got)
	}
}

// TestShedAtSaturation: with the batcher stalled mid-batch, a flood beyond
// the admission depth must shed 429 at the front door promptly — requests
// over capacity never block in the intake queue.
func TestShedAtSaturation(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	c := newTestCore(t, Config{
		MaxBatch:  1,
		Admission: admission.Config{MaxInFlight: 2, MaxQueue: 2, DefaultDeadline: 10 * time.Second},
		BatchHook: func(size int) {
			// Stall only the first batch; later batches run normally so the
			// admitted requests can drain once the flood is counted.
			<-gate
		},
	})

	const flood = 12
	const depth = 4 // MaxInFlight + MaxQueue
	codes := make(chan int, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			body, _ := json.Marshal(testReq(u % 8))
			req := httptest.NewRequest(http.MethodPost, "/v1/rank", strings.NewReader(string(body)))
			rec := httptest.NewRecorder()
			c.HandleRank(rec, req)
			codes <- rec.Code
		}(i)
	}

	// The over-capacity portion must come back 429 while the batcher is still
	// stalled — that is the non-blocking-shed property under test.
	deadline := time.After(5 * time.Second)
	shed := 0
	for shed < flood-depth {
		select {
		case code := <-codes:
			if code != http.StatusTooManyRequests {
				t.Fatalf("got status %d while saturated; only 429 sheds should complete", code)
			}
			shed++
		case <-deadline:
			t.Fatalf("only %d of %d expected sheds completed while the batcher was stalled — over-capacity requests are blocking instead of shedding", shed, flood-depth)
		}
	}
	gateOnce.Do(func() { close(gate) })
	wg.Wait()
	close(codes)
	ok := 0
	for code := range codes {
		if code == http.StatusOK {
			ok++
		}
	}
	if ok != depth {
		t.Fatalf("%d requests served after release, want the full admission depth %d", ok, depth)
	}
	if st := c.Stats(); st.Admission.ShedQueueFull < int64(flood-depth) {
		t.Fatalf("admission counted %d queue-full sheds, want >= %d", st.Admission.ShedQueueFull, flood-depth)
	}
}

// TestCoreDedupIdenticalColdUsers: a batch of requests for the SAME cold user
// recomputes that user's prefix once; the rest of the batch shares it and the
// core accounts the saved tokens. Responses stay identical across the batch.
func TestCoreDedupIdenticalColdUsers(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	sized := make(chan int, 16)
	c := newTestCore(t, Config{
		MaxBatch:     4,
		WindowPolicy: WindowFixed,
		BatchWindow:  200 * time.Millisecond,
		BatchHook: func(size int) {
			sized <- size
			once.Do(func() { <-release })
		},
	})

	// Stall the loop on a throwaway request so the four identical ones are
	// all queued before any batch forms.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := c.Rank(testReq(7)); err != nil {
			t.Errorf("stall request: %v", err)
		}
	}()
	<-sized // the stall batch is in the hook

	const n = 4
	resps := make([]*RankResponse, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := c.Rank(testReq(3)) // same user, same candidates
			if err != nil {
				t.Errorf("dedup request %d: %v", i, err)
				return
			}
			resps[i] = resp
		}(i)
	}
	// Wait until all four sit in the queue, then release the stall.
	for deadline := time.Now().Add(5 * time.Second); len(c.queue) < n; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d identical requests queued", len(c.queue), n)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if size := <-sized; size != n {
		t.Fatalf("identical requests formed a batch of %d, want %d", size, n)
	}
	for i := 1; i < n; i++ {
		if resps[i].ComputedTokens != resps[0].ComputedTokens ||
			len(resps[i].Ranking) != len(resps[0].Ranking) {
			t.Fatalf("response %d differs from response 0: %+v vs %+v", i, resps[i], resps[0])
		}
		for j := range resps[0].Ranking {
			if resps[i].Ranking[j] != resps[0].Ranking[j] {
				t.Fatalf("response %d ranking differs at %d", i, j)
			}
		}
	}
	st := c.Stats()
	if st.DedupedTokens == 0 {
		t.Fatal("identical in-batch misses recorded zero deduped tokens; the batch-level miss planner is not collapsing them")
	}
	if st.MaxBatchSize < int64(n) {
		t.Fatalf("max batch size %d, want >= %d", st.MaxBatchSize, n)
	}
}

// TestPlanErrorTraceHasNoExecuteSpan guards the trace contract of the one
// execute window: a request whose Plan fails inside a batch never reaches
// the packed forward, so its trace records no execute or commit span, while
// the batch's other requests all record the same execute window.
func TestPlanErrorTraceHasNoExecuteSpan(t *testing.T) {
	const n, failing = 4, 2
	c := newTestCoreOver(t, Config{
		MaxBatch:     n,
		WindowPolicy: WindowFixed,
		BatchWindow:  time.Second, // the fourth arrival closes it
	}, failPlanBackend{user: failing})

	start := make(chan struct{})
	var wg sync.WaitGroup
	for u := 0; u < n; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			<-start
			if _, err := c.Rank(testReq(u)); (err != nil) != (u == failing) {
				t.Errorf("user %d: err = %v", u, err)
			}
		}(u)
	}
	close(start)
	wg.Wait()

	traces := c.Observer().Ring().Snapshot(0)
	if len(traces) != n {
		t.Fatalf("%d traces, want %d", len(traces), n)
	}
	var exec *Span
	for _, tr := range traces {
		if tr.BatchSize != n {
			t.Fatalf("user %d rode a batch of %d, want %d", tr.UserID, tr.BatchSize, n)
		}
		spans := map[string]Span{}
		for _, sp := range tr.Spans {
			spans[sp.Stage] = sp
		}
		_, hasExec := spans[StageExecute]
		_, hasCommit := spans[StageCommit]
		if tr.UserID == failing {
			if tr.Outcome != "error" || hasExec || hasCommit {
				t.Fatalf("failed plan: outcome %q, execute span %v, commit span %v; want error and neither", tr.Outcome, hasExec, hasCommit)
			}
			continue
		}
		if tr.Outcome != "ok" || !hasExec || !hasCommit {
			t.Fatalf("user %d: outcome %q, execute span %v, commit span %v; want ok and both", tr.UserID, tr.Outcome, hasExec, hasCommit)
		}
		if sp := spans[StageExecute]; exec == nil {
			exec = &sp
		} else if sp.DurMs != exec.DurMs {
			t.Fatalf("user %d executed for %vms, another for %vms: not one packed forward", tr.UserID, sp.DurMs, exec.DurMs)
		}
	}
}

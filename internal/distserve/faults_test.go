package distserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"bat/internal/ranking"
	"bat/internal/scheduler"
)

// faultDeployment is a cluster whose cache workers sit behind fault
// injection proxies: meta + N (proxy → worker) pairs + frontend.
type faultDeployment struct {
	meta     *MetaServer
	metaSrv  *httptest.Server
	workers  []*CacheWorker
	proxies  []*FaultProxy
	frontend *Frontend
}

func newFaultDeployment(t *testing.T, workers int, policy scheduler.Policy, tcfg TransferConfig) *faultDeployment {
	t.Helper()
	d := &faultDeployment{meta: NewMetaServer(300, func() time.Time { return time.Unix(0, 0) })}
	d.metaSrv = httptest.NewServer(d.meta.Handler())
	t.Cleanup(d.metaSrv.Close)
	var urls []string
	for i := 0; i < workers; i++ {
		cw, err := NewCacheWorker(8 << 20)
		if err != nil {
			t.Fatal(err)
		}
		d.workers = append(d.workers, cw)
		backend := httptest.NewServer(cw.Handler())
		t.Cleanup(backend.Close)
		proxy := NewFaultProxy(backend.URL)
		d.proxies = append(d.proxies, proxy)
		front := httptest.NewServer(proxy.Handler())
		t.Cleanup(front.Close)
		t.Cleanup(proxy.Release) // unblock hung handlers before Close waits
		urls = append(urls, front.URL)
	}
	f, err := NewFrontend(FrontendConfig{
		Dataset:      testDataset(t),
		Variant:      ranking.VariantBase,
		MetaURL:      d.metaSrv.URL,
		CacheWorkers: urls,
		Policy:       policy,
		Transfer:     tcfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.frontend = f
	return d
}

func (d *faultDeployment) locate(t *testing.T, kind string, id int) []int {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/locate?kind=%s&id=%d", d.metaSrv.URL, kind, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out LocateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Workers
}

// TestHungWorkerDegradesToRecompute: the acceptance scenario — a worker that
// accepts connections but never replies must cost at most the configured
// timeout ± backoff budget, and the request must come back correct via
// recompute.
func TestHungWorkerDegradesToRecompute(t *testing.T) {
	d := newFaultDeployment(t, 1, scheduler.StaticItem{}, TransferConfig{
		Timeout: 150 * time.Millisecond, MaxRetries: 1,
		BackoffBase: 10 * time.Millisecond, BackoffMax: 20 * time.Millisecond,
		BreakerThreshold: 3, BreakerCooldown: 5 * time.Second,
	})
	cands := []int{2, 4, 6, 8}
	cold, err := d.frontend.Rank(context.Background(), RankRequest{UserID: 3, CandidateIDs: cands})
	if err != nil {
		t.Fatal(err)
	}

	d.proxies[0].SetMode(FaultHang, 0)
	start := time.Now()
	out, err := d.frontend.Rank(context.Background(), RankRequest{UserID: 3, CandidateIDs: cands})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("rank against hung worker errored: %v", err)
	}
	// Budget: ≤2 attempts × 150 ms per fetch (parallel) + backoff + breaker
	// cutoff; generous slack for CI noise, but nowhere near an unbounded hang.
	if elapsed > 2*time.Second {
		t.Fatalf("hung worker stalled the request for %v", elapsed)
	}
	if out.ReusedTokens != 0 {
		t.Fatalf("claimed %d reused tokens from a hung worker", out.ReusedTokens)
	}
	if out.ComputedTokens == 0 {
		t.Fatal("request did not recompute")
	}
	for i := range cold.Ranking {
		if cold.Ranking[i] != out.Ranking[i] {
			t.Fatalf("degraded ranking diverged: %v vs %v", cold.Ranking, out.Ranking)
		}
	}
	st := d.frontend.Stats()
	if st.FetchErrors == 0 {
		t.Fatal("hung fetches not recorded as errors")
	}
}

// TestTimeoutFiresOnSlowWorker: a worker slower than the per-attempt timeout
// is treated as down, not waited on.
func TestTimeoutFiresOnSlowWorker(t *testing.T) {
	d := newFaultDeployment(t, 1, scheduler.StaticItem{}, TransferConfig{
		Timeout: 100 * time.Millisecond, MaxRetries: -1,
		BreakerThreshold: -1,
	})
	d.proxies[0].SetMode(FaultDelay, 2*time.Second)
	start := time.Now()
	out, err := d.frontend.Rank(context.Background(), RankRequest{UserID: 0, CandidateIDs: []int{1, 3, 5}})
	if err != nil {
		t.Fatal(err)
	}
	// 3 parallel fetches (100 ms, concurrent) + 3 serial store attempts
	// (100 ms each) must fit well under the injected 2 s delay.
	if elapsed := time.Since(start); elapsed > 1500*time.Millisecond {
		t.Fatalf("timeout did not bound the slow worker: %v", elapsed)
	}
	if out.ReusedTokens != 0 {
		t.Fatal("reuse claimed through a timed-out worker")
	}
	if d.frontend.Stats().FetchErrors == 0 {
		t.Fatal("timeouts not recorded as fetch errors")
	}
}

// TestCircuitBreakerTripsAndRecovers: consecutive failures open the breaker
// (no more traffic reaches the worker), and after the cooldown a half-open
// probe against the healed worker closes it again.
func TestCircuitBreakerTripsAndRecovers(t *testing.T) {
	d := newFaultDeployment(t, 1, scheduler.StaticItem{}, TransferConfig{
		Timeout: 500 * time.Millisecond, MaxRetries: -1,
		BreakerThreshold: 3, BreakerCooldown: 100 * time.Millisecond,
	})
	d.proxies[0].SetMode(FaultError, 0)
	req := RankRequest{UserID: 0, CandidateIDs: []int{7}}
	workerState := func() string { return d.frontend.Stats().Workers[0].Breaker }
	for i := 0; i < 4 && workerState() != breakerOpen; i++ {
		if _, err := d.frontend.Rank(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	if got := workerState(); got != breakerOpen {
		t.Fatalf("breaker state %q after repeated failures, want open", got)
	}

	// Open breaker: requests are skipped locally, the worker sees nothing.
	before := d.proxies[0].Requests()
	if _, err := d.frontend.Rank(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if after := d.proxies[0].Requests(); after != before {
		t.Fatalf("open breaker still sent %d requests to the worker", after-before)
	}
	if d.frontend.Stats().Workers[0].BreakerSkips == 0 {
		t.Fatal("breaker skips not recorded")
	}

	// Heal the worker, wait out the cooldown: the half-open probe closes it.
	d.proxies[0].SetMode(FaultNone, 0)
	time.Sleep(150 * time.Millisecond)
	if _, err := d.frontend.Rank(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if got := workerState(); got != breakerClosed {
		t.Fatalf("breaker state %q after recovery, want closed", got)
	}
	// And traffic flows again end to end: the next request reuses the cache
	// the post-recovery request stored, once its write-behind store lands.
	if err := d.frontend.FlushStores(context.Background()); err != nil {
		t.Fatal(err)
	}
	out, err := d.frontend.Rank(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if out.ReusedTokens == 0 {
		t.Fatal("no cache reuse after breaker recovery")
	}
}

// TestEvictionLocateCoherence: when a worker no longer holds an entry the
// meta service claims it does, the frontend's 404 handling unregisters the
// stale binding so metaLocate stops lying.
func TestEvictionLocateCoherence(t *testing.T) {
	d := newFaultDeployment(t, 1, scheduler.StaticItem{}, TransferConfig{})
	cands := []int{1, 2, 3}
	if _, err := d.frontend.Rank(context.Background(), RankRequest{UserID: 0, CandidateIDs: cands}); err != nil {
		t.Fatal(err)
	}
	flushFrontend(t, d.frontend)
	if locs := d.locate(t, "item", 1); len(locs) != 1 {
		t.Fatalf("item 1 locations after store: %v", locs)
	}
	// Simulate the pool dropping the entry behind meta's back.
	if !d.workers[0].Delete("item/1") {
		t.Fatal("item 1 not on worker")
	}
	if c := d.frontend.fetchCache(context.Background(), 0, "item", 1); c != nil {
		t.Fatal("fetched a payload the worker no longer holds")
	}
	if locs := d.locate(t, "item", 1); len(locs) != 0 {
		t.Fatalf("stale binding survived the 404: %v", locs)
	}
	if d.frontend.Stats().StaleUnregisters == 0 {
		t.Fatal("stale unregister not counted")
	}
	// A full request re-establishes coherence: the miss recomputes item 1,
	// stores it back, and re-registers the (now truthful) binding.
	if _, err := d.frontend.Rank(context.Background(), RankRequest{UserID: 5, CandidateIDs: cands}); err != nil {
		t.Fatal(err)
	}
	flushFrontend(t, d.frontend)
	if locs := d.locate(t, "item", 1); len(locs) != 1 {
		t.Fatalf("locations after recompute: %v", locs)
	}
	if _, ok := d.workers[0].Get("item/1"); !ok {
		t.Fatal("recomputed payload missing from worker")
	}
}

// TestEvictHookUnregisters: the worker-side half of eviction coherence — an
// LRU eviction propagates to the meta service through the evict hook (the
// wiring cmd/batdist installs).
func TestEvictHookUnregisters(t *testing.T) {
	meta := NewMetaServer(300, func() time.Time { return time.Unix(0, 0) })
	metaSrv := httptest.NewServer(meta.Handler())
	defer metaSrv.Close()

	cw, err := NewCacheWorker(100)
	if err != nil {
		t.Fatal(err)
	}
	cw.SetEvictHook(func(key string) {
		kind, id, err := ParseCacheKey(key)
		if err != nil {
			return
		}
		body, _ := json.Marshal(RegisterRequest{EntryRef: EntryRef{Kind: kind, ID: id}, Worker: 0})
		resp, err := http.Post(metaSrv.URL+"/v1/unregister", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	})

	register := func(id uint64) {
		body, _ := json.Marshal(RegisterRequest{EntryRef: EntryRef{Kind: "item", ID: id}, Worker: 0})
		resp, err := http.Post(metaSrv.URL+"/v1/register", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	register(1)
	if err := cw.Put("item/1", make([]byte, 60)); err != nil {
		t.Fatal(err)
	}
	register(2)
	if err := cw.Put("item/2", make([]byte, 60)); err != nil { // evicts item/1
		t.Fatal(err)
	}

	resp, err := http.Get(metaSrv.URL + "/v1/locate?kind=item&id=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out LocateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Workers) != 0 {
		t.Fatalf("evicted entry still registered: %v", out.Workers)
	}
}

// TestReplicaFailover: the frontend walks the full location list meta
// returns instead of giving up after locs[0].
func TestReplicaFailover(t *testing.T) {
	d := newFaultDeployment(t, 2, scheduler.StaticUser{}, TransferConfig{})
	// Find a user whose cache shards to worker 1, so a stale binding on
	// worker 0 sorts first in meta's location list.
	user := -1
	for u := 0; u < len(d.frontend.cfg.Dataset.UserHistory); u++ {
		if d.frontend.userWorker(u) == 1 {
			user = u
			break
		}
	}
	if user < 0 {
		t.Fatal("no user shards to worker 1")
	}
	if _, err := d.frontend.Rank(context.Background(), RankRequest{UserID: user, CandidateIDs: []int{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	flushFrontend(t, d.frontend)
	// Register a phantom replica on worker 0 (which has no payload).
	body, _ := json.Marshal(RegisterRequest{EntryRef: EntryRef{Kind: "user", ID: uint64(user)}, Worker: 0})
	resp, err := http.Post(d.metaSrv.URL+"/v1/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if locs := d.locate(t, "user", user); len(locs) != 2 || locs[0] != 0 {
		t.Fatalf("locations %v, want [0 1]", locs)
	}

	out, err := d.frontend.Rank(context.Background(), RankRequest{UserID: user, CandidateIDs: []int{4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if out.ReusedTokens != len(d.frontend.cfg.Dataset.UserHistory[user]) {
		t.Fatalf("failover fetch reused %d tokens, want full profile", out.ReusedTokens)
	}
	st := d.frontend.Stats()
	if st.Failovers == 0 {
		t.Fatal("failover not counted")
	}
	// The 404 on worker 0 also cleaned up the phantom binding.
	if locs := d.locate(t, "user", user); len(locs) != 1 || locs[0] != 1 {
		t.Fatalf("locations after failover %v, want [1]", locs)
	}
}

// TestParallelFetchRaceClean: concurrent Rank calls with overlapping
// candidate sets exercise the bounded-concurrency fetch path under -race.
func TestParallelFetchRaceClean(t *testing.T) {
	d := newFaultDeployment(t, 2, scheduler.StaticItem{}, TransferConfig{FetchConcurrency: 4})
	cands := make([]int, 40)
	for i := range cands {
		cands[i] = i
	}
	if _, err := d.frontend.Rank(context.Background(), RankRequest{UserID: 0, CandidateIDs: cands}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if _, err := d.frontend.Rank(context.Background(), RankRequest{UserID: g, CandidateIDs: cands}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if hits := d.workers[0].Stats().Hits + d.workers[1].Stats().Hits; hits == 0 {
		t.Fatal("no cache hits under concurrency")
	}
}

// TestRankErrorStatusCodes: validation errors are the caller's fault (400);
// everything else is the server's (500).
func TestRankErrorStatusCodes(t *testing.T) {
	d := newDeployment(t, 1, nil)
	post := func(body string) int {
		resp, err := http.Post(d.front.URL+"/v1/rank", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"user_id":999999,"candidate_ids":[1]}`); code != http.StatusBadRequest {
		t.Fatalf("unknown user status %d, want 400", code)
	}
	if code := post(`{"user_id":0,"candidate_ids":[]}`); code != http.StatusBadRequest {
		t.Fatalf("empty candidates status %d, want 400", code)
	}
	if code := post(`{"user_id":0,"candidate_ids":[999999]}`); code != http.StatusBadRequest {
		t.Fatalf("unknown item status %d, want 400", code)
	}
}

func TestParseCacheKey(t *testing.T) {
	kind, id, err := ParseCacheKey("user/42")
	if err != nil || kind != "user" || id != 42 {
		t.Fatalf("ParseCacheKey(user/42) = %q %d %v", kind, id, err)
	}
	for _, bad := range []string{"user", "blob/3", "item/x", ""} {
		if _, _, err := ParseCacheKey(bad); err == nil {
			t.Fatalf("ParseCacheKey(%q) accepted", bad)
		}
	}
}

// benchDeployment builds a 1-worker cluster with a fixed per-request network
// delay so the serial-vs-parallel fetch difference dominates.
func benchDeployment(b *testing.B, concurrency int, candidates int) (*Frontend, []int) {
	b.Helper()
	ds, err := ranking.NewDataset(ranking.DatasetConfig{
		Name: "bench", Items: 80, Users: 8, Clusters: 4, LatentDim: 8,
		HistoryMin: 5, HistoryMax: 10, ItemAttrTokens: 1,
		ClusterNoise: 0.15, Candidates: 10, HardNegatives: 2, Seed: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	meta := NewMetaServer(300, func() time.Time { return time.Unix(0, 0) })
	metaSrv := httptest.NewServer(meta.Handler())
	b.Cleanup(metaSrv.Close)
	cw, err := NewCacheWorker(64 << 20)
	if err != nil {
		b.Fatal(err)
	}
	backend := httptest.NewServer(cw.Handler())
	b.Cleanup(backend.Close)
	proxy := NewFaultProxy(backend.URL)
	proxy.SetMode(FaultDelay, 2*time.Millisecond)
	front := httptest.NewServer(proxy.Handler())
	b.Cleanup(front.Close)
	f, err := NewFrontend(FrontendConfig{
		Dataset: ds, Variant: ranking.VariantBase,
		MetaURL: metaSrv.URL, CacheWorkers: []string{front.URL},
		Policy:   scheduler.StaticItem{},
		Transfer: TransferConfig{FetchConcurrency: concurrency},
	})
	if err != nil {
		b.Fatal(err)
	}
	cands := make([]int, candidates)
	for i := range cands {
		cands[i] = i
	}
	// Warm the pool so every benchmark iteration is pure fetch + reuse.
	if _, err := f.Rank(context.Background(), RankRequest{UserID: 0, CandidateIDs: cands}); err != nil {
		b.Fatal(err)
	}
	return f, cands
}

func benchmarkItemFetch(b *testing.B, concurrency int) {
	f, cands := benchDeployment(b, concurrency, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := f.Rank(context.Background(), RankRequest{UserID: 1 + i%7, CandidateIDs: cands})
		if err != nil {
			b.Fatal(err)
		}
		if out.ReusedTokens == 0 {
			b.Fatal("benchmark lost cache reuse")
		}
	}
}

// The acceptance benchmark pair: 32-candidate requests against a worker with
// 2 ms simulated network latency, serial vs bounded-parallel item fetch.
func BenchmarkItemFetchSerial(b *testing.B)   { benchmarkItemFetch(b, 1) }
func BenchmarkItemFetchParallel(b *testing.B) { benchmarkItemFetch(b, 16) }

// TestBackoffJitterSeedable: the transfer engine owns its jitter RNG, so two
// engines built with the same JitterSeed replay identical backoff schedules
// (fault tests depend on this), while the jitter still stays inside the
// [0.5d, 1.5d) decorrelation band.
func TestBackoffJitterSeedable(t *testing.T) {
	mk := func(seed int64) *transferClient {
		return newTransferClient(&http.Client{}, TransferConfig{
			BackoffBase: 10 * time.Millisecond,
			BackoffMax:  80 * time.Millisecond,
			JitterSeed:  seed,
		}, 1)
	}
	a, b := mk(42), mk(42)
	for i := 1; i <= 8; i++ {
		da, db := a.backoff(i), b.backoff(i)
		if da != db {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", i, da, db)
		}
		base := 10 * time.Millisecond << uint(i-1)
		if base > 80*time.Millisecond || base <= 0 {
			base = 80 * time.Millisecond
		}
		if da < base/2 || da >= base+base/2 {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v)", i, da, base/2, base+base/2)
		}
	}
	c := mk(7)
	diverged := false
	for i := 1; i <= 8; i++ {
		if a.backoff(i) != c.backoff(i) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical 8-step backoff schedules")
	}
}

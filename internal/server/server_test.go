package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"bat/internal/bipartite"
	"bat/internal/ranking"
	"bat/internal/scheduler"
	"bat/internal/serving"
	"bat/internal/tensor"
)

func testDataset(t *testing.T) *ranking.Dataset {
	t.Helper()
	ds, err := ranking.NewDataset(ranking.DatasetConfig{
		Name: "srv", Items: 80, Users: 30, Clusters: 5, LatentDim: 8,
		HistoryMin: 6, HistoryMax: 14, ItemAttrTokens: 1,
		ClusterNoise: 0.15, Candidates: 12, HardNegatives: 3, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{Dataset: testDataset(t), Variant: ranking.VariantBase}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postRank(t *testing.T, ts *httptest.Server, req RankRequest) (*RankResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/rank", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var out RankResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, resp.StatusCode
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil dataset accepted")
	}
}

func TestHealthz(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, nil).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestRankEndToEnd(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := RankRequest{UserID: 2, CandidateIDs: []int{1, 5, 9, 13, 17, 21, 25, 29, 33, 37, 41, 45}}
	out, code := postRank(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(out.Ranking) != 10 {
		t.Fatalf("ranking length %d", len(out.Ranking))
	}
	seen := map[int]bool{}
	valid := map[int]bool{}
	for _, c := range req.CandidateIDs {
		valid[c] = true
	}
	for _, it := range out.Ranking {
		if !valid[it] || seen[it] {
			t.Fatalf("bad ranking entry %d", it)
		}
		seen[it] = true
	}
	if out.ComputedTokens <= 0 {
		t.Fatal("no compute accounted")
	}
}

func TestRankRejectsBadRequests(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, nil).Handler())
	defer ts.Close()
	if _, code := postRank(t, ts, RankRequest{UserID: 999, CandidateIDs: []int{1}}); code != http.StatusBadRequest {
		t.Fatalf("unknown user: status %d", code)
	}
	if _, code := postRank(t, ts, RankRequest{UserID: 1}); code != http.StatusBadRequest {
		t.Fatalf("empty candidates: status %d", code)
	}
	if _, code := postRank(t, ts, RankRequest{UserID: 1, CandidateIDs: []int{10_000}}); code != http.StatusBadRequest {
		t.Fatalf("unknown item: status %d", code)
	}
	resp, err := http.Post(ts.URL+"/v1/rank", "application/json", bytes.NewReader([]byte("{bad")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", resp.StatusCode)
	}
	getResp, err := http.Get(ts.URL + "/v1/rank")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET rank: status %d", getResp.StatusCode)
	}
}

// TestItemCacheWarmsAcrossUsers: the same candidate set served to two
// different users must reuse item caches on the second request.
func TestItemCacheWarmsAcrossUsers(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Policy = scheduler.StaticItem{}
	})
	cands := []int{2, 6, 10, 14, 18, 22}
	first, err := s.Rank(RankRequest{UserID: 0, CandidateIDs: cands})
	if err != nil {
		t.Fatal(err)
	}
	if first.ReusedTokens != 0 {
		t.Fatalf("cold request reused %d tokens", first.ReusedTokens)
	}
	second, err := s.Rank(RankRequest{UserID: 1, CandidateIDs: cands})
	if err != nil {
		t.Fatal(err)
	}
	if second.ReusedTokens == 0 {
		t.Fatal("second user did not reuse item caches")
	}
	if second.Prefix != "item-as-prefix" {
		t.Fatalf("prefix %q", second.Prefix)
	}
}

// TestUserCacheWarmsAcrossTurns: a returning user's second request reuses
// their profile cache under the UP policy.
func TestUserCacheWarmsAcrossTurns(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Policy = scheduler.StaticUser{}
	})
	cands := []int{1, 3, 5, 7}
	first, err := s.Rank(RankRequest{UserID: 4, CandidateIDs: cands})
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Rank(RankRequest{UserID: 4, CandidateIDs: []int{2, 4, 6, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if second.ReusedTokens != len(s.cfg.Dataset.UserHistory[4]) {
		t.Fatalf("reused %d, want the %d-token profile", second.ReusedTokens, len(s.cfg.Dataset.UserHistory[4]))
	}
	if first.Prefix != "user-as-prefix" || second.Prefix != "user-as-prefix" {
		t.Fatal("UP policy must serve user-as-prefix")
	}
}

// TestRankingStableAcrossCacheStates: the ranked list for identical input
// must be identical cold and warm.
func TestRankingStableAcrossCacheStates(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Policy = scheduler.StaticItem{} })
	req := RankRequest{UserID: 7, CandidateIDs: []int{0, 4, 8, 12, 16, 20, 24, 28}}
	cold, err := s.Rank(req)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.Rank(req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold.Ranking {
		if cold.Ranking[i] != warm.Ranking[i] {
			t.Fatalf("ranking changed with cache state: %v vs %v", cold.Ranking, warm.Ranking)
		}
	}
}

func TestPrecomputeItems(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.PrecomputeItems = true
		c.Policy = scheduler.StaticItem{}
	})
	if s.itemCacheCount() != 80 {
		t.Fatalf("%d precomputed item caches", s.itemCacheCount())
	}
	out, err := s.Rank(RankRequest{UserID: 0, CandidateIDs: []int{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if out.ReusedTokens == 0 {
		t.Fatal("precomputed items not reused on the first request")
	}
}

// TestPrecomputeItemsParallelMatchesSerial pins the pooled startup path:
// item caches built at pool width 4 must serve requests identically to a
// width-1 build.
func TestPrecomputeItemsParallelMatchesSerial(t *testing.T) {
	build := func(width int) *Server {
		tensor.SetParallelism(width)
		return newTestServer(t, func(c *Config) {
			c.PrecomputeItems = true
			c.Policy = scheduler.StaticItem{}
		})
	}
	defer tensor.SetParallelism(0)
	serial := build(1)
	parallel := build(4)
	if serial.itemCacheCount() != parallel.itemCacheCount() {
		t.Fatalf("%d caches serial vs %d parallel", serial.itemCacheCount(), parallel.itemCacheCount())
	}
	req := RankRequest{UserID: 2, CandidateIDs: []int{5, 6, 7, 8, 9}}
	a, err := serial.Rank(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.Rank(req)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a.Ranking) != fmt.Sprint(b.Ranking) || a.ReusedTokens != b.ReusedTokens {
		t.Fatalf("parallel precompute serves differently: %+v vs %+v", a, b)
	}
}

func TestUserCacheEviction(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Policy = scheduler.StaticUser{}
		c.MaxUserCaches = 2
	})
	for u := 0; u < 4; u++ {
		if _, err := s.Rank(RankRequest{UserID: u, CandidateIDs: []int{1, 2}}); err != nil {
			t.Fatal(err)
		}
	}
	if s.userCacheCount() > 2 {
		t.Fatalf("%d user caches, cap 2", s.userCacheCount())
	}
}

func TestStatsEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.Rank(RankRequest{UserID: 0, CandidateIDs: []int{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 1 || st.ComputedTokens == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.UserPrefix+st.ItemPrefix != st.Requests {
		t.Fatal("prefix counts don't sum")
	}
}

// TestHotnessPolicySwitchesPrefix: with a hot, long-history user the
// hotness-aware policy serves user-as-prefix; a cold user with a large
// candidate set goes item-as-prefix.
func TestHotnessPolicySwitchesPrefix(t *testing.T) {
	now := time.Unix(0, 0)
	s := newTestServer(t, func(c *Config) {
		c.Now = func() time.Time { return now }
	})
	ds := s.cfg.Dataset
	// Pick the user with the longest history and a user with a short one.
	longest, shortest := 0, 0
	for u := range ds.UserHistory {
		if len(ds.UserHistory[u]) > len(ds.UserHistory[longest]) {
			longest = u
		}
		if len(ds.UserHistory[u]) < len(ds.UserHistory[shortest]) {
			shortest = u
		}
	}
	smallSet := []int{1, 2}                                    // fewer item tokens than any history
	bigSet := []int{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22} // more than the shortest history
	long, err := s.Rank(RankRequest{UserID: longest, CandidateIDs: smallSet})
	if err != nil {
		t.Fatal(err)
	}
	if long.Prefix != "user-as-prefix" {
		t.Fatalf("hot long user served %s", long.Prefix)
	}
	short, err := s.Rank(RankRequest{UserID: shortest, CandidateIDs: bigSet})
	if err != nil {
		t.Fatal(err)
	}
	if short.Prefix != "item-as-prefix" {
		t.Fatalf("short user with big candidate set served %s", short.Prefix)
	}
}

// TestMultiDiscServing: the per-item-discriminant mode serves valid rankings
// and still reuses item caches across users.
func TestMultiDiscServing(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.MultiDisc = true
		c.Policy = scheduler.StaticItem{}
	})
	cands := []int{3, 7, 11, 15, 19, 23}
	first, err := s.Rank(RankRequest{UserID: 2, CandidateIDs: cands})
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Ranking) != 6 {
		t.Fatalf("ranking length %d", len(first.Ranking))
	}
	second, err := s.Rank(RankRequest{UserID: 9, CandidateIDs: cands})
	if err != nil {
		t.Fatal(err)
	}
	if second.ReusedTokens == 0 {
		t.Fatal("multi-disc serving did not reuse item caches")
	}
}

// TestMultiDiscRequestsSharePackedForward: multi-disc requests pack into the
// batched forward like single-disc ones. Eight cold callers released
// together form one batch, and then:
//   - every request's trace shows the same execute window;
//   - two identical requests recompute their items once;
//   - every ranking and its token accounting equal a cache-less RankMulti.
func TestMultiDiscRequestsSharePackedForward(t *testing.T) {
	const n = 8
	s := newTestServer(t, func(c *Config) {
		c.MultiDisc = true
		c.Policy = scheduler.StaticItem{}
		c.WindowPolicy = serving.WindowFixed
		c.BatchWindow = time.Second // the eighth arrival closes it
		c.MaxBatch = n
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	reqs := make([]RankRequest, n)
	for i := range reqs {
		reqs[i] = RankRequest{UserID: i, CandidateIDs: []int{i, 10 + i, 20 + i, 30 + i, 40 + i, 50 + i}}
	}
	reqs[n-1] = reqs[0]
	start := make(chan struct{})
	resps := make([]*RankResponse, n)
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := s.Rank(reqs[i])
			if err != nil {
				t.Errorf("request %d: %v", i, err)
			}
			resps[i] = resp
		}(i)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	var tr serving.TraceResponse
	getJSON(t, ts.URL+"/debug/trace", &tr)
	if len(tr.Traces) != n {
		t.Fatalf("%d traces, want %d", len(tr.Traces), n)
	}
	var execStart time.Time
	var execMs float64
	for i, trace := range tr.Traces {
		if trace.BatchSize != n {
			t.Fatalf("trace %d rode a batch of %d, want all %d in one", trace.Seq, trace.BatchSize, n)
		}
		var found bool
		for _, sp := range trace.Spans {
			if sp.Stage != serving.StageExecute {
				continue
			}
			found = true
			at := trace.Start.Add(time.Duration(sp.StartMs * float64(time.Millisecond)))
			if i == 0 {
				execStart, execMs = at, sp.DurMs
			} else if d := at.Sub(execStart); d < -time.Microsecond || d > time.Microsecond || sp.DurMs != execMs {
				t.Fatalf("trace %d executes at %v for %vms; trace %d at %v for %vms: not one packed forward",
					trace.Seq, at, sp.DurMs, tr.Traces[0].Seq, execStart, execMs)
			}
		}
		if !found {
			t.Fatalf("trace %d has no execute span", trace.Seq)
		}
	}
	if st := s.Stats(); st.DedupedTokens == 0 {
		t.Fatal("two identical cold multi-disc requests in one batch recomputed their items twice")
	}

	r, err := ranking.NewRanker(testDataset(t), ranking.VariantBase)
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		ranked, run, err := r.RankMulti(ranking.EvalRequest{User: req.UserID, Candidates: req.CandidateIDs},
			bipartite.ItemPrefix, ranking.RankOpts{})
		if err != nil {
			t.Fatal(err)
		}
		got := resps[i]
		if got.Prefix != bipartite.ItemPrefix.String() || got.ComputedTokens != run.ComputedTokens || got.ReusedTokens != run.ReusedTokens {
			t.Fatalf("request %d: %s computed=%d reused=%d, cache-less RankMulti %s %d/%d", i,
				got.Prefix, got.ComputedTokens, got.ReusedTokens, bipartite.ItemPrefix, run.ComputedTokens, run.ReusedTokens)
		}
		if len(got.Ranking) != len(ranked) {
			t.Fatalf("request %d: ranking %v, want %d entries", i, got.Ranking, len(ranked))
		}
		for j, idx := range ranked {
			if got.Ranking[j] != req.CandidateIDs[idx] {
				t.Fatalf("request %d: ranking %v deviates from cache-less RankMulti at %d", i, got.Ranking, j)
			}
		}
	}
}

// TestConcurrentRanking hammers the server from many goroutines; run with
// -race this doubles as the data-race check for the shared cache maps.
func TestConcurrentRanking(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const workers = 8
	const perWorker = 10
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < perWorker; i++ {
				req := RankRequest{
					UserID:       (w*perWorker + i) % 30,
					CandidateIDs: []int{1 + i, 11 + i, 21 + i, 31 + i},
				}
				body, err := json.Marshal(req)
				if err != nil {
					errs <- err
					return
				}
				resp, err := http.Post(ts.URL+"/v1/rank", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	var st StatsResponse
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != workers*perWorker {
		t.Fatalf("served %d requests, want %d", st.Requests, workers*perWorker)
	}
}

// TestServerDedupSameColdUser: concurrent requests for the SAME cold user
// landing in one batch recompute the user prefix once — the batch-level miss
// planner collapses the identical misses into a single forward — and every
// response carries the bit-identical ranking a solo serve produces.
func TestServerDedupSameColdUser(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	s := newTestServer(t, func(c *Config) {
		c.Policy = scheduler.StaticUser{}
		c.WindowPolicy = serving.WindowFixed
		c.BatchWindow = 100 * time.Millisecond
		c.MaxBatch = 4
		c.BatchHook = func(size int) { once.Do(func() { <-gate }) }
	})
	req := RankRequest{UserID: 3, CandidateIDs: []int{2, 6, 10, 14, 18}}

	// Reference: a solo user-prefix serve on an independent ranker over the
	// same deterministic dataset and weights.
	r, err := ranking.NewRanker(testDataset(t), ranking.VariantBase)
	if err != nil {
		t.Fatal(err)
	}
	ranked, _, err := r.Rank(ranking.EvalRequest{User: req.UserID, Candidates: req.CandidateIDs},
		bipartite.UserPrefix, ranking.RankOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, len(ranked))
	for i, idx := range ranked {
		want[i] = req.CandidateIDs[idx]
	}

	// Stall the batcher on a throwaway request so the identical ones queue up
	// together, then release and let them form one batch.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Rank(RankRequest{UserID: 1, CandidateIDs: []int{3, 7}}); err != nil {
			t.Errorf("stall request: %v", err)
		}
	}()
	const n = 4
	resps := make([]*RankResponse, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.Rank(req)
			if err != nil {
				t.Errorf("dedup request %d: %v", i, err)
				return
			}
			resps[i] = resp
		}(i)
	}
	time.Sleep(200 * time.Millisecond) // everything is enqueued behind the stall
	close(gate)
	wg.Wait()

	for i, resp := range resps {
		if resp == nil {
			t.Fatalf("request %d got no response", i)
		}
		if len(resp.Ranking) < len(want) {
			t.Fatalf("request %d ranking has %d entries, want >= %d", i, len(resp.Ranking), len(want))
		}
		for j := range want {
			if resp.Ranking[j] != want[j] {
				t.Fatalf("request %d ranking %v deviates from solo serve %v", i, resp.Ranking, want)
			}
		}
	}
	st := s.Stats()
	if st.DedupedTokens == 0 {
		t.Fatal("identical in-batch cold-user misses recorded zero deduped tokens")
	}
	if st.MaxBatchSize < 2 {
		t.Fatalf("max batch size %d; the identical requests never batched", st.MaxBatchSize)
	}
}

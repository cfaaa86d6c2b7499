package distserve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"bat/internal/ranking"
	"bat/internal/scheduler"
)

func testDataset(t *testing.T) *ranking.Dataset {
	t.Helper()
	ds, err := ranking.NewDataset(ranking.DatasetConfig{
		Name: "dist", Items: 60, Users: 20, Clusters: 4, LatentDim: 8,
		HistoryMin: 5, HistoryMax: 10, ItemAttrTokens: 1,
		ClusterNoise: 0.15, Candidates: 10, HardNegatives: 2, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// deployment spins a full in-process cluster: meta + n cache workers +
// frontend, all over real HTTP.
type deployment struct {
	meta     *MetaServer
	workers  []*CacheWorker
	frontend *Frontend
	servers  []*httptest.Server
	front    *httptest.Server
}

func newDeployment(t *testing.T, workers int, policy scheduler.Policy) *deployment {
	t.Helper()
	return newDeploymentCfg(t, workers, policy, nil)
}

// newDeploymentCfg is newDeployment plus a frontend-config mutator, for
// tests that tune batching or transfer knobs.
func newDeploymentCfg(t *testing.T, workers int, policy scheduler.Policy, mutate func(*FrontendConfig)) *deployment {
	t.Helper()
	d := &deployment{meta: NewMetaServer(300, func() time.Time { return time.Unix(0, 0) })}
	metaSrv := httptest.NewServer(d.meta.Handler())
	d.servers = append(d.servers, metaSrv)
	var urls []string
	for i := 0; i < workers; i++ {
		cw, err := NewCacheWorker(8 << 20)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(cw.Handler())
		d.workers = append(d.workers, cw)
		d.servers = append(d.servers, srv)
		urls = append(urls, srv.URL)
	}
	cfg := FrontendConfig{
		Dataset:      testDataset(t),
		Variant:      ranking.VariantBase,
		MetaURL:      metaSrv.URL,
		CacheWorkers: urls,
		Policy:       policy,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	f, err := NewFrontend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.frontend = f
	d.front = httptest.NewServer(f.Handler())
	d.servers = append(d.servers, d.front)
	t.Cleanup(func() {
		for _, s := range d.servers {
			s.Close()
		}
	})
	return d
}

func (d *deployment) rank(t *testing.T, req RankRequest) *RankResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(d.front.URL+"/v1/rank", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rank status %d", resp.StatusCode)
	}
	var out RankResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	// Stores are write-behind; drain them so the pool deterministically
	// reflects this request's commit before the test asserts on it.
	d.flush(t)
	return &out
}

// flush drains the frontend's write-behind store queue.
func (d *deployment) flush(t *testing.T) {
	t.Helper()
	flushFrontend(t, d.frontend)
}

// flushFrontend drains a frontend's write-behind store queue so a test can
// assert on the pool's post-commit state.
func flushFrontend(t *testing.T, f *Frontend) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.FlushStores(ctx); err != nil {
		t.Fatalf("FlushStores: %v", err)
	}
}

func TestCacheWorkerPutGetEvict(t *testing.T) {
	cw, err := NewCacheWorker(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Put("a", make([]byte, 60)); err != nil {
		t.Fatal(err)
	}
	if err := cw.Put("b", make([]byte, 60)); err != nil {
		t.Fatal(err)
	}
	if _, ok := cw.Get("a"); ok {
		t.Fatal("a should have been evicted")
	}
	if _, ok := cw.Get("b"); !ok {
		t.Fatal("b missing")
	}
	if err := cw.Put("huge", make([]byte, 200)); err == nil {
		t.Fatal("oversized payload accepted")
	}
	st := cw.Stats()
	if st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
	if !cw.Delete("b") || cw.Delete("b") {
		t.Fatal("delete semantics wrong")
	}
}

func TestCacheWorkerHTTP(t *testing.T) {
	cw, err := NewCacheWorker(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(cw.Handler())
	defer srv.Close()

	put := func(key string, body []byte) int {
		req, _ := http.NewRequest(http.MethodPut, srv.URL+"/kv/"+key, bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := put("item/3", []byte("payload")); code != http.StatusNoContent {
		t.Fatalf("put status %d", code)
	}
	resp, err := http.Get(srv.URL + "/kv/item/3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get status %d", resp.StatusCode)
	}
	missResp, err := http.Get(srv.URL + "/kv/item/999")
	if err != nil {
		t.Fatal(err)
	}
	missResp.Body.Close()
	if missResp.StatusCode != http.StatusNotFound {
		t.Fatalf("miss status %d", missResp.StatusCode)
	}
	statsResp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st WorkerStats
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	statsResp.Body.Close()
	if st.Puts != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("worker stats %+v", st)
	}
}

func TestFrontendValidation(t *testing.T) {
	if _, err := NewFrontend(FrontendConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := NewFrontend(FrontendConfig{Dataset: testDataset(t)}); err == nil {
		t.Fatal("missing cluster URLs accepted")
	}
}

// TestDistributedItemCacheReuse: the full loop — frontend computes item
// caches, PUTs them to cache workers, registers with meta, and a second
// request from a different user fetches them back over HTTP.
func TestDistributedItemCacheReuse(t *testing.T) {
	d := newDeployment(t, 3, scheduler.StaticItem{})
	cands := []int{1, 5, 9, 13, 17, 21}
	first := d.rank(t, RankRequest{UserID: 0, CandidateIDs: cands})
	if first.ReusedTokens != 0 {
		t.Fatalf("cold request reused %d", first.ReusedTokens)
	}
	second := d.rank(t, RankRequest{UserID: 7, CandidateIDs: cands})
	if second.ReusedTokens == 0 {
		t.Fatal("second user did not reuse distributed item caches")
	}
	// Payloads actually landed on the workers.
	total := 0
	for _, w := range d.workers {
		total += w.Stats().Entries
	}
	if total != len(cands) {
		t.Fatalf("%d cached payloads across workers, want %d", total, len(cands))
	}
	// And the ranking is identical cold vs warm.
	third := d.rank(t, RankRequest{UserID: 0, CandidateIDs: cands})
	for i := range first.Ranking {
		if first.Ranking[i] != third.Ranking[i] {
			t.Fatalf("ranking changed across cache states: %v vs %v", first.Ranking, third.Ranking)
		}
	}
}

// TestDistributedUserCacheReuse: a returning user's profile cache round-trips
// through the pool.
func TestDistributedUserCacheReuse(t *testing.T) {
	d := newDeployment(t, 2, scheduler.StaticUser{})
	first := d.rank(t, RankRequest{UserID: 3, CandidateIDs: []int{1, 2, 3}})
	if first.Prefix != "user-as-prefix" {
		t.Fatalf("prefix %s", first.Prefix)
	}
	second := d.rank(t, RankRequest{UserID: 3, CandidateIDs: []int{4, 5, 6}})
	if second.ReusedTokens != len(d.frontend.cfg.Dataset.UserHistory[3]) {
		t.Fatalf("reused %d tokens", second.ReusedTokens)
	}
}

// TestFrontendSurvivesDeadCacheWorker: losing a cache worker degrades to
// recomputation, never to request failure.
func TestFrontendSurvivesDeadCacheWorker(t *testing.T) {
	d := newDeployment(t, 2, scheduler.StaticItem{})
	cands := []int{2, 4, 6, 8}
	d.rank(t, RankRequest{UserID: 1, CandidateIDs: cands}) // warm the pool
	// Kill every cache worker.
	for _, s := range d.servers[1 : 1+len(d.workers)] {
		s.Close()
	}
	out := d.rank(t, RankRequest{UserID: 2, CandidateIDs: cands})
	if out.ReusedTokens != 0 {
		t.Fatal("reuse claimed from dead workers")
	}
	if out.ComputedTokens == 0 {
		t.Fatal("request did not recompute")
	}
	if d.frontend.Stats().FetchErrors == 0 {
		t.Fatal("fetch errors not recorded")
	}
}

func TestFrontendStatsEndpoint(t *testing.T) {
	d := newDeployment(t, 2, nil)
	d.rank(t, RankRequest{UserID: 0, CandidateIDs: []int{1, 2, 3, 4}})
	resp, err := http.Get(d.front.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st FrontendStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 1 || st.UserPrefix+st.ItemPrefix != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestMetaServerHTTP(t *testing.T) {
	m := NewMetaServer(300, func() time.Time { return time.Unix(0, 0) })
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	post := func(path string, v interface{}) *http.Response {
		body, _ := json.Marshal(v)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// Access bumps hotness.
	resp := post("/v1/access", EntryRef{Kind: "user", ID: 5})
	var acc AccessResponse
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if acc.Hotness != 1 {
		t.Fatalf("hotness %v", acc.Hotness)
	}
	// Register then locate.
	post("/v1/register", RegisterRequest{EntryRef: EntryRef{Kind: "item", ID: 9}, Worker: 2}).Body.Close()
	locResp, err := http.Get(srv.URL + "/v1/locate?kind=item&id=9")
	if err != nil {
		t.Fatal(err)
	}
	var loc LocateResponse
	if err := json.NewDecoder(locResp.Body).Decode(&loc); err != nil {
		t.Fatal(err)
	}
	locResp.Body.Close()
	if len(loc.Workers) != 1 || loc.Workers[0] != 2 {
		t.Fatalf("locate %+v", loc)
	}
	// Unregister empties it.
	post("/v1/unregister", RegisterRequest{EntryRef: EntryRef{Kind: "item", ID: 9}, Worker: 2}).Body.Close()
	locResp2, err := http.Get(srv.URL + "/v1/locate?kind=item&id=9")
	if err != nil {
		t.Fatal(err)
	}
	var loc2 LocateResponse
	if err := json.NewDecoder(locResp2.Body).Decode(&loc2); err != nil {
		t.Fatal(err)
	}
	locResp2.Body.Close()
	if len(loc2.Workers) != 0 {
		t.Fatalf("still located: %+v", loc2)
	}
	// Bad kind rejected.
	badResp := post("/v1/access", EntryRef{Kind: "bogus", ID: 1})
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad kind status %d", badResp.StatusCode)
	}
}

func TestCacheWorkerValidationAndMethods(t *testing.T) {
	if _, err := NewCacheWorker(0); err == nil {
		t.Fatal("zero capacity accepted")
	}
	cw, err := NewCacheWorker(1024)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(cw.Handler())
	defer srv.Close()

	// Missing key.
	resp, err := http.Get(srv.URL + "/kv/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty key status %d", resp.StatusCode)
	}
	// Unsupported methods: a store is a whole-cache PUT, so PATCH is a 405
	// like POST.
	for _, method := range []string{http.MethodPost, http.MethodPatch} {
		req, _ := http.NewRequest(method, srv.URL+"/kv/x", nil)
		r2, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s status %d", method, r2.StatusCode)
		}
	}
	// Oversized PUT -> 507.
	big, _ := http.NewRequest(http.MethodPut, srv.URL+"/kv/big", bytes.NewReader(make([]byte, 4096)))
	r3, err := http.DefaultClient.Do(big)
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("oversized status %d", r3.StatusCode)
	}
	// DELETE via HTTP.
	if err := cw.Put("x", []byte("v")); err != nil {
		t.Fatal(err)
	}
	del, _ := http.NewRequest(http.MethodDelete, srv.URL+"/kv/x", nil)
	r4, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	r4.Body.Close()
	if r4.StatusCode != http.StatusNoContent || cw.Stats().Entries != 0 {
		t.Fatal("delete failed")
	}
}

func TestMetaServerRejectsBadRequests(t *testing.T) {
	m := NewMetaServer(0, nil) // zero window defaults inside cachemeta
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	// GET on a POST-only endpoint.
	resp, err := http.Get(srv.URL + "/v1/access")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET access status %d", resp.StatusCode)
	}
	// Malformed JSON.
	r2, err := http.Post(srv.URL+"/v1/register", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status %d", r2.StatusCode)
	}
	// Bad id in locate.
	r3, err := http.Get(srv.URL + "/v1/locate?kind=user&id=zebra")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad id status %d", r3.StatusCode)
	}
	// Bad kind in unregister.
	body, _ := json.Marshal(RegisterRequest{EntryRef: EntryRef{Kind: "weird", ID: 1}})
	r4, err := http.Post(srv.URL+"/v1/unregister", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r4.Body.Close()
	if r4.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad kind status %d", r4.StatusCode)
	}
}

func TestFrontendHTTPRejections(t *testing.T) {
	d := newDeployment(t, 1, nil)
	// GET on rank.
	resp, err := http.Get(d.front.URL + "/v1/rank")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET rank status %d", resp.StatusCode)
	}
	// Malformed body.
	r2, err := http.Post(d.front.URL+"/v1/rank", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body status %d", r2.StatusCode)
	}
	// Healthz works.
	r3, err := http.Get(d.front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", r3.StatusCode)
	}
}

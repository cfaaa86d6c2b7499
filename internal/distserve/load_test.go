package distserve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"bat/internal/admission"
	"bat/internal/ranking"
	"bat/internal/routing"
	"bat/internal/scheduler"
	"bat/internal/workload"
)

// TestResidentKeysDoesNotPerturbEvictionOrder pins the Peek discipline of
// the listing endpoint the routing tier polls: GET /v1/keys must not promote
// entries in the LRU or touch the hit/miss counters. The probe is
// deterministic — we arrange a known eviction victim, hammer /v1/keys, then
// force an eviction and check the victim did not change.
func TestResidentKeysDoesNotPerturbEvictionOrder(t *testing.T) {
	cw, err := NewCacheWorker(250)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(cw.Handler())
	defer srv.Close()

	if err := cw.Put("user/1", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := cw.Put("user/2", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	// Promote user/1: the LRU victim is now user/2.
	if _, ok := cw.Get("user/1"); !ok {
		t.Fatal("user/1 missing")
	}
	before := cw.Stats()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL + "/v1/keys?kind=user")
		if err != nil {
			t.Fatal(err)
		}
		var keys ResidentKeys
		if err := json.NewDecoder(resp.Body).Decode(&keys); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(keys.IDs) != 2 {
			t.Fatalf("resident IDs = %v, want two users", keys.IDs)
		}
	}

	after := cw.Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("listing touched counters: hits %d->%d misses %d->%d",
			before.Hits, after.Hits, before.Misses, after.Misses)
	}

	// Force one eviction. If /v1/keys had promoted user/2 (a Get-style walk
	// would), user/1 would be the victim here instead.
	if err := cw.Put("user/3", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, ok := cw.Peek("user/2"); ok {
		t.Fatal("user/2 survived eviction — listing perturbed LRU order")
	}
	if _, ok := cw.Peek("user/1"); !ok {
		t.Fatal("user/1 evicted — listing perturbed LRU order")
	}
}

// TestLoadSnapshotReportsResidencyWithoutTouchingLRU drives the full
// frontend path: GET /v1/load folds worker residency into a bloom summary
// the router's cache-affinity scorer can query, and the poll leaves the
// workers' hit/miss counters untouched (a Get-based collector would bump
// them — the deterministic tell that eviction order was perturbed).
func TestLoadSnapshotReportsResidencyWithoutTouchingLRU(t *testing.T) {
	d := newDeploymentCfg(t, 2, scheduler.StaticUser{}, func(cfg *FrontendConfig) {
		cfg.LoadSummaryTTL = -1 // refresh on every poll
	})

	// Seed user caches on the workers directly, bypassing the serving path.
	if err := d.workers[0].Put("user/1", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if err := d.workers[1].Put("user/2", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	var before [2]WorkerStats
	for i, w := range d.workers {
		before[i] = w.Stats()
	}

	var snap LoadSnapshot
	for i := 0; i < 3; i++ {
		resp, err := http.Get(d.front.URL + "/v1/load")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/v1/load status %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	if snap.ResidentUsers != 2 {
		t.Fatalf("resident_users = %d, want 2", snap.ResidentUsers)
	}
	if snap.MaxInFlight <= 0 {
		t.Fatalf("max_in_flight = %d, want positive capacity", snap.MaxInFlight)
	}
	sum, err := routing.DecodeSummary(snap.Users)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint64{1, 2} {
		if !sum.Contains(routing.EntryHash("user", id)) {
			t.Fatalf("summary missing user %d", id)
		}
	}
	if sum.Contains(routing.EntryHash("user", 424242)) &&
		sum.Contains(routing.EntryHash("user", 424243)) &&
		sum.Contains(routing.EntryHash("user", 424244)) {
		t.Fatal("summary claims residency for arbitrary absent users")
	}

	for i, w := range d.workers {
		after := w.Stats()
		if after.Hits != before[i].Hits || after.Misses != before[i].Misses {
			t.Fatalf("worker %d counters moved under /v1/load: hits %d->%d misses %d->%d",
				i, before[i].Hits, after.Hits, before[i].Misses, after.Misses)
		}
	}
}

// TestLoadSummaryReportsStoresWithinTTL pins the residency contract the
// router's affinity rests on: a /v1/load served after a user's store landed
// reports that user, even inside LoadSummaryTTL. The router replaces its
// optimistic per-request additions with each polled summary, so a summary
// folded before a fast warm-up (the router's start-up poll folds an empty
// one) would erase every placement the warm-up made; users would then spray
// across cells and be cached in both.
func TestLoadSummaryReportsStoresWithinTTL(t *testing.T) {
	cells := []*deployment{
		newDeployment(t, 2, scheduler.StaticUser{}),
		newDeployment(t, 2, scheduler.StaticUser{}),
	}
	r, err := routing.NewRouter(routing.RouterConfig{
		Frontends:    []string{cells[0].front.URL, cells[1].front.URL},
		PollInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	router := httptest.NewServer(r.Handler())
	defer router.Close()

	const users = 12
	rankAll := func() {
		for u := 0; u < users; u++ {
			body, _ := json.Marshal(RankRequest{UserID: u, CandidateIDs: []int{1, 2, 3, 4}})
			resp, err := http.Post(router.URL+"/v1/rank", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			routing.DrainBody(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("user %d: rank status %d", u, resp.StatusCode)
			}
		}
	}
	settle := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, c := range cells {
			if err := c.frontend.FlushStores(ctx); err != nil {
				t.Fatal(err)
			}
		}
		r.PollNow()
	}

	// The whole warm-up runs well inside the default one-second TTL.
	rankAll()
	settle()
	before := r.Stats().Decisions
	rankAll()
	settle()
	after := r.Stats().Decisions
	total, affinity := int64(0), after["cache-affinity"]-before["cache-affinity"]
	for name, n := range after {
		total += n - before[name]
	}
	if total != users || affinity != users {
		t.Fatalf("second pass: %d of %d decisions were affinity routes, want all %d (decisions %v)", affinity, total, users, after)
	}
	for u := 0; u < users; u++ {
		in := 0
		for _, c := range cells {
			for _, w := range c.workers {
				if _, ok := w.Peek("user/" + strconv.Itoa(u)); ok {
					in++
					break
				}
			}
		}
		if in != 1 {
			t.Fatalf("user %d resident in %d cells, want exactly 1", u, in)
		}
	}
}

// TestAffinityRoutingBeatsRoundRobin is the routing tier's hit-rate claim:
// two independent cells (each its own meta, workers and frontend) behind one
// router, and the same seeded Zipf rank stream replayed once with the
// cache-affinity pipeline and once with pure round-robin. Affinity keeps a
// user on the cell that already holds their KV cache, so its aggregate token
// hit rate must be strictly higher than spraying users across cells. The
// client is sequential, stores are synchronous and the router polls only at
// start-up, so both rates are identical run to run.
func TestAffinityRoutingBeatsRoundRobin(t *testing.T) {
	const users, items, requests = 64, 200, 200
	ds, err := ranking.NewDataset(ranking.DatasetConfig{
		Name: "affinity", Items: items, Users: users, Clusters: 4, LatentDim: 8,
		HistoryMin: 16, HistoryMax: 48, ItemAttrTokens: 2,
		ClusterNoise: 0.15, Candidates: 32, HardNegatives: 4, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	hitRate := func(spec string) (float64, map[string]int64) {
		var cells []*deployment
		var fronts []string
		for i := 0; i < 2; i++ {
			c := newDeploymentCfg(t, 2, scheduler.StaticUser{}, func(cfg *FrontendConfig) {
				cfg.Dataset = ds
				// Synchronous stores: a user's cache is resident before the
				// response returns, so the next request can hit it.
				cfg.Transfer.StoreQueueDepth = -1
				cfg.Admission = admission.Config{MaxInFlight: 8}
				cfg.LoadSummaryTTL = -1
			})
			t.Cleanup(c.frontend.Close)
			cells = append(cells, c)
			fronts = append(fronts, c.front.URL)
		}
		scorers, err := routing.ParseScorers(spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := routing.NewRouter(routing.RouterConfig{
			Frontends:    fronts,
			Scorers:      scorers,
			Seed:         11,
			Admission:    admission.Config{MaxInFlight: 8},
			PollInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		router := httptest.NewServer(r.Handler())
		defer router.Close()

		rng := rand.New(rand.NewSource(11))
		zipf := workload.NewZipf(users, 1.2)
		for i := 0; i < requests; i++ {
			req := RankRequest{UserID: zipf.Rank(rng.Float64()) - 1, CandidateIDs: make([]int, 10)}
			for j := range req.CandidateIDs {
				req.CandidateIDs[j] = rng.Intn(items)
			}
			body, _ := json.Marshal(req)
			resp, err := http.Post(router.URL+"/v1/rank", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			routing.DrainBody(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: rank status %d", spec, resp.StatusCode)
			}
		}
		var reused, computed int64
		for _, c := range cells {
			st := c.frontend.Stats()
			reused += st.ReusedTokens
			computed += st.ComputedTokens
		}
		st := r.Stats()
		if st.Failovers != 0 {
			t.Fatalf("%s: %d failovers with healthy cells", spec, st.Failovers)
		}
		return float64(reused) / float64(reused+computed), st.Decisions
	}

	affinity, decisions := hitRate("cache-affinity:2,least-loaded:1,round-robin:0.25")
	roundRobin, _ := hitRate("round-robin")
	t.Logf("token hit rate: affinity %.4f vs round-robin %.4f (affinity decisions %v)",
		affinity, roundRobin, decisions)
	if affinity <= roundRobin {
		t.Fatalf("cache-affinity hit rate %.4f not above round-robin %.4f", affinity, roundRobin)
	}
	if decisions["cache-affinity"] == 0 {
		t.Fatalf("no cache-affinity decisions recorded: %v", decisions)
	}
}

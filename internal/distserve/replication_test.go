package distserve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"bat/internal/model"
	"bat/internal/routing"
	"bat/internal/scheduler"
)

// registerAt binds one entry to a worker directly against the meta server.
func registerAt(t *testing.T, metaURL, kind string, id uint64, worker int) {
	t.Helper()
	body, err := json.Marshal(RegisterRequest{EntryRef: EntryRef{Kind: kind, ID: id}, Worker: worker})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(metaURL+"/v1/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("register status %d", resp.StatusCode)
	}
}

// TestRouteReplicasWalk pins the shared replica walk's contract as the
// frontend consumes it: distinct workers, forward order from the home slot,
// skip-unroutable, home fallback. (Bit-level equivalence with the
// pre-refactor routeReplicas lives in internal/routing's tests.)
func TestRouteReplicasWalk(t *testing.T) {
	all := func(int) bool { return true }
	ring := routing.NewRing(4)
	got := ring.Replicas(8, 2, all) // home = 8 % 4 = 0
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Replicas(8,2,all) = %v, want [0 1]", got)
	}
	skip1 := func(w int) bool { return w != 1 }
	if got := ring.Replicas(9, 2, skip1); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("walk past unroutable worker = %v, want [2 3]", got)
	}
	none := func(int) bool { return false }
	if got := ring.Replicas(9, 2, none); len(got) != 1 || got[0] != 1 {
		t.Fatalf("unroutable pool fallback = %v, want [1]", got)
	}
	if got := routing.NewRing(2).Replicas(0, 5, all); len(got) != 2 {
		t.Fatalf("rf clamp to pool size = %v, want 2 workers", got)
	}
}

// TestReplicatedStoreWritesRFCopies: with Replication 2, one committed rank
// leaves every fresh entry on two distinct workers, both registered in meta.
func TestReplicatedStoreWritesRFCopies(t *testing.T) {
	d := newChaosDeployment(t, 3, scheduler.StaticUser{}, TransferConfig{}, func(cfg *FrontendConfig) {
		cfg.Replication = 2
	})
	user := 3
	if _, err := d.frontend.Rank(context.Background(), RankRequest{UserID: user, CandidateIDs: []int{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	flushFrontend(t, d.frontend)

	reps := d.frontend.userReplicas(user)
	if len(reps) != 2 || reps[0] == reps[1] {
		t.Fatalf("userReplicas = %v, want 2 distinct workers", reps)
	}
	locs := d.locate(t, "user", user)
	want := append([]int(nil), reps...)
	sort.Ints(want)
	if len(locs) != 2 || locs[0] != want[0] || locs[1] != want[1] {
		t.Fatalf("meta locations %v, want %v", locs, want)
	}
	for _, w := range reps {
		if _, ok := d.workers[w].Peek("user/3"); !ok {
			t.Fatalf("worker %d missing its replica of user/3", w)
		}
	}
	st := d.frontend.Stats()
	if st.Replication != 2 {
		t.Fatalf("stats replication %d, want 2", st.Replication)
	}
	if st.ReplicaStores == 0 {
		t.Fatal("no secondary replica stores counted")
	}

	// Item caches replicate the same way (under the item-cache policy).
	di := newChaosDeployment(t, 3, scheduler.StaticItem{}, TransferConfig{}, func(cfg *FrontendConfig) {
		cfg.Replication = 2
	})
	if _, err := di.frontend.Rank(context.Background(), RankRequest{UserID: 0, CandidateIDs: []int{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	flushFrontend(t, di.frontend)
	if locs := di.locate(t, "item", 1); len(locs) != 2 {
		t.Fatalf("item 1 locations %v, want 2 replicas", locs)
	}
}

// TestReadRepairBackfillsMissingReplica: a fetch that fails over past a
// missing replica queues a background copy that restores it.
func TestReadRepairBackfillsMissingReplica(t *testing.T) {
	d := newChaosDeployment(t, 3, scheduler.StaticUser{}, TransferConfig{HedgeQuantile: -1}, func(cfg *FrontendConfig) {
		cfg.Replication = 2
	})
	user := 3
	if _, err := d.frontend.Rank(context.Background(), RankRequest{UserID: user, CandidateIDs: []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	flushFrontend(t, d.frontend)

	// Drop the replica meta lists first; the next fetch must fail over.
	locs := d.locate(t, "user", user)
	if len(locs) != 2 {
		t.Fatalf("locations %v, want 2 replicas", locs)
	}
	if !d.workers[locs[0]].Delete("user/3") {
		t.Fatalf("worker %d did not hold user/3", locs[0])
	}
	out, err := d.frontend.Rank(context.Background(), RankRequest{UserID: user, CandidateIDs: []int{4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if out.ReusedTokens < len(d.frontend.cfg.Dataset.UserHistory[user]) {
		t.Fatalf("reused %d tokens, want the full profile from the surviving replica", out.ReusedTokens)
	}
	flushFrontend(t, d.frontend) // repair rides the store queue
	st := d.frontend.Stats()
	if st.Failovers == 0 {
		t.Fatal("failover not counted")
	}
	if st.ReadRepairs == 0 {
		t.Fatal("read repair not counted")
	}
	reps := d.frontend.userReplicas(user)
	for _, w := range reps {
		if _, ok := d.workers[w].Peek("user/3"); !ok {
			t.Fatalf("replica on worker %d not backfilled", w)
		}
	}
	if locs := d.locate(t, "user", user); len(locs) != 2 {
		t.Fatalf("locations after repair %v, want 2", locs)
	}
}

// TestChaosReplicatedDeathLossFree is the acceptance chaos scenario for the
// replicated pool: store with RF=2, kill the primary, and the next rank is a
// pool hit (zero recompute of the user prefix); the anti-entropy scrubber
// then restores RF=2 on the survivors. Read repair is disabled so the
// restoration is provably the scrubber's.
func TestChaosReplicatedDeathLossFree(t *testing.T) {
	d := newChaosDeployment(t, 3, scheduler.StaticUser{}, TransferConfig{
		Timeout: 500 * time.Millisecond, MaxRetries: -1,
		BreakerThreshold: 2, BreakerCooldown: 100 * time.Millisecond,
		HedgeQuantile: -1,
	}, func(cfg *FrontendConfig) {
		cfg.Replication = 2
		cfg.ReadRepairBudget = -1
	})
	guard := NewPoolGuard(d.frontend, PoolGuardConfig{
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
		FailThreshold: 2,
		RepairHot:     8,
		ScrubInterval: 100 * time.Millisecond,
		ScrubShards:   1,
	})
	guard.Start()
	t.Cleanup(guard.Stop)

	user := 3
	if _, err := d.frontend.Rank(context.Background(), RankRequest{UserID: user, CandidateIDs: []int{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	flushFrontend(t, d.frontend)
	reps := d.frontend.userReplicas(user)
	primary := reps[0]
	d.proxies[primary].SetMode(FaultError, 0)

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; guard stats %+v", what, guard.Stats())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitFor("the death", func() bool { return guard.Stats().Deaths >= 1 })

	// The committed user cache must survive the primary's death: the next
	// rank reuses the surviving replica instead of recomputing.
	out, err := d.frontend.Rank(context.Background(), RankRequest{UserID: user, CandidateIDs: []int{4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if out.ReusedTokens < len(d.frontend.cfg.Dataset.UserHistory[user]) {
		t.Fatalf("reused %d tokens after primary death, want the full profile (pool hit)", out.ReusedTokens)
	}

	// The scrubber restores RF=2 on the survivors within a sweep or two.
	waitFor("scrub re-replication", func() bool {
		locs := d.locate(t, "user", user)
		if len(locs) != 2 {
			return false
		}
		for _, w := range locs {
			if w == primary {
				return false
			}
		}
		return guard.Stats().ScrubRepairs >= 1
	})
	if st := guard.Stats(); st.ReplicaAvg["user"] <= 0 {
		t.Fatalf("scrub sweep never measured user replicas: %+v", st)
	}
}

// TestScrubRepairsDivergentReplica: a replica holding a stale prefix of an
// entry is overwritten from the longest copy by one scrub sweep.
func TestScrubRepairsDivergentReplica(t *testing.T) {
	d := newChaosDeployment(t, 2, scheduler.StaticUser{}, TransferConfig{}, func(cfg *FrontendConfig) {
		cfg.Replication = 2
	})
	guard := NewPoolGuard(d.frontend, PoolGuardConfig{ScrubInterval: -1, ScrubShards: 1})

	c := transferCache(t, model.TinyGR(32), 10, 5)
	full, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	stale, err := transferCache(t, model.TinyGR(32), 6, 5).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.workers[0].Put("user/3", stale); err != nil {
		t.Fatal(err)
	}
	if err := d.workers[1].Put("user/3", full); err != nil {
		t.Fatal(err)
	}
	registerAt(t, d.metaSrv.URL, "user", 3, 0)
	registerAt(t, d.metaSrv.URL, "user", 3, 1)

	guard.scrubOnce()

	got, ok := d.workers[0].Peek("user/3")
	if !ok || !bytes.Equal(got, full) {
		t.Fatalf("divergent replica not repaired from the longest copy (have %d bytes, want %d)", len(got), len(full))
	}
	st := guard.Stats()
	if st.ScrubDivergent == 0 || st.ScrubRepairs == 0 {
		t.Fatalf("divergence repair not counted: %+v", st)
	}
}

// TestScrubRestoresReplicationFactor: an entry stored before Replication was
// raised (one copy, RF=2) gets its second replica from a sweep.
func TestScrubRestoresReplicationFactor(t *testing.T) {
	d := newChaosDeployment(t, 2, scheduler.StaticUser{}, TransferConfig{}, func(cfg *FrontendConfig) {
		cfg.Replication = 2
	})
	guard := NewPoolGuard(d.frontend, PoolGuardConfig{ScrubInterval: -1, ScrubShards: 1})

	c := transferCache(t, model.TinyGR(32), 8, 7)
	payload, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.workers[0].Put("item/9", payload); err != nil {
		t.Fatal(err)
	}
	registerAt(t, d.metaSrv.URL, "item", 9, 0)

	guard.scrubOnce()

	if got, ok := d.workers[1].Peek("item/9"); !ok || !bytes.Equal(got, payload) {
		t.Fatal("second replica not created by the scrub sweep")
	}
	if locs := d.locate(t, "item", 9); len(locs) != 2 {
		t.Fatalf("locations after sweep %v, want both workers", locs)
	}
	st := guard.Stats()
	if st.UnderReplicated != 1 {
		t.Fatalf("last sweep under-replicated count %d, want 1", st.UnderReplicated)
	}
	if st.ScrubRepairs == 0 {
		t.Fatal("scrub repair not counted")
	}
}

// TestHedgedFetchBeatsSlowPrimary: once the fetch-stage histogram has
// calibrated, a slow primary replica is raced by a hedged fetch to the
// second replica, and the request completes well under the injected delay.
func TestHedgedFetchBeatsSlowPrimary(t *testing.T) {
	d := newChaosDeployment(t, 2, scheduler.StaticUser{}, TransferConfig{
		Timeout: 2 * time.Second, MaxRetries: -1, BreakerThreshold: -1,
	}, func(cfg *FrontendConfig) {
		cfg.Replication = 2
	})
	user := 1
	cands := []int{1, 2, 3}
	// Warm: first rank stores both replicas; the next ones record fast
	// fetch-stage samples that calibrate the hedge delay.
	for i := 0; i < 3; i++ {
		if _, err := d.frontend.Rank(context.Background(), RankRequest{UserID: user, CandidateIDs: cands}); err != nil {
			t.Fatal(err)
		}
		flushFrontend(t, d.frontend)
	}
	if d := d.frontend.hedgeDelay(); d <= 0 {
		t.Fatalf("hedge delay %v after warmup, want > 0", d)
	}

	// Slow down the primary (meta lists locations ascending; the fetch walks
	// them in order, so locs[0] is the one the hedge must beat).
	locs := d.locate(t, "user", user)
	if len(locs) != 2 {
		t.Fatalf("locations %v, want 2 replicas", locs)
	}
	const injected = 500 * time.Millisecond
	d.proxies[locs[0]].SetMode(FaultDelay, injected)
	start := time.Now()
	out, err := d.frontend.Rank(context.Background(), RankRequest{UserID: user, CandidateIDs: []int{4, 5}})
	elapsed := time.Since(start)
	d.proxies[locs[0]].SetMode(FaultNone, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.ReusedTokens < len(d.frontend.cfg.Dataset.UserHistory[user]) {
		t.Fatalf("hedged rank reused %d tokens, want the full profile", out.ReusedTokens)
	}
	if elapsed >= injected {
		t.Fatalf("rank took %v against a %v-delayed primary; hedge never fired", elapsed, injected)
	}
	st := d.frontend.Stats()
	if st.HedgedWins == 0 {
		t.Fatalf("no hedged wins counted (hedged fetches: %d)", st.HedgedFetches)
	}
}

// TestDrainMovesEntriesLossFree: draining a worker moves every entry to
// peers chosen by the frontend's own routing, and subsequent reads hit the
// pool with zero new fetch errors.
func TestDrainMovesEntriesLossFree(t *testing.T) {
	d := newChaosDeployment(t, 3, scheduler.StaticUser{}, TransferConfig{}, nil)
	for u := 0; u < 6; u++ {
		if _, err := d.frontend.Rank(context.Background(), RankRequest{UserID: u, CandidateIDs: []int{1, 2, 3}}); err != nil {
			t.Fatal(err)
		}
	}
	flushFrontend(t, d.frontend)

	w := d.frontend.userWorker(0)
	held := d.workers[w].Stats().Entries
	if held == 0 {
		t.Fatalf("worker %d holds nothing to drain", w)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	dr, err := d.frontend.DrainWorker(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Moved != held || dr.Errors != 0 || dr.Skipped != 0 {
		t.Fatalf("drain moved %d/%d entries (errors %d, skipped %d)", dr.Moved, held, dr.Errors, dr.Skipped)
	}
	if got := d.workers[w].Stats().Entries; got != 0 {
		t.Fatalf("drained worker still holds %d entries", got)
	}
	if !d.workers[w].Draining() {
		t.Fatal("drained worker not left in the draining state")
	}
	st := d.frontend.Stats()
	if st.Drains != 1 {
		t.Fatalf("drains counter %d, want 1", st.Drains)
	}
	if !st.Workers[w].Draining {
		t.Fatal("frontend stats do not mark the worker draining")
	}
	// Reads after the drain are pool hits from the new location — no decode
	// errors, no fetch errors, no recompute.
	if locs := d.locate(t, "user", 0); len(locs) == 0 || locs[0] == w {
		t.Fatalf("user 0 locations after drain: %v", locs)
	}
	fetchErrs := st.FetchErrors
	out, err := d.frontend.Rank(ctx, RankRequest{UserID: 0, CandidateIDs: []int{7, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if out.ReusedTokens < len(d.frontend.cfg.Dataset.UserHistory[0]) {
		t.Fatalf("post-drain rank reused %d tokens, want the full profile", out.ReusedTokens)
	}
	if got := d.frontend.Stats().FetchErrors; got != fetchErrs {
		t.Fatalf("post-drain rank added %d fetch errors, want 0", got-fetchErrs)
	}

	// Undrain returns the worker to service.
	if err := d.frontend.UndrainWorker(ctx, w); err != nil {
		t.Fatal(err)
	}
	if d.workers[w].Draining() {
		t.Fatal("worker still draining after undrain")
	}
	if d.frontend.Stats().Workers[w].Draining {
		t.Fatal("frontend still routes around the undrained worker")
	}
}

// TestDrainEndpointOnFrontend drives the same flow through the operator
// endpoint (POST /v1/drain on the frontend).
func TestDrainEndpointOnFrontend(t *testing.T) {
	d := newChaosDeployment(t, 2, scheduler.StaticUser{}, TransferConfig{}, nil)
	if _, err := d.frontend.Rank(context.Background(), RankRequest{UserID: 0, CandidateIDs: []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	flushFrontend(t, d.frontend)
	w := d.frontend.userWorker(0)

	body, _ := json.Marshal(map[string]int{"worker": w})
	resp, err := http.Post(d.front.URL+"/v1/drain", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain endpoint status %d", resp.StatusCode)
	}
	var dr DrainResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	if dr.Moved == 0 {
		t.Fatalf("endpoint drain moved nothing: %+v", dr)
	}
	// A second drain of the same worker is refused.
	resp2, err := http.Post(d.front.URL+"/v1/drain", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode == http.StatusOK {
		t.Fatal("double drain accepted")
	}
	// Undrain over HTTP.
	resp3, err := http.Post(d.front.URL+"/v1/undrain", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNoContent {
		t.Fatalf("undrain endpoint status %d", resp3.StatusCode)
	}
	if d.workers[w].Draining() {
		t.Fatal("worker still draining after /v1/undrain")
	}
}

// TestCloseFlushesQueuedStores: Close's bounded flush lands queued
// write-behind stores instead of abandoning them.
func TestCloseFlushesQueuedStores(t *testing.T) {
	d := newChaosDeployment(t, 1, scheduler.StaticUser{}, TransferConfig{}, nil)
	if _, err := d.frontend.Rank(context.Background(), RankRequest{UserID: 0, CandidateIDs: []int{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	d.frontend.Close()
	if got := d.workers[0].Stats().Entries; got == 0 {
		t.Fatal("Close abandoned the queued stores")
	}
	if n := d.frontend.Stats().CloseDroppedStores; n != 0 {
		t.Fatalf("%d stores counted dropped on a clean close", n)
	}
}

// TestCloseCountsDroppedStores: when the flush budget expires against a hung
// worker, the remainder is dropped and counted instead of blocking shutdown.
func TestCloseCountsDroppedStores(t *testing.T) {
	d := newChaosDeployment(t, 1, scheduler.StaticUser{}, TransferConfig{
		Timeout: 200 * time.Millisecond,
	}, func(cfg *FrontendConfig) {
		cfg.CloseFlushTimeout = 50 * time.Millisecond
	})
	d.proxies[0].SetMode(FaultHang, 0)
	if _, err := d.frontend.Rank(context.Background(), RankRequest{UserID: 0, CandidateIDs: []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	d.frontend.Close()
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("bounded close took %v", elapsed)
	}
	if n := d.frontend.Stats().CloseDroppedStores; n == 0 {
		t.Fatal("dropped stores not counted at shutdown")
	}
	d.proxies[0].Release()
}

// TestMetaBindingsAndRegisterBatch: the scrubber's two meta endpoints —
// batch registration and sharded index listing (disjoint shards, complete
// union, sorted workers).
func TestMetaBindingsAndRegisterBatch(t *testing.T) {
	meta := NewMetaServer(300, func() time.Time { return time.Unix(0, 0) })
	srv := httptest.NewServer(meta.Handler())
	defer srv.Close()

	batch := RegisterBatchRequest{Entries: []RegisterRequest{
		{EntryRef: EntryRef{Kind: "user", ID: 1}, Worker: 1},
		{EntryRef: EntryRef{Kind: "user", ID: 1}, Worker: 0},
		{EntryRef: EntryRef{Kind: "item", ID: 2}, Worker: 0},
		{EntryRef: EntryRef{Kind: "user", ID: 5}, Worker: 2},
	}}
	body, _ := json.Marshal(batch)
	resp, err := http.Post(srv.URL+"/v1/register_batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("register_batch status %d", resp.StatusCode)
	}

	const shards = 2
	seen := make(map[string][]int)
	for shard := 0; shard < shards; shard++ {
		body, _ := json.Marshal(BindingsRequest{Shard: shard, Shards: shards})
		resp, err := http.Post(srv.URL+"/v1/bindings", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out BindingsResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		for _, e := range out.Entries {
			k := e.Kind + "/" + string(rune('0'+e.ID))
			if _, dup := seen[k]; dup {
				t.Fatalf("entry %s appeared in two shards", k)
			}
			seen[k] = e.Workers
		}
	}
	if len(seen) != 3 {
		t.Fatalf("shard union has %d entries, want 3: %v", len(seen), seen)
	}
	if ws := seen["user/1"]; len(ws) != 2 || ws[0] != 0 || ws[1] != 1 {
		t.Fatalf("user/1 workers %v, want [0 1]", ws)
	}
}

// FuzzDrainStream fuzzes the bulk drain-stream decoder: it must never panic,
// and every frame it emits must carry a parseable key and a payload whose
// BKV2 header matches its length exactly.
func FuzzDrainStream(f *testing.F) {
	c := transferCache(f, model.TinyGR(32), 6, 9)
	payload, err := c.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	var good bytes.Buffer
	if _, err := encodeBulkFrame(&good, "user/7", payload); err != nil {
		f.Fatal(err)
	}
	if _, err := encodeBulkFrame(&good, "item/12", payload); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(good.Bytes()[:good.Len()-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		n, _ := decodeBulkStream(bytes.NewReader(data), 1<<20, func(key string, payload []byte) {
			if _, _, err := ParseCacheKey(key); err != nil {
				t.Fatalf("decoder emitted unparseable key %q: %v", key, err)
			}
			hdr, err := model.ParseWireHeader(payload)
			if err != nil {
				t.Fatalf("decoder emitted invalid payload: %v", err)
			}
			if hdr.PayloadSize() != len(payload) {
				t.Fatalf("decoder emitted %d payload bytes for a %d-byte header", len(payload), hdr.PayloadSize())
			}
		})
		if n < 0 {
			t.Fatal("negative frame count")
		}
	})
}

// TestBulkRoundTrip: encode → POST /v1/bulk → stored byte-identical.
func TestBulkRoundTrip(t *testing.T) {
	cw, err := NewCacheWorker(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(cw.Handler())
	defer srv.Close()

	c := transferCache(t, model.TinyGR(32), 6, 11)
	payload, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, key := range []string{"user/1", "item/2"} {
		if _, err := encodeBulkFrame(&buf, key, payload); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(srv.URL+"/v1/bulk", "application/octet-stream", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out BulkResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Stored != 2 || len(out.Rejected) != 0 {
		t.Fatalf("bulk response %+v, want 2 stored", out)
	}
	for _, key := range []string{"user/1", "item/2"} {
		got, ok := cw.Peek(key)
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("bulk-stored %s not byte-identical", key)
		}
	}
	// A draining worker refuses the stream.
	cw.SetDraining(true)
	resp2, err := http.Post(srv.URL+"/v1/bulk", "application/octet-stream", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining worker accepted bulk with status %d", resp2.StatusCode)
	}
}

package distserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bat/internal/admission"
	"bat/internal/ranking"
	"bat/internal/scheduler"
	"bat/internal/serving"
)

// chaosDeployment is a faultDeployment plus the frontend's own HTTP server,
// so tests can exercise the admission ladder (headers, 429s) end to end.
type chaosDeployment struct {
	*faultDeployment
	front *httptest.Server
}

func newChaosDeployment(t *testing.T, workers int, policy scheduler.Policy, tcfg TransferConfig, mod func(*FrontendConfig)) *chaosDeployment {
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
		t.Cleanup(proxy.Release)
		urls = append(urls, front.URL)
	}
	cfg := FrontendConfig{
		Dataset:      testDataset(t),
		Variant:      ranking.VariantBase,
		MetaURL:      d.metaSrv.URL,
		CacheWorkers: urls,
		Policy:       policy,
		Transfer:     tcfg,
	}
	if mod != nil {
		mod(&cfg)
	}
	f, err := NewFrontend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.frontend = f
	cd := &chaosDeployment{faultDeployment: d, front: httptest.NewServer(f.Handler())}
	t.Cleanup(cd.front.Close)
	return cd
}

// post issues one /v1/rank call with optional headers and returns the status
// code, response headers, and decoded body (nil unless 200).
func (d *chaosDeployment) post(t *testing.T, req RankRequest, headers map[string]string) (int, http.Header, *RankResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, d.front.URL+"/v1/rank", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		hreq.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, resp.Header, nil
	}
	var out RankResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, &out
}

// TestOverloadFloodShedsAndBoundsLatency: a flood far past capacity must
// split cleanly into fast 200s (some degraded) and fast 429s carrying
// Retry-After — never an unbounded pile-up.
func TestOverloadFloodShedsAndBoundsLatency(t *testing.T) {
	d := newChaosDeployment(t, 1, scheduler.StaticItem{}, TransferConfig{
		Timeout: time.Second, MaxRetries: -1, BreakerThreshold: -1,
	}, func(cfg *FrontendConfig) {
		cfg.Admission = admission.Config{
			MaxInFlight: 1, MaxQueue: 2, DegradeQueueDepth: 1,
			DefaultDeadline: 5 * time.Second,
		}
	})
	// Slow each full serve down so the flood actually overlaps.
	d.proxies[0].SetMode(FaultDelay, 100*time.Millisecond)

	const flood = 16
	type outcome struct {
		status   int
		degraded bool
		header   http.Header
		elapsed  time.Duration
	}
	outcomes := make([]outcome, flood)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			status, hdr, resp := d.post(t, RankRequest{UserID: i % 8, CandidateIDs: []int{1, 2, 3, 4}}, nil)
			outcomes[i] = outcome{status: status, header: hdr, elapsed: time.Since(t0)}
			if resp != nil {
				outcomes[i].degraded = resp.Degraded
			}
		}(i)
	}
	wg.Wait()
	if total := time.Since(start); total > 10*time.Second {
		t.Fatalf("flood took %v, overload control did not bound latency", total)
	}

	oks, sheds, degraded := 0, 0, 0
	for _, o := range outcomes {
		switch o.status {
		case http.StatusOK:
			oks++
			if o.degraded {
				degraded++
			}
		case http.StatusTooManyRequests:
			sheds++
			if o.header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			if o.header.Get(admission.ShedReasonHeader) == "" {
				t.Fatal("429 without a shed reason")
			}
			if o.elapsed > 2*time.Second {
				t.Fatalf("shed response took %v, shedding must be fast", o.elapsed)
			}
		default:
			t.Fatalf("unexpected status %d", o.status)
		}
	}
	if oks == 0 {
		t.Fatal("flood starved every request; some must still be served")
	}
	if sheds == 0 {
		t.Fatal("flood past capacity shed nothing")
	}
	if degraded == 0 {
		t.Fatal("queued requests were not served degraded under pressure")
	}
	st := d.frontend.Stats()
	if st.Admission.ShedQueueFull == 0 {
		t.Fatal("queue-full sheds not counted")
	}
	if st.DegradedRequests == 0 {
		t.Fatal("degraded requests not counted")
	}
}

// TestDeadlineDegradeAfterCalibration: once the cost model is calibrated
// against observed wall clock, a request whose Deadline-Ms budget cannot
// cover a full serve is answered degraded instead of blowing the deadline.
func TestDeadlineDegradeAfterCalibration(t *testing.T) {
	d := newChaosDeployment(t, 1, scheduler.StaticItem{}, TransferConfig{
		Timeout: time.Second, MaxRetries: -1, BreakerThreshold: -1,
	}, nil)
	// Every worker round trip pays 200 ms, so a full serve is slow and the
	// calibrated estimate is far above the micro-model's prediction.
	d.proxies[0].SetMode(FaultDelay, 200*time.Millisecond)
	req := RankRequest{UserID: 2, CandidateIDs: []int{1, 3, 5}}
	if _, err := d.frontend.Rank(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if d.frontend.Stats().CalibratedCostRatio == 0 {
		t.Fatal("full serve did not calibrate the cost model")
	}

	status, _, resp := d.post(t, req, map[string]string{admission.DeadlineHeader: "100"})
	if status != http.StatusOK {
		t.Fatalf("tight-deadline request status %d, want 200 degraded", status)
	}
	if !resp.Degraded || resp.DegradeReason != admission.ReasonDeadline {
		t.Fatalf("response %+v, want degraded with reason %q", resp, admission.ReasonDeadline)
	}
	if len(resp.Ranking) == 0 {
		t.Fatal("degraded response carried no ranking")
	}
	// A generous budget still gets the full model.
	status, _, resp = d.post(t, req, map[string]string{admission.DeadlineHeader: "30000"})
	if status != http.StatusOK || resp.Degraded {
		t.Fatalf("roomy-deadline request: status %d degraded %v, want full serve", status, resp.Degraded)
	}
}

// TestChaosWorkerDeathSelfHeals is the acceptance chaos scenario: kill a
// cache worker mid-run; requests keep succeeding, the poolguard declares the
// death, purges the worker's meta bindings, re-replicates hot entries onto
// the survivor, and the worker rejoins cleanly when revived.
func TestChaosWorkerDeathSelfHeals(t *testing.T) {
	d := newChaosDeployment(t, 2, scheduler.StaticUser{}, TransferConfig{
		Timeout: 500 * time.Millisecond, MaxRetries: -1,
		BreakerThreshold: 2, BreakerCooldown: 100 * time.Millisecond,
	}, nil)
	guard := NewPoolGuard(d.frontend, PoolGuardConfig{
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
		FailThreshold: 2,
		RepairHot:     8,
	})
	guard.Start()
	t.Cleanup(guard.Stop)

	// Warm the pool: user caches spread across both workers.
	users := len(d.frontend.cfg.Dataset.UserHistory)
	victims := 0 // users homed on worker 0
	for u := 0; u < users; u++ {
		if _, err := d.frontend.Rank(context.Background(), RankRequest{UserID: u, CandidateIDs: []int{1, 2, 3}}); err != nil {
			t.Fatal(err)
		}
		if d.frontend.userWorker(u) == 0 {
			victims++
		}
	}
	if victims == 0 {
		t.Fatal("no user shards to worker 0; dataset seed broke the scenario")
	}

	// Kill worker 0.
	d.proxies[0].SetMode(FaultError, 0)

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				st := d.frontend.Stats()
				t.Fatalf("timed out waiting for %s; guard stats %+v; fetch errors %d, worker 0 transfer health %+v",
					what, guard.Stats(), st.FetchErrors, st.Workers[0])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitFor("death + repair", func() bool {
		st := guard.Stats()
		return st.Deaths >= 1 && st.Repaired >= 1
	})

	// Requests keep succeeding against the dead worker (served by recompute
	// or by the survivor — never an error).
	for u := 0; u < 6; u++ {
		if _, err := d.frontend.Rank(context.Background(), RankRequest{UserID: u, CandidateIDs: []int{4, 5}}); err != nil {
			t.Fatalf("rank during worker death: %v", err)
		}
	}

	// The dead worker's meta bindings are gone: no location list mentions it.
	for u := 0; u < users; u++ {
		for _, loc := range d.locate(t, "user", u) {
			if loc == 0 {
				t.Fatalf("user %d still bound to dead worker 0", u)
			}
		}
	}
	st := d.frontend.Stats()
	if st.WorkerPurges == 0 || st.PurgedBindings == 0 {
		t.Fatalf("bulk purge not recorded: purges=%d bindings=%d", st.WorkerPurges, st.PurgedBindings)
	}
	// Repaired entries landed on the survivor and are locatable there.
	repairedOnSurvivor := 0
	for u := 0; u < users; u++ {
		for _, loc := range d.locate(t, "user", u) {
			if loc == 1 {
				repairedOnSurvivor++
			}
		}
	}
	if repairedOnSurvivor == 0 {
		t.Fatal("no entries locatable on the surviving worker after repair")
	}
	// Writes route around the dead worker.
	for u := 0; u < users; u++ {
		if d.frontend.userWorker(u) == 0 {
			t.Fatalf("user %d still routed to dead worker 0", u)
		}
	}

	// Revive worker 0; the guard must observe the rejoin and restore routing.
	d.proxies[0].SetMode(FaultNone, 0)
	waitFor("rejoin", func() bool { return guard.Stats().Rejoins >= 1 })
	waitFor("routing restored", func() bool {
		for u := 0; u < users; u++ {
			if d.frontend.userWorker(u) == 0 {
				return true
			}
		}
		return false
	})
	// And the rejoined worker refills through the normal store path. Drop the
	// chosen user's surviving bindings first (as an eviction would), so each
	// request for that user recomputes and stores to its home worker again.
	//
	// Refill is promised eventually, not on the first store: stores route
	// back at once, but the worker's transfer breaker may still be open from
	// the death (the stores queued at the kill tripped it), and a store it
	// refuses is dropped like any breaker-open transfer — counted as a fetch
	// error, not retried. The first store the breaker admits (its half-open
	// probe, one cooldown after it opened) lands. So rank, flush the store
	// queue, and look, until it has.
	rejoinUser := -1
	for u := 0; u < users; u++ {
		if d.frontend.userWorker(u) == 0 {
			rejoinUser = u
			break
		}
	}
	for _, loc := range d.locate(t, "user", rejoinUser) {
		body, _ := json.Marshal(RegisterRequest{EntryRef: EntryRef{Kind: "user", ID: uint64(rejoinUser)}, Worker: loc})
		resp, err := http.Post(d.metaSrv.URL+"/v1/unregister", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	waitFor("rejoined worker refilled", func() bool {
		if _, err := d.frontend.Rank(context.Background(), RankRequest{UserID: rejoinUser, CandidateIDs: []int{6, 7}}); err != nil {
			t.Fatal(err)
		}
		flushFrontend(t, d.frontend)
		for _, loc := range d.locate(t, "user", rejoinUser) {
			if loc == 0 {
				return true
			}
		}
		return false
	})
	gs := guard.Stats()
	if gs.Deaths < 1 || gs.Rejoins < 1 || gs.Repaired < 1 {
		t.Fatalf("guard stats %+v, want at least one death, rejoin, and repair", gs)
	}
}

// TestBreakerOpenPurgesWorkerBindings: the worker-granularity stale-cleanup
// satellite — when fetches short-circuit on an open breaker, the frontend
// bulk-purges that worker's bindings instead of leaking stale locations.
func TestBreakerOpenPurgesWorkerBindings(t *testing.T) {
	d := newChaosDeployment(t, 1, scheduler.StaticUser{}, TransferConfig{
		Timeout: 200 * time.Millisecond, MaxRetries: -1,
		BreakerThreshold: 1, BreakerCooldown: 10 * time.Second,
	}, nil)
	if _, err := d.frontend.Rank(context.Background(), RankRequest{UserID: 0, CandidateIDs: []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	flushFrontend(t, d.frontend)
	if locs := d.locate(t, "user", 0); len(locs) != 1 {
		t.Fatalf("user 0 locations after warm: %v", locs)
	}
	d.proxies[0].SetMode(FaultError, 0)
	// First request trips the breaker; a later one hits errBreakerOpen and
	// fires the bulk purge.
	for i := 0; i < 3; i++ {
		if _, err := d.frontend.Rank(context.Background(), RankRequest{UserID: 0, CandidateIDs: []int{1, 2}}); err != nil {
			t.Fatal(err)
		}
	}
	if locs := d.locate(t, "user", 0); len(locs) != 0 {
		t.Fatalf("stale bindings survived the breaker-open purge: %v", locs)
	}
	if st := d.frontend.Stats(); st.WorkerPurges == 0 {
		t.Fatal("breaker-open purge not counted")
	}
}

// TestMetaWorkerEndpoints covers the new bulk meta API over HTTP:
// access_batch records hotness for many entries at once, unregister_worker
// purges one worker's bindings and returns the hottest ones first.
func TestMetaWorkerEndpoints(t *testing.T) {
	meta := NewMetaServer(300, func() time.Time { return time.Unix(0, 0) })
	srv := httptest.NewServer(meta.Handler())
	defer srv.Close()
	post := func(path string, payload interface{}) (*http.Response, func()) {
		body, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp, func() { resp.Body.Close() }
	}

	for id := uint64(1); id <= 3; id++ {
		resp, done := post("/v1/register", RegisterRequest{EntryRef: EntryRef{Kind: "item", ID: id}, Worker: 0})
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("register status %d", resp.StatusCode)
		}
		done()
	}
	// Heat item 2 above the others.
	batch := AccessBatchRequest{Entries: []EntryRef{{Kind: "item", ID: 2}, {Kind: "item", ID: 2}, {Kind: "item", ID: 1}}}
	resp, done := post("/v1/access_batch", batch)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("access_batch status %d", resp.StatusCode)
	}
	done()
	// Bad kinds are rejected atomically.
	resp, done = post("/v1/access_batch", AccessBatchRequest{Entries: []EntryRef{{Kind: "blob", ID: 9}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-kind access_batch status %d", resp.StatusCode)
	}
	done()

	resp, done = post("/v1/unregister_worker", UnregisterWorkerRequest{Worker: 0, HotLimit: 2})
	defer done()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unregister_worker status %d", resp.StatusCode)
	}
	var out UnregisterWorkerResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Removed != 3 {
		t.Fatalf("removed %d bindings, want 3", out.Removed)
	}
	if len(out.Hottest) != 2 {
		t.Fatalf("hottest list %v, want 2 entries (HotLimit)", out.Hottest)
	}
	if out.Hottest[0].ID != 2 {
		t.Fatalf("hottest entry %+v, want item 2 first", out.Hottest[0])
	}
	// Everything is gone.
	for id := 1; id <= 3; id++ {
		resp, err := http.Get(fmt.Sprintf("%s/v1/locate?kind=item&id=%d", srv.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		var loc LocateResponse
		if err := json.NewDecoder(resp.Body).Decode(&loc); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(loc.Workers) != 0 {
			t.Fatalf("item %d still located at %v after worker purge", id, loc.Workers)
		}
	}
	// A second purge is a clean no-op.
	resp, done = post("/v1/unregister_worker", UnregisterWorkerRequest{Worker: 0})
	defer done()
	var again UnregisterWorkerResponse
	if err := json.NewDecoder(resp.Body).Decode(&again); err != nil {
		t.Fatal(err)
	}
	if again.Removed != 0 || len(again.Hottest) != 0 {
		t.Fatalf("second purge removed %d/%v, want empty", again.Removed, again.Hottest)
	}
	// Negative worker IDs are rejected.
	resp, done = post("/v1/unregister_worker", UnregisterWorkerRequest{Worker: -1})
	defer done()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative worker status %d", resp.StatusCode)
	}
}

// TestPoolGuardStopCancelsInflightProbes: probe and repair contexts derive
// from the guard's lifetime context, so Stop must return promptly even while
// a probe is parked against a hung worker, and the parked goroutines must
// drain instead of leaking until their own (long) timeouts expire.
func TestPoolGuardStopCancelsInflightProbes(t *testing.T) {
	d := newChaosDeployment(t, 2, scheduler.StaticUser{},
		TransferConfig{Timeout: 30 * time.Second}, nil)
	for _, p := range d.proxies {
		p.SetMode(FaultHang, 0)
	}
	baseline := runtime.NumGoroutine()
	g := NewPoolGuard(d.frontend, PoolGuardConfig{
		ProbeInterval: 20 * time.Millisecond,
		// Long enough that a leaked probe would outlive the test by far:
		// only guard-context cancellation can unpark it promptly.
		ProbeTimeout:  30 * time.Second,
		FailThreshold: 1000,
	})
	g.Start()
	deadline := time.Now().Add(5 * time.Second)
	for d.proxies[0].Requests() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no probe reached the hung worker")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stopStart := time.Now()
	g.Stop()
	if took := time.Since(stopStart); took > 5*time.Second {
		t.Fatalf("Stop took %v with a probe in flight; guard context not canceled", took)
	}
	// The probe goroutine and the proxy handler it woke must both drain.
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+3 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Stop: baseline %d, now %d",
				baseline, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDistserveObservabilityEndpoints: the disaggregated plane serves
// /metrics (core stage histograms + pool lines) and /debug/trace, and its
// traces carry StageFetch spans tagged with worker id and outcome.
func TestDistserveObservabilityEndpoints(t *testing.T) {
	d := newChaosDeployment(t, 2, scheduler.StaticItem{}, TransferConfig{}, nil)

	// Same candidate set twice: the first serve computes and stores item
	// caches, the second fetches them back (hits).
	cands := []int{1, 2, 3, 4}
	for i := 0; i < 2; i++ {
		if status, _, _ := d.post(t, RankRequest{UserID: i, CandidateIDs: cands}, nil); status != http.StatusOK {
			t.Fatalf("rank %d status %d", i, status)
		}
	}

	resp, err := http.Get(d.front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	out := string(body)
	for _, want := range []string{
		`bat_stage_latency_seconds{stage="plan"`,
		`bat_fetch_total{outcome="hit"}`,
		`bat_worker_breaker_open{worker="0"} 0`,
		"bat_transfer_requests_total{target=\"worker-0\"}",
		"bat_fetch_errors_total 0",
		"bat_requests_total 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q:\n%s", want, out)
		}
	}

	tresp, err := http.Get(d.front.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	var traces serving.TraceResponse
	if err := json.NewDecoder(tresp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	if len(traces.Traces) != 2 {
		t.Fatalf("traces %d, want 2", len(traces.Traces))
	}
	// Newest trace = the second request, whose item caches were pool hits.
	hits := 0
	for _, sp := range traces.Traces[0].Spans {
		if sp.Stage != serving.StageFetch {
			continue
		}
		if sp.Attrs["worker"] == "" || sp.Attrs["outcome"] == "" {
			t.Fatalf("fetch span missing worker/outcome tags: %+v", sp)
		}
		if sp.Attrs["outcome"] == "hit" {
			hits++
		}
	}
	if hits == 0 {
		t.Fatalf("second request recorded no fetch hits: %+v", traces.Traces[0].Spans)
	}
}

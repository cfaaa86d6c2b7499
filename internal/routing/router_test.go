package routing

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bat/internal/admission"
)

// fakeFrontend is a minimal frontend: /v1/load reports a fixed residency
// summary and zero load, /v1/rank answers 200 and counts. conns counts the
// connections it accepts.
type fakeFrontend struct {
	ranks   atomic.Int64
	conns   atomic.Int64
	users   []uint64
	block   chan struct{} // non-nil: /v1/rank waits for a receive
	blocked atomic.Int64  // /v1/rank calls that have waited on block
	srv     *httptest.Server
}

func newFakeFrontend(t *testing.T, users ...uint64) *fakeFrontend {
	t.Helper()
	f := &fakeFrontend{users: users}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/load", func(w http.ResponseWriter, r *http.Request) {
		sum := NewSummary(0)
		for _, u := range f.users {
			sum.Add(EntryHash("user", u))
		}
		json.NewEncoder(w).Encode(map[string]any{
			"in_flight": 0, "queue_depth": 0,
			"max_in_flight": 4, "max_queue": 8,
			"requests": f.ranks.Load(), "resident_users": len(f.users),
			"users": sum.Encode(),
		})
	})
	mux.HandleFunc("/v1/rank", func(w http.ResponseWriter, r *http.Request) {
		if f.block != nil {
			f.blocked.Add(1)
			<-f.block
		}
		f.ranks.Add(1)
		fmt.Fprint(w, `{"items":[]}`)
	})
	f.srv = httptest.NewUnstartedServer(mux)
	f.srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			f.conns.Add(1)
		}
	}
	f.srv.Start()
	t.Cleanup(f.srv.Close)
	return f
}

func rankBody(user uint64) *bytes.Reader {
	return bytes.NewReader([]byte(fmt.Sprintf(`{"user_id": %d, "candidate_ids": [1,2]}`, user)))
}

func mustScorers(t *testing.T, spec string) []Weighted {
	t.Helper()
	s, err := ParseScorers(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRouterRoutesByCacheAffinity: the router sends a user to the frontend
// whose residency summary already holds that user's cache.
func TestRouterRoutesByCacheAffinity(t *testing.T) {
	a := newFakeFrontend(t)       // no caches
	b := newFakeFrontend(t, 7, 9) // users 7 and 9 resident
	r, err := NewRouter(RouterConfig{
		Frontends:    []string{a.srv.URL, b.srv.URL},
		Scorers:      mustScorers(t, "cache-affinity"),
		PollInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	for i := 0; i < 5; i++ {
		resp, err := http.Post(srv.URL+"/v1/rank", "application/json", rankBody(7))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("rank status %d", resp.StatusCode)
		}
	}
	if got := b.ranks.Load(); got != 5 {
		t.Fatalf("resident frontend served %d of 5", got)
	}
	if got := a.ranks.Load(); got != 0 {
		t.Fatalf("cold frontend served %d, want 0", got)
	}
	st := r.Stats()
	if st.Decisions["cache-affinity"] == 0 {
		t.Fatalf("no cache-affinity decisions recorded: %+v", st.Decisions)
	}
}

// TestRouterOptimisticResidency: after routing a cold user somewhere, the
// router remembers the placement locally, so the next request for the same
// user sticks to that frontend even before the next /v1/load poll.
func TestRouterOptimisticResidency(t *testing.T) {
	a := newFakeFrontend(t)
	b := newFakeFrontend(t)
	r, err := NewRouter(RouterConfig{
		Frontends:    []string{a.srv.URL, b.srv.URL},
		Scorers:      mustScorers(t, "cache-affinity:2,round-robin:0.25"),
		PollInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	for i := 0; i < 6; i++ {
		resp, err := http.Post(srv.URL+"/v1/rank", "application/json", rankBody(42))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	// First pick is round-robin (cold everywhere); the remaining five must
	// all follow it via the optimistic summary.
	if a.ranks.Load() != 0 && b.ranks.Load() != 0 {
		t.Fatalf("user 42 split across frontends: a=%d b=%d", a.ranks.Load(), b.ranks.Load())
	}
	if a.ranks.Load()+b.ranks.Load() != 6 {
		t.Fatalf("served %d of 6", a.ranks.Load()+b.ranks.Load())
	}
}

// TestRouterFailsOverOnDeadFrontend: killing the affinity-preferred frontend
// mid-run reroutes to the survivor with zero failed requests and a counted
// failover.
func TestRouterFailsOverOnDeadFrontend(t *testing.T) {
	a := newFakeFrontend(t, 7)
	b := newFakeFrontend(t)
	r, err := NewRouter(RouterConfig{
		Frontends:    []string{a.srv.URL, b.srv.URL},
		Scorers:      mustScorers(t, "cache-affinity"),
		PollInterval: -1,
		FailAfter:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	a.srv.Close() // kill the preferred frontend

	for i := 0; i < 3; i++ {
		resp, err := http.Post(srv.URL+"/v1/rank", "application/json", rankBody(7))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d status %d, want failover to succeed", i, resp.StatusCode)
		}
	}
	if got := b.ranks.Load(); got != 3 {
		t.Fatalf("survivor served %d of 3", got)
	}
	st := r.Stats()
	if st.Failovers == 0 {
		t.Fatal("no failovers counted")
	}
	if !strings.Contains(metricsText(t, srv.URL), "bat_route_failovers_total") {
		t.Fatal("failover counter missing from /metrics")
	}
}

// TestRouterAllDead502: with every frontend down the router answers 502,
// not a hang or a 500.
func TestRouterAllDead502(t *testing.T) {
	a := newFakeFrontend(t)
	r, err := NewRouter(RouterConfig{
		Frontends:    []string{a.srv.URL},
		PollInterval: -1,
		FailAfter:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	a.srv.Close()
	resp, err := http.Post(srv.URL+"/v1/rank", "application/json", rankBody(1))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
	if r.Stats().NoBackend == 0 {
		t.Fatal("no_backend not counted")
	}
}

// TestRouterShedsAtCapacity: cluster-level admission sheds with 429 +
// Retry-After once in-flight is saturated and the queue is disabled.
func TestRouterShedsAtCapacity(t *testing.T) {
	a := newFakeFrontend(t)
	a.block = make(chan struct{})
	r, err := NewRouter(RouterConfig{
		Frontends:    []string{a.srv.URL},
		PollInterval: -1,
		Admission:    admission.Config{MaxInFlight: 1, MaxQueue: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	done := make(chan error, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/rank", "application/json", rankBody(1))
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	// Wait for the first request to occupy the slot inside the backend.
	deadline := time.After(5 * time.Second)
	for r.ctl.Stats().InFlight == 0 {
		select {
		case <-deadline:
			t.Fatal("first request never admitted")
		case <-time.After(time.Millisecond):
		}
	}

	resp, err := http.Post(srv.URL+"/v1/rank", "application/json", rankBody(2))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	close(a.block)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestRouterReusesFrontendConnections: a warm router proxies over the
// connections it already holds — with one caller, and with as many callers
// as its in-flight bound, it opens no new connection to a frontend. Its dial
// counter agrees with what the frontend accepted, and Close leaves no
// connection behind.
func TestRouterReusesFrontendConnections(t *testing.T) {
	const callers = 4
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	baseLoops := clientConnLoops()
	a := newFakeFrontend(t)
	r, err := NewRouter(RouterConfig{
		Frontends:    []string{a.srv.URL},
		PollInterval: -1,
		Admission:    admission.Config{MaxInFlight: callers},
	})
	if err != nil {
		t.Fatal(err)
	}
	closeRouter := sync.OnceFunc(r.Close)
	t.Cleanup(closeRouter)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	clients := make([]*http.Client, callers)
	for i := range clients {
		clients[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	}
	post := func(c *http.Client, user int) {
		resp, err := c.Post(srv.URL+"/v1/rank", "application/json", rankBody(uint64(user)))
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("rank status %d", resp.StatusCode)
		}
	}
	concurrently := func(n int) {
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					post(c, i)
				}
			}()
		}
		wg.Wait()
	}

	post(clients[0], 0)
	accepted := a.conns.Load()
	for i := 0; i < 50; i++ {
		post(clients[0], i)
	}
	r.PollNow()
	if n := a.conns.Load() - accepted; n != 0 {
		t.Fatalf("50 serial proxied requests and a poll opened %d new connections, want 0", n)
	}

	// Seat `callers` connections: that many proxied requests park in the
	// frontend until all of them have arrived.
	a.block = make(chan struct{})
	seated := make(chan struct{})
	go func() {
		concurrently(1)
		close(seated)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for a.blocked.Load() < callers {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests reached the frontend", a.blocked.Load(), callers)
		}
		time.Sleep(time.Millisecond)
	}
	close(a.block)
	<-seated
	accepted = a.conns.Load()
	concurrently(50)
	r.PollNow()
	if n := a.conns.Load() - accepted; n != 0 {
		t.Fatalf("%d proxied requests from %d concurrent callers opened %d new connections, want 0", 50*callers, callers, n)
	}

	if d, n := r.reg.Counter(`bat_transfer_dials_total{target="frontend"}`).Value(), a.conns.Load(); d != n {
		t.Fatalf("bat_transfer_dials_total says %d dials, the frontend accepted %d connections", d, n)
	}
	for _, c := range clients {
		c.CloseIdleConnections()
	}
	closeRouter()
	deadline = time.Now().Add(5 * time.Second)
	for clientConnLoops() > baseLoops {
		if time.Now().After(deadline) {
			t.Fatalf("%d client connections outlived Router.Close (baseline %d)", clientConnLoops(), baseLoops)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// clientConnLoops counts live client-side HTTP connections in the process
// (one read loop each).
func clientConnLoops() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return bytes.Count(buf[:n], []byte("net/http.(*persistConn).readLoop"))
}

func metricsText(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return b.String()
}

package distserve

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bat/internal/ranking"
	"bat/internal/scheduler"
)

// connCounter counts the TCP connections test servers accept.
type connCounter struct{ n atomic.Int64 }

// serve starts h on a test server whose accepted connections are counted.
func (c *connCounter) serve(t *testing.T, h http.Handler) *httptest.Server {
	t.Helper()
	srv := httptest.NewUnstartedServer(h)
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			c.n.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv
}

// rendezvous parks the next n requests a handler sees after arm until all n
// have arrived, so a warm-up provably holds n connections to one server at
// once. Unarmed, it passes requests straight through.
type rendezvous struct {
	mu      sync.Mutex
	waiting int
	open    chan struct{}
}

func (g *rendezvous) arm(n int) {
	g.mu.Lock()
	g.waiting, g.open = n, make(chan struct{})
	g.mu.Unlock()
}

func (g *rendezvous) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g.mu.Lock()
		var open chan struct{}
		if g.waiting > 0 {
			open = g.open
			if g.waiting--; g.waiting == 0 {
				close(open)
			}
		}
		g.mu.Unlock()
		if open != nil {
			select {
			case <-open:
			case <-time.After(10 * time.Second):
			}
		}
		h.ServeHTTP(w, r)
	})
}

// clientConnLoops counts live client-side HTTP connections in the process
// (one read loop each).
func clientConnLoops() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return bytes.Count(buf[:n], []byte("net/http.(*persistConn).readLoop"))
}

// TestPoolHitsReuseConnections: once the pool is warm, a pool hit costs its
// meta calls and one GET, all on connections the frontend already holds —
// serially and with concurrent callers, no request dials the meta service or
// a cache worker. A fetch that closes its body short of EOF shows here as one
// new connection per hit; an idle pool smaller than the callers, as churn
// under concurrency. The dial counter on /metrics agrees with what the
// servers accepted, and Close leaves no connection behind.
func TestPoolHitsReuseConnections(t *testing.T) {
	const callers = 4
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	baseLoops := clientConnLoops()

	var conns connCounter
	metaGate := &rendezvous{}
	metaSrv := conns.serve(t, metaGate.wrap(NewMetaServer(300, nil).Handler()))
	var urls []string
	var workerGates []*rendezvous
	for i := 0; i < 2; i++ {
		cw, err := NewCacheWorker(8 << 20)
		if err != nil {
			t.Fatal(err)
		}
		g := &rendezvous{}
		workerGates = append(workerGates, g)
		urls = append(urls, conns.serve(t, g.wrap(cw.Handler())).URL)
	}
	// Histories of a few hundred tokens make each user cache a ~100 KB
	// payload, as on the benchmark: its body spans many reads, so the
	// connection survives only if the fetch reads it to EOF.
	ds, err := ranking.NewDataset(ranking.DatasetConfig{
		Name: "reuse", Items: 60, Users: 20, Clusters: 4, LatentDim: 8,
		HistoryMin: 300, HistoryMax: 400, ItemAttrTokens: 1,
		ClusterNoise: 0.15, Candidates: 10, HardNegatives: 2, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFrontend(FrontendConfig{
		Dataset: ds, Variant: ranking.VariantBase,
		MetaURL: metaSrv.URL, CacheWorkers: urls,
		// User-prefix plans: a cached user is one meta round of three calls
		// plus one fetch, and a hit stores nothing.
		Policy: scheduler.StaticUser{},
	})
	if err != nil {
		t.Fatal(err)
	}
	closeFrontend := sync.OnceFunc(f.Close)
	t.Cleanup(closeFrontend)

	users := len(f.cfg.Dataset.UserHistory)
	homes := make([][]int, len(urls))
	for u := 0; u < users; u++ {
		homes[f.userWorker(u)] = append(homes[f.userWorker(u)], u)
	}
	for w, h := range homes {
		if len(h) < callers {
			t.Fatalf("worker %d homes %d users, the scenario needs %d", w, len(h), callers)
		}
	}
	rank := func(u int) {
		if _, err := f.Rank(context.Background(), RankRequest{UserID: u, CandidateIDs: []int{1, 2, 3}}); err != nil {
			t.Error(err)
		}
	}
	concurrently := func(users [][]int) {
		var wg sync.WaitGroup
		for _, us := range users {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, u := range us {
					rank(u)
				}
			}()
		}
		wg.Wait()
	}
	dials := func() int64 {
		reg := f.Observer().Registry()
		return reg.Counter(`bat_transfer_dials_total{target="meta"}`).Value() +
			reg.Counter(`bat_transfer_dials_total{target="worker"}`).Value()
	}

	// Warm: every user's cache lands in the pool.
	for u := 0; u < users; u++ {
		rank(u)
	}
	flushFrontend(t, f)

	// Serially, each call finds the connection the previous one returned.
	rank(0)
	accepted, hits := conns.n.Load(), f.Stats().StreamFetches
	for pass := 0; pass < 3; pass++ {
		for u := 0; u < users; u++ {
			rank(u)
		}
	}
	if got := f.Stats().StreamFetches - hits; got != int64(3*users) {
		t.Fatalf("%d pool hits over %d cached-user requests; the scenario needs every one to hit", got, 3*users)
	}
	if n := conns.n.Load() - accepted; n != 0 {
		t.Fatalf("%d serial pool hits opened %d new connections, want 0", 3*users, n)
	}

	// With concurrent callers no host sees more than `callers` calls at once.
	// Seat that many connections on every host: for each worker, `callers`
	// requests for users it homes park at the gates until all have arrived
	// (the meta gate on the first round).
	for w, g := range workerGates {
		if w == 0 {
			metaGate.arm(callers)
		}
		g.arm(callers)
		round := make([][]int, callers)
		for c := range round {
			round[c] = []int{homes[w][c]}
		}
		concurrently(round)
	}
	accepted, hits = conns.n.Load(), f.Stats().StreamFetches
	work := make([][]int, callers)
	for pass := 0; pass < 5; pass++ {
		for u := 0; u < users; u++ {
			work[u%callers] = append(work[u%callers], u)
		}
	}
	concurrently(work)
	if got := f.Stats().StreamFetches - hits; got != int64(5*users) {
		t.Fatalf("%d pool hits over %d cached-user requests; the scenario needs every one to hit", got, 5*users)
	}
	if n := conns.n.Load() - accepted; n != 0 {
		t.Fatalf("%d pool hits from %d concurrent callers opened %d new connections, want 0", 5*users, callers, n)
	}

	if d, n := dials(), conns.n.Load(); d != n {
		t.Fatalf("bat_transfer_dials_total says %d dials, the servers accepted %d connections", d, n)
	}
	closeFrontend()
	deadline := time.Now().Add(5 * time.Second)
	for clientConnLoops() > baseLoops {
		if time.Now().After(deadline) {
			t.Fatalf("%d client connections outlived Frontend.Close (baseline %d)", clientConnLoops(), baseLoops)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

package distserve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bat/internal/bipartite"
	"bat/internal/model"
	"bat/internal/ranking"
	"bat/internal/scheduler"
)

// transferCache builds a tokens-long KV cache with real forward-pass rows
// under the given config (any weights produce valid frames; only the dims
// matter to the codec).
func transferCache(tb testing.TB, cfg model.Config, tokens int, seed int64) *model.KVCache {
	tb.Helper()
	c := model.NewKVCache(cfg)
	w := model.NewWeights(cfg, seed)
	rng := rand.New(rand.NewSource(seed))
	toks := make([]int, tokens)
	pos := make([]int, tokens)
	for i := range toks {
		toks[i] = rng.Intn(cfg.Vocab)
		pos[i] = i
	}
	w.Forward(toks, pos, nil, c)
	return c
}

// methodCounter wraps a cache worker's handler and counts /kv/ requests by
// HTTP method.
type methodCounter struct {
	next http.Handler
	mu   sync.Mutex
	n    map[string]int
}

func (m *methodCounter) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/kv/") {
		m.mu.Lock()
		m.n[r.Method]++
		m.mu.Unlock()
	}
	m.next.ServeHTTP(rw, r)
}

func (m *methodCounter) count(method string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n[method]
}

// TestStoreAfterEvictionIsOnePut: a store is one whole-cache PUT. After the
// worker loses an entry (deleted and unbound in meta, as an eviction leaves
// it), re-ranking the user recomputes the cache and stores it with exactly
// one PUT and no append attempt, and the worker ends up holding the full
// marshal of the recomputed cache.
func TestStoreAfterEvictionIsOnePut(t *testing.T) {
	meta := NewMetaServer(300, func() time.Time { return time.Unix(0, 0) })
	metaSrv := httptest.NewServer(meta.Handler())
	defer metaSrv.Close()
	cw, err := NewCacheWorker(8 << 20)
	if err != nil {
		t.Fatal(err)
	}
	counter := &methodCounter{next: cw.Handler(), n: make(map[string]int)}
	workerSrv := httptest.NewServer(counter)
	defer workerSrv.Close()
	f, err := NewFrontend(FrontendConfig{
		Dataset:      testDataset(t),
		MetaURL:      metaSrv.URL,
		CacheWorkers: []string{workerSrv.URL},
		Policy:       scheduler.StaticUser{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	ctx := context.Background()
	const user = 3
	req := RankRequest{UserID: user, CandidateIDs: []int{1, 2, 3}}
	if _, err := f.Rank(ctx, req); err != nil {
		t.Fatal(err)
	}
	flushFrontend(t, f)
	if _, ok := cw.Peek("user/3"); !ok {
		t.Fatal("first store never reached the worker")
	}

	cw.Delete("user/3")
	body, err := json.Marshal(RegisterRequest{EntryRef: EntryRef{Kind: "user", ID: user}, Worker: 0})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(metaSrv.URL+"/v1/unregister", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	puts, patches := counter.count(http.MethodPut), counter.count(http.MethodPatch)
	out, err := f.Rank(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if out.ReusedTokens != 0 {
		t.Fatalf("re-rank reused %d tokens of a removed entry", out.ReusedTokens)
	}
	flushFrontend(t, f)
	if n := counter.count(http.MethodPut) - puts; n != 1 {
		t.Fatalf("re-store sent %d PUTs, want 1", n)
	}
	if n := counter.count(http.MethodPatch) - patches; n != 0 {
		t.Fatalf("re-store sent %d PATCHes, want 0", n)
	}

	_, run, err := f.ranker.Rank(ranking.EvalRequest{User: user, Candidates: req.CandidateIDs},
		bipartite.UserPrefix, ranking.RankOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := run.NewUserCache.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := cw.Peek("user/3"); !ok || !bytes.Equal(got, want) {
		t.Fatalf("worker holds %d bytes, want the %d-byte full marshal of the recomputed cache", len(got), len(want))
	}
}

// TestTruncatedStreamIsDecodeErrorMiss: a worker that dies mid-payload (full
// Content-Length declared, body cut inside a layer frame) must surface as a
// decode-error miss — never a panic, never a partial cache hit.
func TestTruncatedStreamIsDecodeErrorMiss(t *testing.T) {
	meta := NewMetaServer(300, func() time.Time { return time.Unix(0, 0) })
	metaSrv := httptest.NewServer(meta.Handler())
	defer metaSrv.Close()

	var payload []byte
	trunc := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/octet-stream")
		rw.Header().Set("Content-Length", strconv.Itoa(len(payload)))
		rw.Write(payload[:len(payload)-64]) // cut mid-frame; server resets the stream
	}))
	defer trunc.Close()

	f, err := NewFrontend(FrontendConfig{
		Dataset:      testDataset(t),
		MetaURL:      metaSrv.URL,
		CacheWorkers: []string{trunc.URL},
		Policy:       scheduler.StaticUser{},
		Transfer:     TransferConfig{MaxRetries: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	c := transferCache(t, f.ranker.W.Config(), 10, 3)
	payload, err = c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	if got := f.fetchCache(context.Background(), 0, "user", 1); got != nil {
		t.Fatalf("truncated stream produced a cache with %d tokens", got.Len())
	}
	if n := f.fetchCtr["decode-error"].Value(); n != 1 {
		t.Fatalf("decode-error count %d, want 1", n)
	}
	if f.Stats().StreamFetches != 0 {
		t.Fatal("truncated fetch counted as a completed stream")
	}
}

// TestWriteBehindCoalesceDropFlush exercises the queue's three behaviors with
// a gated worker: a re-store of a still-queued key coalesces (latest cache
// wins), overflow drops (counted, never blocks), and FlushStores drains
// everything once the worker unblocks.
func TestWriteBehindCoalesceDropFlush(t *testing.T) {
	gate := make(chan struct{})
	var mu sync.Mutex
	stored := make(map[string]int)
	cw := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			<-gate // every PUT parks until the test opens the gate
			mu.Lock()
			stored[r.URL.Path]++
			mu.Unlock()
		}
		rw.WriteHeader(http.StatusNoContent)
	}))
	defer cw.Close()
	meta := NewMetaServer(300, func() time.Time { return time.Unix(0, 0) })
	metaSrv := httptest.NewServer(meta.Handler())
	defer metaSrv.Close()

	f, err := NewFrontend(FrontendConfig{
		Dataset:      testDataset(t),
		MetaURL:      metaSrv.URL,
		CacheWorkers: []string{cw.URL},
		Policy:       scheduler.StaticUser{},
		Transfer: TransferConfig{
			StoreQueueDepth: 2, StoreWorkers: 1,
			Timeout: 5 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	cfg := f.ranker.W.Config()
	c := transferCache(t, cfg, 4, 1)

	// One store occupies the single worker (parked on the gate); the queue
	// holds two more; everything past that must drop without blocking.
	f.queueStore(0, "user", 1, c)
	waitFor(t, func() bool {
		f.storeMu.Lock()
		defer f.storeMu.Unlock()
		return f.storeActive == 1
	})
	f.queueStore(0, "user", 2, c)
	f.queueStore(0, "user", 3, c)
	f.queueStore(0, "user", 2, c) // coalesces with the queued user/2
	f.queueStore(0, "user", 4, c) // queue full: dropped
	f.queueStore(0, "user", 5, c) // dropped

	st := f.Stats()
	if st.StoreCoalesced != 1 {
		t.Fatalf("store_coalesced=%d, want 1", st.StoreCoalesced)
	}
	if st.StoreDrops != 2 {
		t.Fatalf("store_drops=%d, want 2", st.StoreDrops)
	}

	close(gate)
	flushFrontend(t, f)
	mu.Lock()
	defer mu.Unlock()
	for _, key := range []string{"/kv/user/1", "/kv/user/2", "/kv/user/3"} {
		if stored[key] != 1 {
			t.Fatalf("%s stored %d times, want 1 (stores: %v)", key, stored[key], stored)
		}
	}
	if stored["/kv/user/4"] != 0 || stored["/kv/user/5"] != 0 {
		t.Fatalf("dropped stores reached the worker: %v", stored)
	}
}

// waitFor polls cond until true or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkStoreFullPut: the worker-side cost of storing a 64-token cache
// whole, which is what every store does.
func BenchmarkStoreFullPut(b *testing.B) {
	cfg := model.TinyGR(32)
	grown := transferCache(b, cfg, 64, 2)
	full, err := grown.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	cw, err := NewCacheWorker(64 << 20)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(full)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cw.Put("user/1", full); err != nil {
			b.Fatal(err)
		}
	}
}

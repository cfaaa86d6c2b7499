// Package distserve realizes Figure 3's disaggregated serving architecture
// as real networked processes: KV cache workers that store serialized KV
// payloads under a byte budget, a cache meta service tracking locations and
// hotness, and an inference frontend that schedules prompts, fetches prefix
// caches over HTTP (the transfer-engine role), executes the GR model, and
// writes fresh caches back. The transfer engine (resilience.go) is fault
// tolerant: per-attempt timeouts, retried idempotent GETs with jittered
// backoff, per-worker circuit breakers, replica failover, and
// bounded-concurrency parallel item fetch keep a slow or dead worker from
// costing more than a timeout budget — requests degrade to recompute, never
// stall.
//
// Every component is an http.Handler, so a deployment is N+2 ordinary HTTP
// servers — in-process for tests (httptest), separate processes via
// cmd/batdist.
package distserve

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"bat/internal/model"
)

// CacheWorker stores opaque KV payloads at user/item granularity with LRU
// eviction under a byte budget — one node's share of the disaggregated pool.
type CacheWorker struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	entries  map[string]*cwEntry
	lru      *list.List // front = most recent
	onEvict  func(key string)

	// draining refuses new stores (PUT/PATCH/bulk → 503) while reads keep
	// working, so a drain never chases a moving target.
	draining bool

	// Soft per-class partition: when a class ("user"/"item") has a budget,
	// victim selection prefers the LRU tail of an over-budget class before
	// the global tail. With no budgets set, eviction is exactly the
	// historical global LRU. Budgets are advisory (a class may sit over
	// budget until space is needed), which only ever improves hit rate.
	classBudget map[string]int64
	classUsed   map[string]int64
	classStats  map[string]*cwClassStats

	hits, misses, puts, evictions int64
	appends, appendRejects        int64
	drains, bulkStored            int64
}

// cwClassStats accumulates one class's counters (bytes for hits so the
// partition controller sees token-proportional weight; counts elsewhere).
type cwClassStats struct {
	Hits, Misses, Evictions int64
	HitBytes                int64
}

// classOf buckets a cache key into a partition class.
func classOf(key string) string {
	kind, _, err := ParseCacheKey(key)
	if err != nil {
		return ""
	}
	return kind
}

// bumpClass adjusts a class's resident-byte accounting. Caller holds mu.
func (w *CacheWorker) bumpClass(class string, delta int64) {
	if class == "" {
		return
	}
	w.classUsed[class] += delta
}

// statsFor returns (allocating) a class's counter block. Caller holds mu.
func (w *CacheWorker) statsFor(class string) *cwClassStats {
	st, ok := w.classStats[class]
	if !ok {
		st = &cwClassStats{}
		w.classStats[class] = st
	}
	return st
}

// evictOneLocked removes one victim under the partition policy and returns
// its key. exclude is never chosen (the entry being appended to). Caller
// holds mu.
func (w *CacheWorker) evictOneLocked(exclude *cwEntry) (string, bool) {
	var victim *cwEntry
	if len(w.classBudget) > 0 {
		// Prefer the oldest entry of the most over-budget class.
		worst := int64(0)
		var worstClass string
		for class, budget := range w.classBudget {
			if over := w.classUsed[class] - budget; budget > 0 && over > worst {
				worst, worstClass = over, class
			}
		}
		if worstClass != "" {
			for el := w.lru.Back(); el != nil; el = el.Prev() {
				e := el.Value.(*cwEntry)
				if e != exclude && e.class == worstClass {
					victim = e
					break
				}
			}
		}
	}
	if victim == nil {
		for el := w.lru.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*cwEntry); e != exclude {
				victim = e
				break
			}
		}
	}
	if victim == nil {
		return "", false
	}
	w.lru.Remove(victim.elem)
	delete(w.entries, victim.key)
	w.used -= int64(len(victim.data))
	w.bumpClass(victim.class, -int64(len(victim.data)))
	w.evictions++
	if victim.class != "" {
		w.statsFor(victim.class).Evictions++
	}
	return victim.key, true
}

// SetClassBudget sets (or clears, with 0) one class's soft byte budget and
// returns the applied budget. Shrinks apply lazily: the class drains toward
// its new budget as stores need space, so no resident bytes are dropped
// before the space is actually wanted.
func (w *CacheWorker) SetClassBudget(class string, bytes int64) int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if bytes <= 0 {
		delete(w.classBudget, class)
		return 0
	}
	w.classBudget[class] = bytes
	return bytes
}

// ClassUsage reports one class's resident bytes and budget (0 = unset).
func (w *CacheWorker) ClassUsage(class string) (used, budget int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.classUsed[class], w.classBudget[class]
}

// Typed Append failures, mapped to HTTP statuses by the handler. A reject is
// never an error for the client's data — it just means the delta protocol's
// precondition failed and the caller should re-send the whole payload.
var (
	// errAppendMissing: the worker no longer holds the key (evicted or never
	// stored) — there is nothing to append to.
	errAppendMissing = errors.New("distserve: append target missing")
	// errAppendConflict: the stored payload is not the prefix the client
	// thinks it is (token count or checksum mismatch).
	errAppendConflict = errors.New("distserve: append prefix mismatch")
	// errAppendBadDelta: the delta payload itself is malformed (bad header,
	// wrong architecture, truncated frames).
	errAppendBadDelta = errors.New("distserve: malformed append delta")
)

// Append splices a suffix-token delta payload onto a stored entry, guarded by
// the prefix token count and checksum the client believes the worker holds.
// The merge happens at the wire level (model.AppendEncoded), so the result is
// byte-identical to a full PUT of the grown cache. Eviction makes room as a
// PUT of the merged size would, but never evicts the entry being appended to.
func (w *CacheWorker) Append(key string, from int, checksum uint64, delta []byte) error {
	dh, err := model.ParseWireHeader(delta)
	if err != nil || len(delta) != dh.PayloadSize() {
		w.mu.Lock()
		w.appendRejects++
		w.mu.Unlock()
		return errAppendBadDelta
	}
	w.mu.Lock()
	e, ok := w.entries[key]
	if !ok {
		w.misses++
		w.appendRejects++
		w.mu.Unlock()
		return errAppendMissing
	}
	sh, err := model.ParseWireHeader(e.data)
	if err != nil || sh.Tokens != from || model.ChecksumEncoded(e.data) != checksum {
		w.appendRejects++
		w.mu.Unlock()
		return errAppendConflict
	}
	merged, err := model.AppendEncoded(e.data, delta)
	if err != nil {
		w.appendRejects++
		w.mu.Unlock()
		return fmt.Errorf("%w: %v", errAppendBadDelta, err)
	}
	if int64(len(merged)) > w.capacity {
		w.appendRejects++
		w.mu.Unlock()
		return fmt.Errorf("distserve: merged payload %d bytes exceeds capacity %d", len(merged), w.capacity)
	}
	grow := int64(len(merged) - len(e.data))
	var victims []string
	for w.used+grow > w.capacity {
		k, ok := w.evictOneLocked(e)
		if !ok {
			break
		}
		victims = append(victims, k)
	}
	e.data = merged
	w.used += grow
	w.bumpClass(e.class, grow)
	w.lru.MoveToFront(e.elem)
	w.appends++
	hook := w.onEvict
	w.mu.Unlock()
	if hook != nil {
		for _, k := range victims {
			hook(k)
		}
	}
	return nil
}

type cwEntry struct {
	key   string
	class string // "user", "item", or "" (unparseable key)
	data  []byte
	elem  *list.Element
}

// NewCacheWorker builds a worker with the given byte budget.
func NewCacheWorker(capacityBytes int64) (*CacheWorker, error) {
	if capacityBytes <= 0 {
		return nil, fmt.Errorf("distserve: cache worker needs a positive capacity")
	}
	return &CacheWorker{
		capacity:    capacityBytes,
		entries:     make(map[string]*cwEntry),
		lru:         list.New(),
		classBudget: make(map[string]int64),
		classUsed:   make(map[string]int64),
		classStats:  make(map[string]*cwClassStats),
	}, nil
}

// SetEvictHook installs a callback invoked (outside the worker's lock) with
// each LRU-evicted key, so deployments can unregister evicted entries from
// the meta service instead of leaving stale location bindings behind.
func (w *CacheWorker) SetEvictHook(fn func(key string)) {
	w.mu.Lock()
	w.onEvict = fn
	w.mu.Unlock()
}

// Put stores (or replaces) a payload, evicting LRU entries to fit. Payloads
// larger than the whole budget are rejected.
func (w *CacheWorker) Put(key string, data []byte) error {
	w.mu.Lock()
	if int64(len(data)) > w.capacity {
		w.mu.Unlock()
		return fmt.Errorf("distserve: payload %d bytes exceeds capacity %d", len(data), w.capacity)
	}
	if old, ok := w.entries[key]; ok {
		w.used -= int64(len(old.data))
		w.bumpClass(old.class, -int64(len(old.data)))
		w.lru.Remove(old.elem)
		delete(w.entries, key)
	}
	var victims []string
	for w.used+int64(len(data)) > w.capacity {
		k, ok := w.evictOneLocked(nil)
		if !ok {
			break
		}
		victims = append(victims, k)
	}
	e := &cwEntry{key: key, class: classOf(key), data: data}
	e.elem = w.lru.PushFront(e)
	w.entries[key] = e
	w.used += int64(len(data))
	w.bumpClass(e.class, int64(len(data)))
	w.puts++
	hook := w.onEvict
	w.mu.Unlock()
	if hook != nil {
		for _, k := range victims {
			hook(k)
		}
	}
	return nil
}

// Get fetches a payload, refreshing recency.
func (w *CacheWorker) Get(key string) ([]byte, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	e, ok := w.entries[key]
	if !ok {
		w.misses++
		if class := classOf(key); class != "" {
			w.statsFor(class).Misses++
		}
		return nil, false
	}
	w.lru.MoveToFront(e.elem)
	w.hits++
	if e.class != "" {
		st := w.statsFor(e.class)
		st.Hits++
		st.HitBytes += int64(len(e.data))
	}
	return e.data, true
}

// Peek returns a payload without touching recency or hit/miss counters — the
// anti-entropy scrubber's HEAD probes must not keep cold entries warm.
func (w *CacheWorker) Peek(key string) ([]byte, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	e, ok := w.entries[key]
	if !ok {
		return nil, false
	}
	return e.data, true
}

// maxResidentIDs bounds a /v1/keys listing; beyond it the summary is a
// sample, which a bloom-hint consumer tolerates by design.
const maxResidentIDs = 65536

// ResidentIDs lists up to max resident entry IDs of the given kind
// (""=any), mirroring Peek's discipline: a map iteration only — no recency
// promotion, no hit/miss accounting — so a residency poll can never keep a
// cold entry warm or reorder eviction. Keys that fail to parse are skipped.
func (w *CacheWorker) ResidentIDs(kind string, max int) []uint64 {
	if max <= 0 || max > maxResidentIDs {
		max = maxResidentIDs
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]uint64, 0, len(w.entries))
	for k := range w.entries {
		ekind, id, err := ParseCacheKey(k)
		if err != nil || (kind != "" && ekind != kind) {
			continue
		}
		if len(out) >= max {
			break
		}
		out = append(out, id)
	}
	return out
}

// SetDraining flips the worker's drain state.
func (w *CacheWorker) SetDraining(v bool) {
	w.mu.Lock()
	w.draining = v
	w.mu.Unlock()
}

// Draining reports whether the worker is refusing stores.
func (w *CacheWorker) Draining() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.draining
}

// Delete removes a payload.
func (w *CacheWorker) Delete(key string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	e, ok := w.entries[key]
	if !ok {
		return false
	}
	w.lru.Remove(e.elem)
	delete(w.entries, key)
	w.used -= int64(len(e.data))
	w.bumpClass(e.class, -int64(len(e.data)))
	return true
}

// ResidentKeys is the GET /v1/keys payload: the worker's resident entry IDs
// for one kind.
type ResidentKeys struct {
	Kind string   `json:"kind"`
	IDs  []uint64 `json:"ids"`
}

// WorkerStats is the /stats payload.
type WorkerStats struct {
	Entries   int   `json:"entries"`
	UsedBytes int64 `json:"used_bytes"`
	Capacity  int64 `json:"capacity_bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Puts      int64 `json:"puts"`
	Evictions int64 `json:"evictions"`
	// Appends counts successful delta splices; AppendRejects counts PATCHes
	// refused (missing key, prefix mismatch, malformed delta, over capacity) —
	// each reject costs the client one full-PUT fallback.
	Appends       int64 `json:"appends"`
	AppendRejects int64 `json:"append_rejects"`
	// Draining mirrors the worker's drain state; Drains counts completed
	// drains and BulkStored entries accepted over /v1/bulk.
	Draining   bool  `json:"draining"`
	Drains     int64 `json:"drains"`
	BulkStored int64 `json:"bulk_stored"`
	// Classes breaks residency and traffic down by cache class when the
	// worker has seen classed keys (user/item), the partition controller's
	// per-worker signal.
	Classes map[string]WorkerClassStats `json:"classes,omitempty"`
}

// WorkerClassStats is one cache class's slice of WorkerStats.
type WorkerClassStats struct {
	UsedBytes   int64 `json:"used_bytes"`
	BudgetBytes int64 `json:"budget_bytes,omitempty"`
	Hits        int64 `json:"hits"`
	HitBytes    int64 `json:"hit_bytes"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
}

// Stats snapshots the worker.
func (w *CacheWorker) Stats() WorkerStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := WorkerStats{
		Entries: len(w.entries), UsedBytes: w.used, Capacity: w.capacity,
		Hits: w.hits, Misses: w.misses, Puts: w.puts, Evictions: w.evictions,
		Appends: w.appends, AppendRejects: w.appendRejects,
		Draining: w.draining, Drains: w.drains, BulkStored: w.bulkStored,
	}
	if len(w.classStats) > 0 || len(w.classUsed) > 0 {
		st.Classes = make(map[string]WorkerClassStats)
		for class, cs := range w.classStats {
			st.Classes[class] = WorkerClassStats{
				UsedBytes: w.classUsed[class], BudgetBytes: w.classBudget[class],
				Hits: cs.Hits, HitBytes: cs.HitBytes, Misses: cs.Misses, Evictions: cs.Evictions,
			}
		}
		for class, used := range w.classUsed {
			if _, ok := st.Classes[class]; !ok {
				st.Classes[class] = WorkerClassStats{UsedBytes: used, BudgetBytes: w.classBudget[class]}
			}
		}
	}
	return st
}

// readPayload buffers an upload body, preallocating from Content-Length and
// refusing anything past the worker's whole byte budget before it can balloon
// the heap (such a payload could never be stored anyway).
func (w *CacheWorker) readPayload(r *http.Request) ([]byte, error) {
	return readBodyCapped(r.Body, r.ContentLength, w.capacity)
}

// Handler exposes the worker:
//
//	PUT    /kv/{key}                 store payload (request body)
//	PATCH  /kv/{key}?from={tokens}   append suffix-token delta (X-KV-Checksum
//	                                 guards the stored prefix; 409 = re-PUT)
//	GET    /kv/{key}                 fetch payload (404 on miss)
//	HEAD   /kv/{key}                 token count + checksum probe (no LRU touch)
//	DELETE /kv/{key}
//	POST   /v1/bulk                  ingest a drain stream of framed entries
//	POST   /v1/drain                 drain this worker to peers (drain.go)
//	POST   /v1/resume                leave the draining state
//	GET    /v1/keys?kind=user        resident entry IDs (Peek discipline:
//	                                 no LRU touch, no counters)
//	GET    /stats
func (w *CacheWorker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/kv/", func(rw http.ResponseWriter, r *http.Request) {
		key := strings.TrimPrefix(r.URL.Path, "/kv/")
		if key == "" {
			http.Error(rw, "missing key", http.StatusBadRequest)
			return
		}
		switch r.Method {
		case http.MethodPut:
			if w.Draining() {
				http.Error(rw, "draining", http.StatusServiceUnavailable)
				return
			}
			data, err := w.readPayload(r)
			if errors.Is(err, errBodyOverCap) {
				http.Error(rw, err.Error(), http.StatusInsufficientStorage)
				return
			}
			if err != nil {
				http.Error(rw, err.Error(), http.StatusBadRequest)
				return
			}
			if err := w.Put(key, data); err != nil {
				http.Error(rw, err.Error(), http.StatusInsufficientStorage)
				return
			}
			rw.WriteHeader(http.StatusNoContent)
		case http.MethodPatch:
			if w.Draining() {
				http.Error(rw, "draining", http.StatusServiceUnavailable)
				return
			}
			from, err := strconv.Atoi(r.URL.Query().Get("from"))
			if err != nil || from <= 0 {
				http.Error(rw, "bad or missing from= token count", http.StatusBadRequest)
				return
			}
			checksum, err := strconv.ParseUint(r.Header.Get("X-KV-Checksum"), 16, 64)
			if err != nil {
				http.Error(rw, "bad or missing X-KV-Checksum header", http.StatusBadRequest)
				return
			}
			delta, err := w.readPayload(r)
			if err != nil {
				http.Error(rw, err.Error(), http.StatusBadRequest)
				return
			}
			switch err := w.Append(key, from, checksum, delta); {
			case err == nil:
				rw.WriteHeader(http.StatusNoContent)
			case errors.Is(err, errAppendMissing):
				http.Error(rw, err.Error(), http.StatusNotFound)
			case errors.Is(err, errAppendConflict):
				http.Error(rw, err.Error(), http.StatusConflict)
			case errors.Is(err, errAppendBadDelta):
				http.Error(rw, err.Error(), http.StatusBadRequest)
			default:
				http.Error(rw, err.Error(), http.StatusInsufficientStorage)
			}
		case http.MethodGet:
			data, ok := w.Get(key)
			if !ok {
				http.Error(rw, "miss", http.StatusNotFound)
				return
			}
			// A declared length sends the payload unchunked: the reader's
			// decoder, which stops at the last layer frame, then sits at the
			// body's end, and one more read confirms EOF and keeps the
			// connection (fetchCache).
			rw.Header().Set("Content-Type", "application/octet-stream")
			rw.Header().Set("Content-Length", strconv.Itoa(len(data)))
			if _, err := rw.Write(data); err != nil {
				return // client went away
			}
		case http.MethodHead:
			// Scrubber probe: token count + checksum without moving the body
			// or touching LRU recency.
			data, ok := w.Peek(key)
			if !ok {
				rw.WriteHeader(http.StatusNotFound)
				return
			}
			hdr, err := model.ParseWireHeader(data)
			if err != nil {
				rw.WriteHeader(http.StatusInternalServerError)
				return
			}
			rw.Header().Set(kvTokensHeader, strconv.Itoa(hdr.Tokens))
			rw.Header().Set(kvChecksumHeader, strconv.FormatUint(model.ChecksumEncoded(data), 16))
			rw.Header().Set("Content-Length", strconv.Itoa(len(data)))
			rw.WriteHeader(http.StatusOK)
		case http.MethodDelete:
			w.Delete(key)
			rw.WriteHeader(http.StatusNoContent)
		default:
			http.Error(rw, "unsupported method", http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc("/v1/bulk", w.handleBulk)
	mux.HandleFunc("/v1/drain", w.handleDrain)
	mux.HandleFunc("/v1/resume", w.handleResume)
	mux.HandleFunc("/v1/keys", func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		max, _ := strconv.Atoi(r.URL.Query().Get("max"))
		ids := w.ResidentIDs(r.URL.Query().Get("kind"), max)
		rw.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(rw).Encode(ResidentKeys{Kind: r.URL.Query().Get("kind"), IDs: ids}); err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/stats", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(rw).Encode(w.Stats()); err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(rw, "ok")
	})
	return mux
}

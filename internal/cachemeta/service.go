// Package cachemeta implements the cache meta service (§5.1): a logically
// centralized index of which KV cache worker holds each user/item entry,
// plus the sliding-window hotness estimator the hotness-aware prompt
// scheduler consults (§5.3).
//
// Hotness follows the paper's windowed-frequency design: each access bumps
// an exponentially-decayed counter whose time constant is the window length,
// so the estimate approximates "requests in the recent W seconds". The decay
// is applied lazily on read/update, matching the paper's asynchronous
// maintenance ("the cache meta service decays its sliding-window frequency
// estimate ... asynchronously").
package cachemeta

import (
	"math"
	"sort"

	"bat/internal/kvcache"
)

// WorkerID identifies a KV cache worker.
type WorkerID int

// freqState is one key's decayed access counter.
type freqState struct {
	count float64
	last  float64 // time of last decay application
}

// Service is the meta service. It is not safe for concurrent use; the
// discrete-event simulator and the single scheduler goroutine both access it
// sequentially, and the HTTP server wraps it in its own lock.
type Service struct {
	window float64
	index  map[kvcache.EntryKey]map[WorkerID]struct{}
	freq   map[kvcache.EntryKey]*freqState
}

// New returns a meta service with the given hotness window in seconds.
func New(windowSec float64) *Service {
	if windowSec <= 0 {
		windowSec = 300
	}
	return &Service{
		window: windowSec,
		index:  make(map[kvcache.EntryKey]map[WorkerID]struct{}),
		freq:   make(map[kvcache.EntryKey]*freqState),
	}
}

// Window returns the estimator window in seconds.
func (s *Service) Window() float64 { return s.window }

// Normalize converts a hotness estimate observed at time now into the
// time-independent form count·e^(now/W). Because every entry decays at the
// same exponential rate, normalized values compare correctly at any later
// time without touching stored state — this is how the paper's
// "asynchronously decayed" per-entry estimates stay orderable inside
// kvcache.Pool's min-hotness eviction heap, which the discrete-event
// simulator (internal/cluster) fills with normalized values. The exponent
// is clamped at 600 so traces hundreds of windows long cannot overflow;
// past 600 windows (50 h at the 300-s default window) every fresh value
// saturates at the same scale and the order is lost. OrderKey keeps the
// same order in log form with no clamp, which is why internal/server's
// resident-user heap is keyed by it.
func (s *Service) Normalize(hotness, now float64) float64 {
	e := now / s.window
	if e > 600 {
		e = 600
	}
	return hotness * math.Exp(e)
}

// OrderKey returns k's stored estimate in the time-independent log form
// ln(count) + last/W. The hotness at any time t ≥ last is e^(key − t/W), so
// keys order entries as their hotness does at every later time, and a key
// changes only when its entry is accessed. Unknown keys are cold (−Inf).
func (s *Service) OrderKey(k kvcache.EntryKey) float64 {
	st, ok := s.freq[k]
	if !ok {
		return math.Inf(-1)
	}
	return math.Log(st.count) + st.last/s.window
}

// RecordAccess notes an access to key at time now (seconds) and returns the
// refreshed hotness estimate.
func (s *Service) RecordAccess(k kvcache.EntryKey, now float64) float64 {
	st, ok := s.freq[k]
	if !ok {
		st = &freqState{last: now}
		s.freq[k] = st
	}
	st.count = st.count*s.decay(now-st.last) + 1
	st.last = now
	return st.count
}

// Hotness returns the decayed access estimate at time now without recording
// an access. Unknown keys are cold (0).
func (s *Service) Hotness(k kvcache.EntryKey, now float64) float64 {
	st, ok := s.freq[k]
	if !ok {
		return 0
	}
	return st.count * s.decay(now-st.last)
}

func (s *Service) decay(dt float64) float64 {
	if dt <= 0 {
		return 1
	}
	return math.Exp(-dt / s.window)
}

// RegisterEntry records that worker w holds key k's physical cache.
func (s *Service) RegisterEntry(k kvcache.EntryKey, w WorkerID) {
	locs, ok := s.index[k]
	if !ok {
		locs = make(map[WorkerID]struct{}, 1)
		s.index[k] = locs
	}
	locs[w] = struct{}{}
}

// UnregisterEntry removes worker w from key k's locations (eviction path).
// It reports whether a binding was actually removed, so callers can tell a
// stale-entry cleanup from a no-op.
func (s *Service) UnregisterEntry(k kvcache.EntryKey, w WorkerID) bool {
	locs, ok := s.index[k]
	if !ok {
		return false
	}
	if _, held := locs[w]; !held {
		return false
	}
	delete(locs, w)
	if len(locs) == 0 {
		delete(s.index, k)
	}
	return true
}

// UnregisterWorker removes every binding held by worker w in one sweep —
// the bulk cleanup path for a dead cache worker, instead of letting each of
// its keys rot until a per-key 404 cleans it lazily. It returns the affected
// keys (sorted by kind then ID) so the caller can rank them by hotness and
// re-replicate the hottest onto surviving workers.
func (s *Service) UnregisterWorker(w WorkerID) []kvcache.EntryKey {
	var keys []kvcache.EntryKey
	for k, locs := range s.index {
		if _, held := locs[w]; !held {
			continue
		}
		delete(locs, w)
		if len(locs) == 0 {
			delete(s.index, k)
		}
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Kind != keys[j].Kind {
			return keys[i].Kind < keys[j].Kind
		}
		return keys[i].ID < keys[j].ID
	})
	return keys
}

// Binding is one indexed entry with every worker bound to it.
type Binding struct {
	Key     kvcache.EntryKey
	Workers []WorkerID
}

// Bindings returns shard `shard` of `of` of the index, sorted by kind then
// ID, each entry's workers ascending. Sharding hashes the key (not insertion
// order), so an anti-entropy scrubber sweeping shards round-robin visits
// every entry exactly once per cycle regardless of churn between sweeps.
func (s *Service) Bindings(shard, of int) []Binding {
	if of <= 0 {
		of = 1
	}
	if shard < 0 {
		shard = 0
	}
	var out []Binding
	for k, locs := range s.index {
		if (k.ID*2+uint64(k.Kind))%uint64(of) != uint64(shard%of) {
			continue
		}
		ws := make([]WorkerID, 0, len(locs))
		for w := range locs {
			ws = append(ws, w)
		}
		sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
		out = append(out, Binding{Key: k, Workers: ws})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Kind != out[j].Key.Kind {
			return out[i].Key.Kind < out[j].Key.Kind
		}
		return out[i].Key.ID < out[j].Key.ID
	})
	return out
}

// HasEntry reports whether any worker holds k.
func (s *Service) HasEntry(k kvcache.EntryKey) bool { return len(s.index[k]) > 0 }

// Locations returns the workers holding k, in ascending ID order.
func (s *Service) Locations(k kvcache.EntryKey) []WorkerID {
	locs := s.index[k]
	if len(locs) == 0 {
		return nil
	}
	out := make([]WorkerID, 0, len(locs))
	for w := range locs {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PickLocation chooses a worker to serve k from, preferring the requester's
// local worker to avoid network transfer (the benefit HRCS replication buys).
func (s *Service) PickLocation(k kvcache.EntryKey, local WorkerID) (WorkerID, bool) {
	locs := s.index[k]
	if len(locs) == 0 {
		return 0, false
	}
	if _, ok := locs[local]; ok {
		return local, true
	}
	// Deterministic remote choice: lowest ID. With HRCS, remote reads only
	// happen for sharded (single-location) items anyway.
	best, found := WorkerID(0), false
	for w := range locs {
		if !found || w < best {
			best, found = w, true
		}
	}
	return best, found
}

// EntryCount returns the number of indexed keys.
func (s *Service) EntryCount() int { return len(s.index) }

// PruneCold drops frequency state colder than minHotness at time now,
// bounding estimator memory on long traces.
func (s *Service) PruneCold(now, minHotness float64) int {
	pruned := 0
	for k, st := range s.freq {
		if st.count*s.decay(now-st.last) < minHotness {
			delete(s.freq, k)
			pruned++
		}
	}
	return pruned
}

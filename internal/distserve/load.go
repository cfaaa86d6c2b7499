package distserve

// /v1/load: the cheap snapshot the routing tier polls to score frontends —
// live load (in-flight, queue depth against capacity) plus a bloom summary
// of the user caches resident in this frontend's slice of the KV pool, the
// input to the router's cache-affinity scorer.
//
// Residency is collected from the cache workers' GET /v1/keys listings,
// which follow Peek's discipline (map iteration, no LRU promotion, no
// hit/miss accounting), so a router polling /v1/load every few hundred
// milliseconds cannot keep cold entries warm or perturb eviction order.
// The folded summary is cached for LoadSummaryTTL so the poll stays O(1)
// between refreshes, and dropped as soon as a user store lands: a /v1/load
// served after a user's store reports that user. (The router replaces its
// optimistic additions with each polled summary, so a stale one would undo
// the routing decisions that placed those users.)

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"bat/internal/routing"
)

// defaultLoadSummaryTTL is how long a folded residency summary is served
// before the workers are re-polled.
const defaultLoadSummaryTTL = time.Second

// LoadSnapshot is the GET /v1/load payload.
type LoadSnapshot struct {
	// InFlight counts requests between admission and response; QueueDepth
	// the admission queue behind them. Max* are the configured capacities,
	// letting the router normalize load across heterogeneous frontends.
	InFlight    int `json:"in_flight"`
	QueueDepth  int `json:"queue_depth"`
	MaxInFlight int `json:"max_in_flight"`
	MaxQueue    int `json:"max_queue"`
	// Requests is the lifetime rank count (rate gauges diff it).
	Requests int64 `json:"requests"`
	// ResidentUsers counts user caches folded into Users, which is the
	// base64 bloom summary (routing.Summary) over routing.EntryHash("user",
	// id) keys. Empty when no worker listing succeeded.
	ResidentUsers int    `json:"resident_users"`
	Users         string `json:"users,omitempty"`
}

// loadSummaryTTL resolves the configured residency cache TTL.
func (f *Frontend) loadSummaryTTL() time.Duration {
	if f.cfg.LoadSummaryTTL != 0 {
		return f.cfg.LoadSummaryTTL
	}
	return defaultLoadSummaryTTL
}

// residencyChanged invalidates the cached residency summary after a user
// store lands.
func (f *Frontend) residencyChanged() {
	f.loadMu.Lock()
	f.loadGen++
	f.loadMu.Unlock()
}

// userResidency folds every live worker's resident user IDs into a bloom
// summary, caching the result for the TTL or until a user store lands.
// Workers that fail to answer are skipped: a partial summary only costs
// affinity hints, never correctness.
func (f *Frontend) userResidency() (*routing.Summary, int) {
	now := time.Now()
	f.loadMu.Lock()
	if f.loadSummary != nil && f.loadSumGen == f.loadGen && now.Sub(f.loadAt) < f.loadSummaryTTL() {
		s, n := f.loadSummary, f.loadUsers
		f.loadMu.Unlock()
		return s, n
	}
	// A store landing mid-fold may be missed by a worker already listed, so
	// the fold is valid only for the stores counted before it starts.
	gen := f.loadGen
	f.loadMu.Unlock()

	sum := routing.NewSummary(0)
	users := 0
	ctx, cancel := context.WithTimeout(context.Background(), f.cfg.Transfer.Timeout)
	defer cancel()
	for w, base := range f.cfg.CacheWorkers {
		f.mu.Lock()
		dead := !f.alive[w]
		f.mu.Unlock()
		if dead {
			continue
		}
		ids, err := fetchResidentIDs(ctx, f.cfg.Client, base, "user")
		if err != nil {
			continue
		}
		for _, id := range ids {
			sum.Add(routing.EntryHash("user", id))
			users++
		}
	}

	f.loadMu.Lock()
	f.loadSummary, f.loadUsers, f.loadAt, f.loadSumGen = sum, users, now, gen
	f.loadMu.Unlock()
	return sum, users
}

// fetchResidentIDs asks one worker for its resident IDs of a kind.
func fetchResidentIDs(ctx context.Context, client *http.Client, base, kind string) ([]uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/keys?kind="+url.QueryEscape(kind), nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("distserve: %s/v1/keys status %d", base, resp.StatusCode)
	}
	var keys ResidentKeys
	if err := json.NewDecoder(resp.Body).Decode(&keys); err != nil {
		return nil, err
	}
	routing.DrainBody(resp.Body)
	return keys.IDs, nil
}

// LoadSnapshot builds the /v1/load payload.
func (f *Frontend) LoadSnapshot() LoadSnapshot {
	adm := f.core.Admission().Stats()
	sum, users := f.userResidency()
	snap := LoadSnapshot{
		InFlight:      f.core.InFlight(),
		QueueDepth:    adm.QueueDepth,
		MaxInFlight:   adm.MaxInFlight,
		MaxQueue:      adm.MaxQueue,
		Requests:      f.core.Stats().Requests,
		ResidentUsers: users,
	}
	if sum != nil {
		snap.Users = sum.Encode()
	}
	return snap
}

func (f *Frontend) handleLoad(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(rw, f.LoadSnapshot())
}

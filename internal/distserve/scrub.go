package distserve

// Anti-entropy scrubber: the poolguard's background consistency loop for the
// replicated KV pool. Failure repair (poolguard.go) reacts to deaths it
// observes; the scrubber catches what reaction misses — replicas lost to
// eviction, entries stored before a replication-factor increase, copies that
// silently diverged, bindings pointing at workers that no longer hold the
// payload. Each tick sweeps one shard of the meta index, HEAD-probes every
// bound replica for its token count and FNV-1a checksum (no payload moves,
// no LRU touch), and repairs in two passes: divergent replicas are
// re-copied from the longest (most-token) copy, and under-replicated
// entries are raw-copied onto the workers the frontend's replica walk would
// choose. Repairs per sweep are capped so a cold start cannot flood the
// pool with copy traffic.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"bat/internal/routing"
)

// Scrubber defaults; overridable through PoolGuardConfig.
const (
	defaultScrubInterval   = 2 * time.Second
	defaultScrubShards     = 8
	defaultScrubMaxRepairs = 32
)

// scrubSweep is one sweep's classification summary.
type scrubSweep struct {
	checked, under, lost      int
	userEntries, userReplicas int
	itemEntries, itemReplicas int
}

// replicaProbe is one live replica's HEAD-probe result.
type replicaProbe struct {
	worker, tokens int
	sum            uint64
}

// scrubOnce sweeps the next shard of the meta index.
func (g *PoolGuard) scrubOnce() {
	shards := g.cfg.ScrubShards
	g.mu.Lock()
	shard := g.scrubShard
	g.scrubShard = (g.scrubShard + 1) % shards
	g.mu.Unlock()

	// A sweep gets two intervals of budget (floored at 2s) so a slow worker
	// cannot stall the guard's probe loop indefinitely.
	budget := 2 * g.cfg.ScrubInterval
	if budget < 2*time.Second {
		budget = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(g.ctx, budget)
	defer cancel()

	entries, err := g.f.metaBindings(ctx, shard, shards)
	if err != nil {
		return
	}
	rf := g.f.replication()
	want := rf
	if live := g.f.routableWorkers(); want > live {
		want = live
	}
	if want < 1 {
		want = 1
	}
	repairs := 0
	var sweep scrubSweep
	for _, e := range entries {
		if ctx.Err() != nil {
			break
		}
		sweep.checked++
		oks := g.probeReplicas(ctx, e)
		switch e.Kind {
		case "user":
			sweep.userEntries++
			sweep.userReplicas += len(oks)
		case "item":
			sweep.itemEntries++
			sweep.itemReplicas += len(oks)
		}
		if len(oks) == 0 {
			// No live worker holds the entry: the bindings were stale (each
			// 404 probe already unregistered its binding). The data is gone
			// from the pool — the next read recomputes and re-stores it.
			sweep.lost++
			continue
		}
		best := oks[0]
		for _, p := range oks[1:] {
			if p.tokens > best.tokens {
				best = p
			}
		}
		// Pass 1: re-copy divergent replicas from the best one. Longest copy
		// wins — a shorter or checksum-divergent replica is a stale prefix
		// left behind by a delta append that only reached the primary.
		for _, p := range oks {
			if p.worker == best.worker || (p.tokens == best.tokens && p.sum == best.sum) {
				continue
			}
			if repairs >= g.cfg.ScrubMaxRepairs {
				break
			}
			if g.f.replicateRaw(ctx, best.worker, p.worker, e.Kind, e.ID) {
				repairs++
				g.mu.Lock()
				g.scrubDivergent++
				g.scrubRepairs++
				g.mu.Unlock()
			}
		}
		// Pass 2: restore the replication factor by copying onto the workers
		// the frontend's own replica walk routes this entry to.
		if len(oks) < want {
			sweep.under++
			holders := make(map[int]bool, len(oks))
			for _, p := range oks {
				holders[p.worker] = true
			}
			for _, t := range g.f.replicaWorkers(routing.EntryHash(e.Kind, e.ID), rf) {
				if holders[t] || repairs >= g.cfg.ScrubMaxRepairs {
					continue
				}
				if g.f.replicateRaw(ctx, best.worker, t, e.Kind, e.ID) {
					repairs++
					g.mu.Lock()
					g.scrubRepairs++
					g.mu.Unlock()
				}
			}
		}
	}
	g.mu.Lock()
	g.scrubSweeps++
	g.lastSweep = sweep
	g.mu.Unlock()
}

// probeReplicas HEAD-checks each bound replica, skipping workers the guard
// knows are dead and unregistering bindings the worker no longer honors.
func (g *PoolGuard) probeReplicas(ctx context.Context, e BoundEntry) []replicaProbe {
	var oks []replicaProbe
	for _, w := range e.Workers {
		if w < 0 || w >= len(g.f.cfg.CacheWorkers) {
			continue
		}
		g.mu.Lock()
		dead := g.dead[w]
		g.mu.Unlock()
		if dead {
			continue
		}
		tokens, sum, status, err := g.kvProbe(ctx, w, e.Kind, e.ID)
		if err != nil {
			continue
		}
		if status == http.StatusNotFound {
			// The worker evicted (or never got) the entry; drop the stale
			// binding so reads stop being steered at it.
			g.f.metaUnregister(ctx, e.Kind, e.ID, w)
			continue
		}
		if status != http.StatusOK {
			continue
		}
		oks = append(oks, replicaProbe{worker: w, tokens: tokens, sum: sum})
	}
	return oks
}

// kvProbe issues one bounded HEAD for an entry's token count and checksum.
func (g *PoolGuard) kvProbe(ctx context.Context, worker int, kind string, id uint64) (tokens int, sum uint64, status int, err error) {
	pctx, cancel := context.WithTimeout(ctx, 4*g.cfg.ProbeTimeout)
	defer cancel()
	u := fmt.Sprintf("%s/kv/%s/%d", g.f.cfg.CacheWorkers[worker], kind, id)
	req, err := http.NewRequestWithContext(pctx, http.MethodHead, u, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	resp, err := g.f.cfg.Client.Do(req)
	if err != nil {
		return 0, 0, 0, err
	}
	routing.DrainBody(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, resp.StatusCode, nil
	}
	tokens, err = strconv.Atoi(resp.Header.Get(kvTokensHeader))
	if err != nil {
		return 0, 0, resp.StatusCode, err
	}
	sum, err = strconv.ParseUint(resp.Header.Get(kvChecksumHeader), 16, 64)
	if err != nil {
		return 0, 0, resp.StatusCode, err
	}
	return tokens, sum, resp.StatusCode, nil
}

// routableWorkers counts workers stores can currently route to (alive and
// not draining) — the bound on the achievable replication factor.
func (f *Frontend) routableWorkers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for i := range f.alive {
		if f.alive[i] && !f.draining[i] {
			n++
		}
	}
	return n
}

// metaBindings fetches one shard of the meta index through the transfer
// engine (retries, breaker) — the scrubber's view of what should exist.
func (f *Frontend) metaBindings(ctx context.Context, shard, shards int) ([]BoundEntry, error) {
	body, err := json.Marshal(BindingsRequest{Shard: shard, Shards: shards})
	if err != nil {
		return nil, err
	}
	status, respBody, err := f.transfer.send(ctx, f.transfer.metaTarget(), http.MethodPost,
		f.cfg.MetaURL+"/v1/bindings", "application/json", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("distserve: bindings returned status %d", status)
	}
	var resp BindingsResponse
	if err := json.Unmarshal(respBody, &resp); err != nil {
		return nil, err
	}
	return resp.Entries, nil
}

// replicateRaw copies one encoded entry worker-to-worker without decoding:
// a streaming GET from src relayed as a PUT to dst, registered in meta on
// success. This is the scrubber's repair primitive — no recompute, no
// buffering of the whole payload in the frontend.
func (f *Frontend) replicateRaw(ctx context.Context, src, dst int, kind string, id uint64) bool {
	if src == dst || src < 0 || dst < 0 ||
		src >= len(f.cfg.CacheWorkers) || dst >= len(f.cfg.CacheWorkers) {
		return false
	}
	u := fmt.Sprintf("%s/kv/%s/%d", f.cfg.CacheWorkers[src], kind, id)
	status, contentLength, body, _, err := f.transfer.getStream(ctx, src, u)
	if err != nil {
		return false
	}
	if status != http.StatusOK {
		body.Close()
		return false
	}
	putURL := fmt.Sprintf("%s/kv/%s/%d", f.cfg.CacheWorkers[dst], kind, id)
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, putURL, body)
	if err != nil {
		body.Close()
		return false
	}
	// The source's declared length passes through: the PUT goes out
	// unchunked, and the transport reads the source body to its EOF while
	// checking that length, so both connections stay warm.
	req.ContentLength = contentLength
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		// Client.Do closed the request body (our src stream) on its way out.
		return false
	}
	routing.DrainBody(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return false
	}
	f.countBytes("tx", kind, "full", contentLength)
	f.registerLocation(ctx, kind, id, dst)
	return true
}

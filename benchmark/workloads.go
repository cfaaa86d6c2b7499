package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"bat/internal/ranking"
	"bat/internal/scheduler"
	"bat/internal/serving"
	batworkload "bat/internal/workload"
)

// Dataset shape shared by every workload (ISSUE 12): 2 000 items in 8
// clusters, served by the PrefGR-Base constructed model.
const (
	datasetItems    = 2000
	datasetClusters = 8
	// streamLen requests are generated per workload at set-up; a run that
	// needs more wraps around. 32 Ki covers 30 s at 1 000 req/s.
	streamLen = 1 << 15
)

// userMix selects how a workload draws the user of request i.
type userMix int

const (
	// mixZipf draws every request's user from Zipf(zipfA) over all users.
	mixZipf userMix = iota
	// mixHotScan alternates a Zipf draw from the hotUsers most popular users
	// with a sequential one-shot scan over the rest.
	mixHotScan
	// mixCycle walks all users round-robin, so a cache smaller than the
	// population misses on every request.
	mixCycle
)

// workload is one traffic mix and the topology it runs against. Every knob
// the program exposes stays at its shipped default unless named here.
type workload struct {
	name string
	why  string

	// dist runs router → 2 cells (frontend + meta + 2 cache workers) over
	// loopback HTTP; otherwise one in-process server.Server.
	dist bool
	// open replaces the closed-loop HTTP clients with a fixed schedule of
	// burstSize simultaneous Server.RankCtx calls every burstEvery.
	open       bool
	burstSize  int
	burstEvery time.Duration

	users            int
	mix              userMix
	zipfA            float64
	hotUsers         int // mixHotScan only
	histMin, histMax int // user history length bounds, tokens
	cands            int // candidates per request
	itemTokens       int // tokens per candidate item

	// cellUserEntries sizes the dist cache workers so one cell holds about
	// this many mean-length user entries (0 = the 64 MiB default).
	cellUserEntries int
	// maxUserCaches and precomputeItems configure the local server.
	maxUserCaches   int
	precomputeItems bool
	// windowPolicy is the serving core's batch-window policy ("" = the
	// adaptive default). local_burst_batch names serving.WindowFixed: under
	// synchronized bursts the adaptive window has two regimes it flips between
	// within a run (batches of 1.3 with a 2.7 ms p50, or of 3.9 with 4.9 ms, same
	// seed and config; README.md), and a meter cannot rest on that.
	windowPolicy string
	policy       scheduler.Policy // nil = hotness-aware default

	// warm lists the popularity ranks ranked once during set-up: every user
	// that should be resident when measurement starts.
	warm func(w *workload) []int

	// sloMs is the fixed latency limit behind slo_attainment, set once at
	// about 2.5x the reference rank_p99_ms on the 2-core reference box.
	sloMs float64
}

func rankRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for r := lo; r < hi; r++ {
		out = append(out, r)
	}
	return out
}

// workloads is the suite, in reporting order.
var workloads = []*workload{
	{
		name: "dist_zipf_hit",
		why:  "reuse-heavy: ~95% of tokens come from the pool, so proxy hop, meta lookup, fetch, BKV2 decode and HTTP carry the latency",
		dist: true, users: 256, mix: mixZipf, zipfA: 1.1,
		histMin: 256, histMax: 512, cands: 8, itemTokens: 2,
		warm:  func(w *workload) []int { return rankRange(0, w.users) },
		sloMs: 14,
	},
	{
		name: "dist_scan_mix",
		why:  "churn beside reuse: half the requests scan one-shot users through a pool sized for 128, so stores, evictions and un-registers run while hot users are fetched",
		dist: true, users: 1024, mix: mixHotScan, zipfA: 1.1, hotUsers: 64,
		histMin: 128, histMax: 384, cands: 8, itemTokens: 2,
		cellUserEntries: 128,
		// The hot set, plus enough scan users to fill both cells so the very
		// first measured scan request already evicts.
		warm:  func(w *workload) []int { return append(rankRange(0, w.hotUsers), rankRange(w.users-256, w.users)...) },
		sloMs: 32,
	},
	{
		name:  "local_long_miss",
		why:   "engine-bound: 512 users cycle through 64 caches, so every request recomputes a 128-384 token prefix and ~95% of service time is the packed forward",
		users: 512, mix: mixCycle,
		histMin: 128, histMax: 384, cands: 32, itemTokens: 4,
		maxUserCaches: 64, policy: scheduler.StaticUser{},
		// The tail of the cycle fills the cache with users the run will not
		// ask for until every one of them has been evicted again.
		warm:  func(w *workload) []int { return rankRange(w.users-w.maxUserCaches, w.users) },
		sloMs: 45,
	},
	{
		name: "local_burst_batch",
		why:  "the only open loop and the only one with more than nproc requests in flight: each burst of 8 in-process calls packs into one batched forward, so planning 8 at once and ExecuteBatch set the latency",
		open: true, burstSize: 8, burstEvery: 8 * time.Millisecond,
		users: 512, mix: mixZipf, zipfA: 1.1,
		histMin: 32, histMax: 96, cands: 16, itemTokens: 3,
		maxUserCaches: 256, precomputeItems: true, windowPolicy: serving.WindowFixed,
		warm:  func(w *workload) []int { return rankRange(0, w.maxUserCaches) },
		sloMs: 17,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// histLen is the history length of the user at popularity rank r. It is a
// low-discrepancy sequence over [histMin, histMax], independent of the seed:
// the seed decides who is popular and what their tokens are, not how much
// work the popular users carry, so the mean request size — and with it every
// timing — is the same on every seed.
func (w *workload) histLen(r int) int {
	const golden = 0.6180339887498949
	frac := math.Mod(float64(r+1)*golden, 1)
	return w.histMin + int(frac*float64(w.histMax-w.histMin+1))
}

// meanHistLen is the request-weighted mean user history length, used to size
// the scan-mix cache workers and the probes.
func (w *workload) meanHistLen() int {
	sum := 0
	for r := 0; r < w.users; r++ {
		sum += w.histLen(r)
	}
	return sum / w.users
}

// stream is one workload's generated input: the dataset and the request
// sequence replayed against the program. The program sees only these.
type stream struct {
	ds *ranking.Dataset
	// userOfRank maps a popularity rank to a dataset user ID.
	userOfRank []int
	reqs       []serving.RankRequest
	bodies     [][]byte // reqs as /v1/rank JSON bodies
}

// newStream derives a workload's dataset and request stream from the seed:
// the same seed gives byte-identical bodies, another seed other users, items
// and order.
func newStream(w *workload, seed int64, n int) (*stream, error) {
	hard := 4
	if hard >= w.cands {
		hard = w.cands - 1
	}
	ds, err := ranking.NewDataset(ranking.DatasetConfig{
		Name: w.name, Items: datasetItems, Users: w.users, Clusters: datasetClusters, LatentDim: 8,
		HistoryMin: w.histMax, HistoryMax: w.histMax, ItemAttrTokens: w.itemTokens - 1,
		ClusterNoise: 0.15, Candidates: w.cands, HardNegatives: hard, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x62656e6368)) // "bench"
	s := &stream{ds: ds, userOfRank: rng.Perm(w.users)}
	for r, u := range s.userOfRank {
		ds.UserHistory[u] = ds.UserHistory[u][:w.histLen(r)]
	}
	itemOfRank := rng.Perm(datasetItems)
	itemZipf := batworkload.NewZipf(datasetItems, 1.0)
	var userZipf *batworkload.Zipf
	switch w.mix {
	case mixZipf:
		userZipf = batworkload.NewZipf(w.users, w.zipfA)
	case mixHotScan:
		userZipf = batworkload.NewZipf(w.hotUsers, w.zipfA)
	}
	scan := w.hotUsers
	s.reqs = make([]serving.RankRequest, n)
	s.bodies = make([][]byte, n)
	for i := range s.reqs {
		var r int
		switch {
		case w.mix == mixCycle:
			r = i % w.users
		case w.mix == mixHotScan && i%2 == 1:
			r = scan
			if scan++; scan == w.users {
				scan = w.hotUsers
			}
		default:
			r = userZipf.Rank(rng.Float64()) - 1
		}
		s.reqs[i] = serving.RankRequest{UserID: s.userOfRank[r], CandidateIDs: s.candidates(rng, itemZipf, itemOfRank, w.cands)}
		if s.bodies[i], err = json.Marshal(s.reqs[i]); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// candidates draws distinct Zipf(1.0)-popular items.
func (s *stream) candidates(rng *rand.Rand, z *batworkload.Zipf, itemOfRank []int, n int) []int {
	out := make([]int, 0, n)
	seen := make(map[int]bool, n)
	for len(out) < n {
		it := itemOfRank[z.Rank(rng.Float64())-1]
		if !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	return out
}

// warmRequests are the set-up requests that make every user in w.warm
// resident; their candidates come from the stream so item caches warm too.
func (s *stream) warmRequests(w *workload) []serving.RankRequest {
	ranks := w.warm(w)
	out := make([]serving.RankRequest, len(ranks))
	for i, r := range ranks {
		out[i] = serving.RankRequest{UserID: s.userOfRank[r], CandidateIDs: s.reqs[i%len(s.reqs)].CandidateIDs}
	}
	return out
}

package server

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"bat/internal/bipartite"
	"bat/internal/ranking"
	"bat/internal/scheduler"
)

// expectedRanking computes the reference ranking for a request straight
// through the ranker — the per-request path the batched pipeline must match
// bit-for-bit (cold caches; cache state never changes scores, only cost).
func expectedRanking(t *testing.T, ds *ranking.Dataset, kind string, req RankRequest, topK int) []int {
	t.Helper()
	r, err := ranking.NewRanker(ds, ranking.VariantBase)
	if err != nil {
		t.Fatal(err)
	}
	ranked, _, err := r.Rank(ranking.EvalRequest{User: req.UserID, Candidates: req.CandidateIDs}, mustKind(t, kind), ranking.RankOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) > topK {
		ranked = ranked[:topK]
	}
	ids := make([]int, len(ranked))
	for i, idx := range ranked {
		ids[i] = req.CandidateIDs[idx]
	}
	return ids
}

func mustKind(t *testing.T, kind string) bipartite.PrefixKind {
	t.Helper()
	switch kind {
	case "user-as-prefix":
		return bipartite.UserPrefix
	case "item-as-prefix":
		return bipartite.ItemPrefix
	}
	t.Fatalf("unknown kind %q", kind)
	return bipartite.UserPrefix
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestServerParallelRankBitIdentical: N requests fired concurrently — so
// the batch loop coalesces them into packed multi-request executions — must
// return exactly the rankings the per-request path produces. Run under
// -race this also proves the read-locked plan / in-place commit split is clean.
func TestServerParallelRankBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy scheduler.Policy
		kind   string
	}{
		{"user-as-prefix", scheduler.StaticUser{}, "user-as-prefix"},
		{"item-as-prefix", scheduler.StaticItem{}, "item-as-prefix"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, func(cfg *Config) {
				cfg.Policy = tc.policy
				cfg.MaxBatch = 8
				cfg.BatchWindow = 20 * time.Millisecond
			})
			defer s.Close()

			const n = 24
			reqs := make([]RankRequest, n)
			for i := range reqs {
				reqs[i] = RankRequest{
					UserID:       i % 5,
					CandidateIDs: []int{1 + i%3, 7, 12 + i%4, 3, 19},
				}
			}
			want := make([][]int, n)
			for i, req := range reqs {
				want[i] = expectedRanking(t, s.cfg.Dataset, tc.kind, req, 10)
			}

			got := make([][]int, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := range reqs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					resp, err := s.RankCtx(context.Background(), reqs[i])
					if err != nil {
						errs[i] = err
						return
					}
					got[i] = resp.Ranking
				}(i)
			}
			wg.Wait()
			for i := range reqs {
				if errs[i] != nil {
					t.Fatalf("request %d: %v", i, errs[i])
				}
				if !equalInts(got[i], want[i]) {
					t.Fatalf("request %d ranking %v, want %v (batched != per-request)", i, got[i], want[i])
				}
			}
			// The window actually coalesced: fewer batches than requests.
			st := s.core.Stats()
			if st.Batches >= int64(n) {
				t.Logf("no coalescing observed (%d batches for %d requests) — timing-dependent, not a failure", st.Batches, n)
			}
			if st.MaxBatchSize > 8 {
				t.Fatalf("batch size %d exceeds MaxBatch", st.MaxBatchSize)
			}
		})
	}
}

// TestServerChaosMixedBatches mixes full serves, already-expired deadlines,
// and degraded serves concurrently against one server: expired requests
// must fail without poisoning the batch, full serves must still be
// bit-identical to the per-request path, and the degraded fallback must run
// alongside without touching model state.
func TestServerChaosMixedBatches(t *testing.T) {
	s := newTestServer(t, func(cfg *Config) {
		cfg.Policy = scheduler.StaticUser{}
		cfg.MaxBatch = 6
		cfg.BatchWindow = 10 * time.Millisecond
	})
	defer s.Close()

	const n = 30
	var wg sync.WaitGroup
	fullErrs := make([]error, n)
	fullGot := make([][]int, n)
	fullWant := make([][]int, n)
	expiredOK := make([]bool, n)
	degradedErrs := make([]error, n)

	for i := 0; i < n; i++ {
		req := RankRequest{UserID: i % 5, CandidateIDs: []int{1 + i%3, 7, 12, 3}}
		switch i % 3 {
		case 0: // full serve
			fullWant[i] = expectedRanking(t, s.cfg.Dataset, "user-as-prefix", req, 10)
			wg.Add(1)
			go func(i int, req RankRequest) {
				defer wg.Done()
				resp, err := s.RankCtx(context.Background(), req)
				if err != nil {
					fullErrs[i] = err
					return
				}
				fullGot[i] = resp.Ranking
			}(i, req)
		case 1: // deadline already gone when (or shortly after) it enqueues
			wg.Add(1)
			go func(i int, req RankRequest) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
				defer cancel()
				_, err := s.RankCtx(ctx, req)
				// Expired requests must error; the rare one that sneaks
				// through before expiry must still be well-formed.
				expiredOK[i] = err != nil
			}(i, req)
		case 2: // degraded fallback racing the batch loop
			wg.Add(1)
			go func(i int, req RankRequest) {
				defer wg.Done()
				resp, err := s.core.RankDegraded(req, "chaos")
				if err != nil {
					degradedErrs[i] = err
					return
				}
				if !resp.Degraded || resp.DegradeReason != "chaos" {
					degradedErrs[i] = fmt.Errorf("degraded response not tagged: %+v", resp)
				}
			}(i, req)
		}
	}
	wg.Wait()

	expired := 0
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			if fullErrs[i] != nil {
				t.Fatalf("full request %d: %v", i, fullErrs[i])
			}
			if !equalInts(fullGot[i], fullWant[i]) {
				t.Fatalf("full request %d ranking %v, want %v", i, fullGot[i], fullWant[i])
			}
		case 1:
			if expiredOK[i] {
				expired++
			}
		case 2:
			if degradedErrs[i] != nil {
				t.Fatalf("degraded request %d: %v", i, degradedErrs[i])
			}
		}
	}
	if expired == 0 {
		t.Fatal("no expired-deadline request errored; chaos mix did not exercise cancellation")
	}

	// The server is still healthy: a fresh request serves cleanly.
	resp, err := s.Rank(RankRequest{UserID: 2, CandidateIDs: []int{5, 9, 13}})
	if err != nil || resp.Degraded {
		t.Fatalf("post-chaos serve: resp %+v err %v", resp, err)
	}
}

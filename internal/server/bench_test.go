package server

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bat/internal/model"
	"bat/internal/ranking"
	"bat/internal/scheduler"
	"bat/internal/serving"
)

// BenchmarkServeBatched measures end-to-end request throughput through the
// serving core at max-batch 1 (the serialized baseline: every request is its
// own execution), 4, and 16, with a concurrent client pool deep enough to
// keep the batch window fed. Rankings are bit-identical across sub-benchmarks
// — only throughput moves. Batching end to end is metered by the benchmark's
// local_burst_batch workload.
func BenchmarkServeBatched(b *testing.B) {
	ds, err := ranking.NewDataset(ranking.DatasetConfig{
		Name: "bench", Items: 120, Users: 40, Clusters: 6, LatentDim: 8,
		HistoryMin: 6, HistoryMax: 12, ItemAttrTokens: 1,
		ClusterNoise: 0.15, Candidates: 10, HardNegatives: 2, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	const traceLen = 256
	trace := make([]RankRequest, traceLen)
	for i := range trace {
		cands := make([]int, 6)
		for j := range cands {
			cands[j] = rng.Intn(120)
		}
		trace[i] = RankRequest{UserID: rng.Intn(40), CandidateIDs: cands}
	}

	for _, mb := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("maxbatch=%d", mb), func(b *testing.B) {
			s, err := New(Config{
				Dataset: ds, Variant: ranking.VariantBase,
				Policy:   scheduler.StaticUser{},
				MaxBatch: mb, BatchWindow: 2 * time.Millisecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Rank(trace[0]); err != nil {
				b.Fatal(err)
			}

			const clients = 16
			b.ResetTimer()
			var next int64 = -1
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := atomic.AddInt64(&next, 1)
						if i >= int64(b.N) {
							return
						}
						if _, err := s.RankCtx(context.Background(), trace[i%traceLen]); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(s.Stats().AvgBatchSize, "reqs/batch")
		})
	}
}

// BenchmarkLocalPlanCommit measures the local pool's own work per batch on
// local_burst_batch's shape: 256 resident users and 2,000 precomputed items,
// one op being 8 plans (a burst) plus one commit that admits a new user,
// evicting the coldest. No forward runs; the caches are placeholders.
func BenchmarkLocalPlanCommit(b *testing.B) {
	const residents, items, burst = 256, 2000, 8
	ds, err := ranking.NewDataset(ranking.DatasetConfig{
		Name: "bench", Items: items, Users: 4 * residents, Clusters: 8, LatentDim: 8,
		HistoryMin: 32, HistoryMax: 96, ItemAttrTokens: 2,
		ClusterNoise: 0.15, Candidates: 16, HardNegatives: 2, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Dataset: ds, MaxUserCaches: residents, HotnessWindowSec: 300, Policy: scheduler.HotnessAware{}, Now: time.Now}
	be := newLocalBackend(&cfg)
	for i := 0; i < items; i++ {
		be.items[i] = &model.KVCache{}
		be.itemLRU = append(be.itemLRU, i)
	}
	var warm []serving.CommitEntry
	for u := 0; u < residents; u++ {
		be.meta.RecordAccess(userEntry(u), 0)
		warm = append(warm, admitEntry(u, u))
	}
	be.Commit(warm)

	rng := rand.New(rand.NewSource(9))
	reqs := make([]RankRequest, 1024)
	for i := range reqs {
		cands := make([]int, 16)
		for j := range cands {
			cands[j] = rng.Intn(items)
		}
		reqs[i] = RankRequest{UserID: rng.Intn(residents), CandidateIDs: cands}
	}
	ctx := context.Background()
	next := residents
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			if _, err := be.Plan(ctx, reqs[(i*burst+j)%len(reqs)]); err != nil {
				b.Fatal(err)
			}
		}
		// The newcomer was just planned, as an admitted user always is.
		be.metaMu.Lock()
		be.meta.RecordAccess(userEntry(next%len(ds.UserHistory)), cfg.Now().Sub(be.start).Seconds())
		be.metaMu.Unlock()
		be.Commit([]serving.CommitEntry{admitEntry(next%len(ds.UserHistory), next%items)})
		next++
	}
}

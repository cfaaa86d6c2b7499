package experiments

import (
	"math/rand"
	"testing"

	"bat/internal/bipartite"
	"bat/internal/model"
	"bat/internal/ranking"
	"bat/internal/serving"
	"bat/internal/tensor"
)

// benchBatch builds the serving bench's model and a batch of warm
// UserPrefix requests, the steady-state unit the serving core packs.
func benchBatch(b *testing.B, n int) (*ranking.Ranker, []bipartite.BatchItem) {
	b.Helper()
	ds, err := ranking.NewDataset(ranking.DatasetConfig{
		Name: "packedbench", Items: 120, Users: 40, Clusters: 6, LatentDim: 8,
		HistoryMin: 6, HistoryMax: 12, ItemAttrTokens: 1,
		ClusterNoise: 0.15, Candidates: 10, HardNegatives: 2, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	r, err := ranking.NewRanker(ds, ranking.VariantBase)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	items := make([]bipartite.BatchItem, n)
	for i := range items {
		cands := make([]int, 6)
		for j := range cands {
			cands[j] = rng.Intn(120)
		}
		req := ranking.EvalRequest{User: i % 40, Candidates: cands}
		l, err := r.BuildLayout(req, bipartite.UserPrefix, false)
		if err != nil {
			b.Fatal(err)
		}
		user := model.NewKVCache(r.W.Config())
		r.W.Forward(l.Tokens[:l.PrefixLen], l.Pos[:l.PrefixLen], l.Mask(), user)
		items[i] = bipartite.BatchItem{Layout: l, Caches: bipartite.CacheSet{User: user}}
	}
	return r, items
}

// benchBatchMiss is benchBatch in the churn regime: no user caches, so every
// item is a user-prefix miss the executor must recompute — the steady state
// the serving bench's cycling trace produces.
func benchBatchMiss(b *testing.B, n int) (*ranking.Ranker, []bipartite.BatchItem) {
	b.Helper()
	r, items := benchBatch(b, n)
	miss := make([]bipartite.BatchItem, n)
	for i, it := range items {
		miss[i] = bipartite.BatchItem{Layout: it.Layout}
	}
	return r, miss
}

// BenchmarkExecuteBatchOfOneMiss8 runs the eight cold requests as eight
// batches of one (Execute); BenchmarkExecutePackedMiss8 packs them into one.
func BenchmarkExecuteBatchOfOneMiss8(b *testing.B) {
	defer tensor.SetParallelism(0)
	tensor.SetParallelism(1)
	r, items := benchBatchMiss(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, it := range items {
			if _, err := bipartite.Execute(r.W, it.Layout, it.Caches); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkExecutePackedMiss8(b *testing.B) {
	defer tensor.SetParallelism(0)
	tensor.SetParallelism(1)
	r, items := benchBatchMiss(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bipartite.ExecuteBatch(r.W, items); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteBatchOfOneWarm8 is BenchmarkExecuteBatchOfOneMiss8 with every
// user prefix served from cache; BenchmarkExecutePackedWarm8 packs them.
func BenchmarkExecuteBatchOfOneWarm8(b *testing.B) {
	defer tensor.SetParallelism(0)
	tensor.SetParallelism(1)
	r, items := benchBatch(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, it := range items {
			if _, err := bipartite.Execute(r.W, it.Layout, it.Caches); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkExecutePackedWarm8(b *testing.B) {
	defer tensor.SetParallelism(0)
	tensor.SetParallelism(1)
	r, items := benchBatch(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bipartite.ExecuteBatch(r.W, items); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = serving.Config{} // keep import if unused in future edits

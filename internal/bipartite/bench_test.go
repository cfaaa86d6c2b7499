package bipartite

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"bat/internal/model"
	"bat/internal/tensor"
)

// TestExecuteAllMissMatchesWarm: an ItemPrefix Execute with every item cache
// missing — the misses recomputed in one packed forward — must produce
// bit-identical hidden states to one fed fully precomputed caches, at any
// pool width, and account every token as computed.
func TestExecuteAllMissMatchesWarm(t *testing.T) {
	defer tensor.SetParallelism(0)
	w := testWeights()
	rng := rand.New(rand.NewSource(8))
	p := testPrompt(rng, 6, 5, 4, 2)
	l, err := Build(ItemPrefix, p)
	if err != nil {
		t.Fatal(err)
	}

	warm := make(map[int]*model.KVCache, len(p.Items))
	for i, it := range p.Items {
		warm[i] = ComputeItemCache(w, it)
	}
	hit, err := Execute(w, l, CacheSet{Items: warm})
	if err != nil {
		t.Fatal(err)
	}

	for _, width := range []int{1, 4} {
		tensor.SetParallelism(width)
		miss, err := Execute(w, l, CacheSet{})
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxAbsDiff(miss.Hidden.Data, hit.Hidden.Data); d != 0 {
			t.Fatalf("width %d: all-miss Execute deviates from warm-cache run by %v", width, d)
		}
		if miss.ComputedTokens != l.Len() || miss.ReusedTokens != 0 {
			t.Fatalf("width %d: miss accounting computed=%d reused=%d, want %d/0",
				width, miss.ComputedTokens, miss.ReusedTokens, l.Len())
		}
		if len(miss.NewItemCaches) != len(p.Items) {
			t.Fatalf("width %d: %d new item caches, want %d", width, len(miss.NewItemCaches), len(p.Items))
		}
		for i := range p.Items {
			if miss.NewItemCaches[i].Len() != len(p.Items[i]) {
				t.Fatalf("width %d: item %d cache covers %d tokens, want %d",
					width, i, miss.NewItemCaches[i].Len(), len(p.Items[i]))
			}
		}
	}
}

// TestExecuteConcurrentCallers runs Execute from many goroutines over shared
// weights and a shared warm cache map — the cache-worker serving pattern.
// With -race this is the package's data-race gate for the pooled paths.
func TestExecuteConcurrentCallers(t *testing.T) {
	tensor.SetParallelism(4)
	defer tensor.SetParallelism(0)
	w := testWeights()
	rng := rand.New(rand.NewSource(9))
	p := testPrompt(rng, 6, 4, 3, 2)
	l, err := Build(ItemPrefix, p)
	if err != nil {
		t.Fatal(err)
	}
	warm := map[int]*model.KVCache{0: ComputeItemCache(w, p.Items[0])}
	want, err := Execute(w, l, CacheSet{Items: warm})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run, err := Execute(w, l, CacheSet{Items: warm})
			if err != nil {
				errs <- err
				return
			}
			if d := tensor.MaxAbsDiff(run.Hidden.Data, want.Hidden.Data); d != 0 {
				errs <- fmt.Errorf("concurrent Execute deviates by %v", d)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// benchExecute measures one ItemPrefix Execute. warm=true serves every item
// segment from a precomputed cache (steady-state serving); warm=false
// recomputes all of them (cold start / cache-pool miss storm).
func benchExecute(b *testing.B, warm bool) {
	cfg := model.BenchGR(testVocab)
	w := model.NewWeights(cfg, 42)
	rng := rand.New(rand.NewSource(1))
	p := testPrompt(rng, 32, 8, 16, 4)
	l, err := Build(ItemPrefix, p)
	if err != nil {
		b.Fatal(err)
	}
	caches := CacheSet{}
	if warm {
		caches.Items = make(map[int]*model.KVCache, len(p.Items))
		for i, it := range p.Items {
			caches.Items[i] = ComputeItemCache(w, it)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(w, l, caches); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(l.Len())*float64(b.N)/b.Elapsed().Seconds(), "tokens/sec")
}

// BenchmarkBipartiteExecute is the serving-path micro-benchmark: an
// Item-as-prefix request with all candidate caches warm.
func BenchmarkBipartiteExecute(b *testing.B) { benchExecute(b, true) }

// BenchmarkBipartiteExecuteCold is the same request with every item cache
// missing, exercising the packed miss recompute.
func BenchmarkBipartiteExecuteCold(b *testing.B) { benchExecute(b, false) }

package model

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"testing"

	"bat/internal/tensor"
)

// engineConfigs is the bit-equivalence test matrix: every attention family
// and position scheme the engine serves.
func engineConfigs() []Config {
	gqa := TinyGR(128) // Heads=4, KVHeads=2: grouped-query attention
	mha := TinyGR(128)
	mha.Name = "TinyGR-MHA"
	mha.KVHeads = mha.Heads // multi-head: every query head owns its KV
	hstu := tinyHSTU(128)
	abs := TinyGRAbsPos(128, 256)
	bench := BenchGR(128)
	bench.Layers = 2 // keep the matrix fast; the shape is what matters
	return []Config{gqa, mha, hstu, abs, bench}
}

// engineMasks pairs each config with the mask shapes Bipartite Attention
// actually issues: plain causal, and a segmented custom mask.
func engineMasks() map[string]Mask {
	return map[string]Mask{
		"causal": nil,
		"segmented": MaskFunc(func(q, k int) bool {
			// Three isolated segments followed by tokens that see everything
			// — the Item-as-prefix shape.
			if q < 24 {
				return q/8 == k/8
			}
			return true
		}),
	}
}

// TestForwardMatchesReferenceBitExact is the engine's core guarantee: the
// batched multi-core path produces bit-identical hidden states
// (MaxAbsDiff == 0) to the retained token-at-a-time reference, for every
// config in the matrix, under causal and custom masks, at several batch
// splits, and the caches it leaves behind serve suffixes identically.
func TestForwardMatchesReferenceBitExact(t *testing.T) {
	for _, cfg := range engineConfigs() {
		for maskName, mask := range engineMasks() {
			t.Run(cfg.Name+"/"+maskName, func(t *testing.T) {
				w := NewWeights(cfg, 17)
				rng := rand.New(rand.NewSource(99))
				const n = 32
				toks := randTokens(rng, n, cfg.Vocab)
				pos := seqPos(n)

				refCache := NewKVCache(cfg)
				ref := w.ForwardReference(toks, pos, mask, refCache)

				for _, split := range []int{0, 1, 7, 16, n - 1} {
					cache := NewKVCache(cfg)
					var got []float32
					if split > 0 {
						head := w.Forward(toks[:split], pos[:split], mask, cache)
						got = append(got, head.Data...)
					}
					tail := w.Forward(toks[split:], pos[split:], mask, cache)
					got = append(got, tail.Data...)
					if d := tensor.MaxAbsDiff(got, ref.Data); d != 0 {
						t.Fatalf("split %d: batched engine deviates from reference by %v", split, d)
					}
					if cache.Len() != refCache.Len() {
						t.Fatalf("split %d: cache len %d, reference %d", split, cache.Len(), refCache.Len())
					}
				}

				// The batched cache must serve a fresh suffix exactly like
				// the reference cache.
				sufToks := randTokens(rng, 5, cfg.Vocab)
				sufPos := []int{n, n + 1, n + 2, n + 3, n + 4}
				batched := NewKVCache(cfg)
				w.Forward(toks, pos, mask, batched)
				s1 := w.Forward(sufToks, sufPos, mask, batched)
				s2 := w.ForwardReference(sufToks, sufPos, mask, refCache)
				if d := tensor.MaxAbsDiff(s1.Data, s2.Data); d != 0 {
					t.Fatalf("suffix over batched cache deviates by %v", d)
				}
			})
		}
	}
}

// TestForwardDeterministicAcrossPoolWidths pins the GOMAXPROCS=1 vs N
// guarantee: the same call produces the same bits at any pool width.
func TestForwardDeterministicAcrossPoolWidths(t *testing.T) {
	defer tensor.SetParallelism(0)
	for _, cfg := range engineConfigs() {
		w := NewWeights(cfg, 23)
		rng := rand.New(rand.NewSource(7))
		toks := randTokens(rng, 48, cfg.Vocab)
		pos := seqPos(48)

		tensor.SetParallelism(1)
		serial := w.Forward(toks, pos, nil, NewKVCache(cfg))
		for _, width := range []int{2, 4, 8} {
			tensor.SetParallelism(width)
			parallel := w.Forward(toks, pos, nil, NewKVCache(cfg))
			if d := tensor.MaxAbsDiff(serial.Data, parallel.Data); d != 0 {
				t.Fatalf("%s: width %d deviates from width 1 by %v", cfg.Name, width, d)
			}
		}
	}
}

// TestConcurrentForwardSharedWeights exercises the worker pool from many
// simultaneous Forward callers over one Weights value — the serving
// pattern — and checks every caller still gets reference-exact bits. Run
// with -race, this is the engine's data-race gate.
func TestConcurrentForwardSharedWeights(t *testing.T) {
	tensor.SetParallelism(4)
	defer tensor.SetParallelism(0)
	cfg := TinyGR(128)
	w := NewWeights(cfg, 31)
	rng := rand.New(rand.NewSource(3))
	const n = 40
	toks := randTokens(rng, n, cfg.Vocab)
	pos := seqPos(n)
	want := w.ForwardReference(toks, pos, nil, NewKVCache(cfg))

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := w.Forward(toks, pos, nil, NewKVCache(cfg))
			if d := tensor.MaxAbsDiff(h.Data, want.Data); d != 0 {
				errs <- fmt.Errorf("concurrent Forward deviates by %v", d)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestForwardAllocsHoisted is the allocation regression gate for the
// per-token k/v hoist: the batched engine allocates per call (embeddings,
// one scratch set, cache growth), not per token per layer. The seed engine
// paid 2 slice allocations per token per layer for k/v alone — 128 for
// this shape — before any scratch.
func TestForwardAllocsHoisted(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomly drops sync.Pool buffers; counts are not meaningful")
	}
	// Two things made this count depend on what ran before it. The worker
	// pool's width: run alone, the pool was first sized inside AllocsPerRun
	// (which sets GOMAXPROCS to 1), so every kernel ran inline; after any test
	// that had sized it, each pooled kernel call also allocated its job — 51
	// objects against 61. And a collection empties the score and mask pools,
	// whose refills count against whichever window it lands in. Pin both.
	tensor.SetParallelism(2)
	t.Cleanup(func() { tensor.SetParallelism(0) })
	gc := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(gc) })
	cfg := TinyGR(64) // 2 layers
	w := NewWeights(cfg, 5)
	rng := rand.New(rand.NewSource(13))
	allocsAt := func(n int) float64 {
		toks, pos := randTokens(rng, n, cfg.Vocab), seqPos(n)
		return testing.AllocsPerRun(20, func() {
			w.Forward(toks, pos, nil, NewKVCache(cfg))
		})
	}
	a32, a64, a128 := allocsAt(32), allocsAt(64), allocsAt(128)
	t.Logf("allocations per Forward: %.0f at n=32, %.0f at n=64, %.0f at n=128", a32, a64, a128)
	// What is protected: allocations per call do not scale with tokens. From
	// 32 to 64 tokens four more kernels cross their pool thresholds (a
	// dispatch closure or two and a job each; measured +14); past that the
	// count is flat. The seed engine's per-token buffers would add 128, then
	// 256.
	if a64 > a32+20 || a128 > a64+2 {
		t.Errorf("allocations scale with tokens: %.0f at n=32, %.0f at n=64, %.0f at n=128", a32, a64, a128)
	}
	// Measured 47: fresh cache + reserve (8), result matrix (2), pool dispatch
	// (2-3 per pooled kernel call, attention's included). The scratch set
	// comes from fwdPool, and the attention tasks allocate nothing; a scratch
	// set allocated per call would add 17.
	if a32 > 48 {
		t.Errorf("Forward allocated %.0f objects for 32 tokens; per-token buffers have crept back in", a32)
	}
}

func benchForward(b *testing.B, reference bool, n int) {
	cfg := BenchGR(1024)
	w := NewWeights(cfg, 1)
	fwd := w.Forward
	if reference {
		fwd = w.ForwardReference
	}
	rng := rand.New(rand.NewSource(1))
	toks := randTokens(rng, n, cfg.Vocab)
	pos := seqPos(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fwd(toks, pos, nil, NewKVCache(cfg))
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "tokens/sec")
}

// BenchmarkPrefill measures batched prefill throughput on the paper-scale
// test config (256-token prompt), reported as tokens/sec; end to end the
// engine is metered by the benchmark's local_long_miss workload.
func BenchmarkPrefill(b *testing.B) { benchForward(b, false, 256) }

// BenchmarkPrefillReference is the seed engine on the same workload; the
// Prefill/PrefillReference ratio is the engine speedup.
func BenchmarkPrefillReference(b *testing.B) { benchForward(b, true, 256) }

// BenchmarkDecode measures single-token extension of a 256-token context —
// the per-step cost the decode phase pays.
func BenchmarkDecode(b *testing.B) {
	cfg := BenchGR(1024)
	w := NewWeights(cfg, 1)
	rng := rand.New(rand.NewSource(1))
	toks := randTokens(rng, 256, cfg.Vocab)
	pos := seqPos(256)
	cache := NewKVCache(cfg)
	w.Forward(toks, pos, nil, cache)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Forward([]int{i % cfg.Vocab}, []int{256}, nil, cache)
		cache.Truncate(256)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tokens/sec")
}

// servedGR is the shape the serving planes run today (ranking.BuildModel): one
// layer, one head of 32, FFN 4 — attention over the prefix is nearly all of
// its forward pass.
func servedGR(vocab int) Config {
	return Config{Name: "ServedGR", Layers: 1, Heads: 1, KVHeads: 1, HeadDim: 32, Hidden: 32, FFNDim: 4, Vocab: vocab}
}

// BenchmarkAttendServed times the attention layer alone — 128 suffix queries
// over a 384-token cached prefix, causal, one core — and reports its
// multiply-add rate (score + mix, 2 per visible key per head dimension), to
// be read against tensor.BenchmarkScalarMAC's ceiling on the same machine.
func BenchmarkAttendServed(b *testing.B) {
	for _, cfg := range []Config{servedGR(256), BenchGR(256)} {
		b.Run(cfg.Name, func(b *testing.B) {
			tensor.SetParallelism(1)
			defer tensor.SetParallelism(0)
			const base, n = 384, 128
			w := NewWeights(cfg, 1)
			rng := rand.New(rand.NewSource(1))
			cache := NewKVCache(cfg)
			w.Forward(randTokens(rng, base+n, cfg.Vocab), seqPos(base+n), nil, cache)
			s := new(fwdBuf).carve(cfg, n, n, false)
			for i := range s.q.Data {
				s.q.Data[i] = float32(rng.NormFloat64())
			}
			var vis visibility
			vis.lower(CausalMask{}, base, n, nil)
			macs := 0
			for i := 0; i < n; i++ {
				macs += 2 * (base + i + 1) * cfg.HeadDim * cfg.Heads
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.attend(s, cache, 0, base, n, &vis)
			}
			b.ReportMetric(float64(macs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MMAC/s")
		})
	}
}

package model

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bat/internal/tensor"
)

// sameBits reports whether a and b hold the same float32 bit patterns, which
// unlike MaxAbsDiff == 0 also tells -0 from +0.
func sameBits(a, b []float32) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// visibleRuns run-length encodes allowed over the causal keys of q: the exact
// ranges an ExactKeyRanger must advertise.
func visibleRuns(allowed func(q, k int) bool, q int) [][2]int {
	var runs [][2]int
	for k := 0; k <= q; k++ {
		if k != q && !allowed(q, k) {
			continue
		}
		if n := len(runs); n > 0 && runs[n-1][1] == k {
			runs[n-1][1]++
		} else {
			runs = append(runs, [2]int{k, k + 1})
		}
	}
	return runs
}

// exactMask serves a mask function through ExactKeyRanger alone.
type exactMask func(q, k int) bool

func (m exactMask) Allowed(q, k int) bool { return m(q, k) }
func (m exactMask) ExactKeyRanges(q int, dst [][2]int) [][2]int {
	runs := visibleRuns(m, q)
	runs[len(runs)-1][1] += 5 // ranges may run past q; the engine clamps
	return append(dst, runs...)
}

// maskForms returns one mask function in the two forms the engine lowers:
// plain (every causal key asked) and exact.
func maskForms(allowed func(q, k int) bool) map[string]Mask {
	return map[string]Mask{
		"plain": MaskFunc(allowed),
		"exact": exactMask(allowed),
	}
}

// partedContext rebuilds c as the view ConcatCaches assembles from copies of
// its tokens in parts of the given size, with room for extra more tokens:
// attention ranges over it straddle the parts' boundaries.
func partedContext(c *KVCache, part, extra int) *KVCache {
	var parts []*KVCache
	for lo := 0; lo < c.Len(); lo += part {
		parts = append(parts, c.CopyRange(lo, min(lo+part, c.Len())))
	}
	return ConcatCachesReserve(extra, parts...)
}

// kernelConfigs covers the head layouts and weight functions the tiled
// kernels serve: GQA 4:1 (four query heads share one KV row), MHA (a head is
// a slice of a wider KV row), and HSTU's pointwise weights.
func kernelConfigs() []Config {
	gqa := TinyGR(64)
	gqa.Name, gqa.KVHeads = "TinyGR-GQA4", 1
	mha := TinyGR(64)
	mha.Name, mha.KVHeads = "TinyGR-MHA", mha.Heads
	return []Config{gqa, mha, tinyHSTU(64)}
}

// TestAttendTilesAndStoresBitExact drives the range-fed attention kernels
// across every tile edge: windows of 1-7 keys ending at the query (range
// lengths 0-3 mod the tile, starting at every alignment) behind an optional
// 3-key global prefix (a second range), in each lowered mask form, with no
// cache and over a cached prefix — contiguous, or a view ConcatCaches
// assembles from parts of 3 or 4 tokens whose boundaries the ranges
// straddle. All must equal the reference engine bit for bit.
func TestAttendTilesAndStoresBitExact(t *testing.T) {
	const n, split = 21, 10
	for _, cfg := range kernelConfigs() {
		w := NewWeights(cfg, 41)
		rng := rand.New(rand.NewSource(42))
		toks, pos := randTokens(rng, n, cfg.Vocab), seqPos(n)
		for _, global := range []int{0, 3} {
			for window := 1; window <= 7; window++ {
				allowed := func(q, k int) bool { return k < global || k > q-window }
				want := w.ForwardReference(toks, pos, MaskFunc(allowed), NewKVCache(cfg))
				for form, mask := range maskForms(allowed) {
					name := fmt.Sprintf("%s global=%d window=%d %s", cfg.Name, global, window, form)
					if got := w.Forward(toks, pos, mask, NewKVCache(cfg)); !sameBits(got.Data, want.Data) {
						t.Fatalf("%s: deviates from reference by %v", name, tensor.MaxAbsDiff(got.Data, want.Data))
					}
					for _, part := range []int{0, 3, 4} {
						cache := NewKVCache(cfg)
						got := append([]float32(nil), w.Forward(toks[:split], pos[:split], mask, cache).Data...)
						if part > 0 {
							cache = partedContext(cache, part, n-split)
						}
						got = append(got, w.Forward(toks[split:], pos[split:], mask, cache).Data...)
						if !sameBits(got, want.Data) {
							t.Fatalf("%s over a cached prefix in parts of %d: deviates from reference by %v", name, part, tensor.MaxAbsDiff(got, want.Data))
						}
						cache.Release()
					}
				}
			}
		}
	}
}

// TestAttendZeroWeightsMidTileBitExact saturates the softmax: with the query
// and key projections scaled up, score gaps exceed the ~104 at which
// float32(exp(x-max)) underflows, so most weights are exactly 0 and sit in
// the same tile as non-zero ones — the value mix's row-at-a-time fallback.
// The test first proves its own premise by recomputing one head's layer-0
// weights, then checks the engine still equals the reference bit for bit
// (signed zeros included).
func TestAttendZeroWeightsMidTileBitExact(t *testing.T) {
	cfg := TinyGR(64)
	w := NewWeights(cfg, 43)
	for l := range w.layers {
		tensor.Scale(w.layers[l].wq.Data, 8)
		tensor.Scale(w.layers[l].wk.Data, 8)
	}
	rng := rand.New(rand.NewSource(44))
	const n = 24
	toks, pos := randTokens(rng, n, cfg.Vocab), seqPos(n)
	cache := NewKVCache(cfg)
	got := w.Forward(toks, pos, nil, cache)

	// Layer-0, head-0 weights of the last query, from the cached keys.
	normed := make([]float32, cfg.Hidden)
	q := make([]float32, cfg.Heads*cfg.HeadDim)
	tensor.RMSNorm(normed, w.embed.Row(toks[n-1]), w.layers[0].attnNorm, cfg.eps())
	vecMatInto(q, normed, w.layers[0].wq)
	w.rope.Rotate(q[:cfg.HeadDim], pos[n-1])
	weights := make([]float32, n)
	for k := range weights {
		weights[k] = tensor.Dot(q[:cfg.HeadDim], cache.layerK(0, k, 0)) / float32(math.Sqrt(float64(cfg.HeadDim)))
	}
	tensor.Softmax(weights)
	mixed := false
	for k := 0; k+4 <= n && !mixed; k += 4 {
		zeros := 0
		for _, p := range weights[k : k+4] {
			if p == 0 {
				zeros++
			}
		}
		mixed = zeros > 0 && zeros < 4
	}
	if !mixed {
		t.Fatalf("premise: no tile of the last query mixes zero and non-zero weights: %v", weights)
	}

	want := w.ForwardReference(toks, pos, nil, NewKVCache(cfg))
	if !sameBits(got.Data, want.Data) {
		t.Fatalf("saturated softmax deviates from reference by %v", tensor.MaxAbsDiff(got.Data, want.Data))
	}
}

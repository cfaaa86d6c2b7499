package model

import (
	"math/rand"
	"testing"

	"bat/internal/tensor"
)

func tinyWeights(t testing.TB, vocab int) *Weights {
	t.Helper()
	return NewWeights(TinyGR(vocab), 7)
}

func seqPos(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func randTokens(rng *rand.Rand, n, vocab int) []int {
	toks := make([]int, n)
	for i := range toks {
		toks[i] = rng.Intn(vocab)
	}
	return toks
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"valid", func(c *Config) {}, true},
		{"zero layers", func(c *Config) { c.Layers = 0 }, false},
		{"heads not multiple of kv", func(c *Config) { c.Heads = 3 }, false},
		{"odd head dim", func(c *Config) { c.HeadDim = 7 }, false},
		{"abs pos without max", func(c *Config) { c.AbsPos = true; c.MaxPos = 0 }, false},
		{"zero vocab", func(c *Config) { c.Vocab = 0 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := TinyGR(100)
			tc.mut(&c)
			err := c.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

func TestKVBytesPerTokenMatchesTable2(t *testing.T) {
	// Table 2 of the paper.
	want := map[string]int{
		"Qwen2-1.5B": 28672,
		"Qwen2-7B":   57344,
		"Llama3-1B":  32768,
	}
	for _, cfg := range PaperModels() {
		if got := cfg.KVBytesPerToken(); got != want[cfg.Name] {
			t.Errorf("%s: KV bytes/token = %d, want %d", cfg.Name, got, want[cfg.Name])
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: invalid paper config: %v", cfg.Name, err)
		}
	}
}

func TestWeightsDeterministicBySeed(t *testing.T) {
	a := NewWeights(TinyGR(64), 3)
	b := NewWeights(TinyGR(64), 3)
	c := NewWeights(TinyGR(64), 4)
	toks := []int{1, 2, 3, 4}
	ha := a.Forward(toks, seqPos(4), nil, nil)
	hb := b.Forward(toks, seqPos(4), nil, nil)
	hc := c.Forward(toks, seqPos(4), nil, nil)
	if tensor.MaxAbsDiff(ha.Data, hb.Data) != 0 {
		t.Fatal("same seed must give identical outputs")
	}
	if tensor.MaxAbsDiff(ha.Data, hc.Data) == 0 {
		t.Fatal("different seeds should give different outputs")
	}
}

// TestPrefixCacheEquivalence is the paper's correctness premise for prefix
// caching (§3.2): computing a suffix against a cached prefix must equal
// recomputing the full sequence.
func TestPrefixCacheEquivalence(t *testing.T) {
	w := tinyWeights(t, 128)
	rng := rand.New(rand.NewSource(11))
	toks := randTokens(rng, 24, 128)
	pos := seqPos(24)

	full := w.Forward(toks, pos, nil, NewKVCache(w.Config()))

	for _, split := range []int{1, 8, 23} {
		cache := NewKVCache(w.Config())
		w.Forward(toks[:split], pos[:split], nil, cache)
		suffix := w.Forward(toks[split:], pos[split:], nil, cache)
		want := full.Data[split*w.Config().Hidden:]
		if d := tensor.MaxAbsDiff(suffix.Data, want); d != 0 {
			t.Errorf("split %d: cached suffix deviates from full recompute by %v", split, d)
		}
		if cache.Len() != len(toks) {
			t.Errorf("split %d: cache length %d, want %d", split, cache.Len(), len(toks))
		}
	}
}

// TestCausality: a token's hidden state must not depend on later tokens.
func TestCausality(t *testing.T) {
	w := tinyWeights(t, 128)
	rng := rand.New(rand.NewSource(5))
	toks := randTokens(rng, 10, 128)
	h1 := w.Forward(toks, seqPos(10), nil, nil)

	toks2 := append([]int(nil), toks...)
	toks2[9] = (toks2[9] + 1) % 128
	h2 := w.Forward(toks2, seqPos(10), nil, nil)

	hidden := w.Config().Hidden
	if d := tensor.MaxAbsDiff(h1.Data[:9*hidden], h2.Data[:9*hidden]); d != 0 {
		t.Fatalf("changing the last token changed earlier states by %v", d)
	}
	if tensor.MaxAbsDiff(h1.Row(9), h2.Row(9)) == 0 {
		t.Fatal("changing the last token should change its own state")
	}
}

// TestMaskBlocksInfluence: a fully-masked-out token must not affect others.
func TestMaskBlocksInfluence(t *testing.T) {
	w := tinyWeights(t, 128)
	rng := rand.New(rand.NewSource(9))
	toks := randTokens(rng, 8, 128)
	// Block every edge into token index 3.
	mask := MaskFunc(func(q, k int) bool { return k != 3 })

	h1 := w.Forward(toks, seqPos(8), mask, nil)
	toks2 := append([]int(nil), toks...)
	toks2[3] = (toks2[3] + 1) % 128
	h2 := w.Forward(toks2, seqPos(8), mask, nil)

	hidden := w.Config().Hidden
	for i := 0; i < 8; i++ {
		if i == 3 {
			continue
		}
		if d := tensor.MaxAbsDiff(h1.Data[i*hidden:(i+1)*hidden], h2.Data[i*hidden:(i+1)*hidden]); d != 0 {
			t.Fatalf("masked token influenced token %d by %v", i, d)
		}
	}
}

func TestSelfAttentionAlwaysAllowed(t *testing.T) {
	w := tinyWeights(t, 64)
	// A mask that blocks everything still leaves the self edge, so the
	// forward pass must produce finite outputs.
	mask := MaskFunc(func(q, k int) bool { return false })
	h := w.Forward([]int{1, 2, 3}, seqPos(3), mask, nil)
	for _, v := range h.Data {
		if v != v { // NaN check
			t.Fatal("NaN in output under all-blocking mask")
		}
	}
}

func TestForwardPanicsOnBadToken(t *testing.T) {
	w := tinyWeights(t, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-vocab token")
		}
	}()
	w.Forward([]int{16}, []int{0}, nil, nil)
}

func TestForwardPanicsOnLenMismatch(t *testing.T) {
	w := tinyWeights(t, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for len mismatch")
		}
	}()
	w.Forward([]int{1, 2}, []int{0}, nil, nil)
}

func TestCacheTruncateThenRecompute(t *testing.T) {
	w := tinyWeights(t, 128)
	rng := rand.New(rand.NewSource(21))
	toks := randTokens(rng, 12, 128)
	pos := seqPos(12)

	cache := NewKVCache(w.Config())
	w.Forward(toks, pos, nil, cache)
	first := w.Forward(toks[8:], pos[8:], nil, mustTrunc(cache, 8))
	// Truncate back to 8 and recompute the same suffix: identical result.
	again := w.Forward(toks[8:], pos[8:], nil, mustTrunc(cache, 8))
	if tensor.MaxAbsDiff(first.Data, again.Data) != 0 {
		t.Fatal("truncate+recompute should be deterministic")
	}
	if cache.Len() != 12 {
		t.Fatalf("cache length %d after recompute, want 12", cache.Len())
	}
}

func mustTrunc(c *KVCache, n int) *KVCache {
	c.Truncate(n)
	return c
}

func TestCacheTruncatePanicsOutOfRange(t *testing.T) {
	c := NewKVCache(TinyGR(16))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Truncate(1)
}

func TestCacheCloneIndependent(t *testing.T) {
	w := tinyWeights(t, 64)
	cache := NewKVCache(w.Config())
	w.Forward([]int{1, 2, 3}, seqPos(3), nil, cache)
	clone := cache.Clone()
	w.Forward([]int{4}, []int{3}, nil, cache)
	if clone.Len() != 3 || cache.Len() != 4 {
		t.Fatalf("clone len %d / cache len %d", clone.Len(), cache.Len())
	}
}

// TestConcatCachesEquivalence: computing two independent segments (each
// blind to the other) then concatenating their caches must equal computing
// both segments in one pass under a mask that separates them — the algebra
// Item-as-prefix assembly relies on.
func TestConcatCachesEquivalence(t *testing.T) {
	w := tinyWeights(t, 128)
	rng := rand.New(rand.NewSource(33))
	segA := randTokens(rng, 5, 128)
	segB := randTokens(rng, 6, 128)

	// Independent computation: each segment with local positions 0..len-1.
	ca := NewKVCache(w.Config())
	w.Forward(segA, seqPos(5), nil, ca)
	cb := NewKVCache(w.Config())
	w.Forward(segB, seqPos(6), nil, cb)
	merged := ConcatCaches(ca, cb)
	if merged.Len() != 11 {
		t.Fatalf("merged cache len %d, want 11", merged.Len())
	}

	// Joint computation with a block-diagonal mask and shared start positions.
	joint := append(append([]int(nil), segA...), segB...)
	pos := append(seqPos(5), seqPos(6)...)
	mask := MaskFunc(func(q, k int) bool {
		return (q < 5) == (k < 5) // tokens only see their own segment
	})
	cj := NewKVCache(w.Config())
	w.Forward(joint, pos, mask, cj)

	// The merged cache must now serve a suffix exactly like the joint cache.
	suffix := []int{7, 8, 9}
	spos := []int{11, 12, 13}
	h1 := w.Forward(suffix, spos, nil, merged)
	h2 := w.Forward(suffix, spos, nil, cj)
	if d := tensor.MaxAbsDiff(h1.Data, h2.Data); d > 1e-5 {
		t.Fatalf("suffix over concatenated caches deviates by %v", d)
	}
}

func TestConcatCachesRejectsMismatchedArch(t *testing.T) {
	a := NewKVCache(TinyGR(16))
	b := NewKVCache(TinyGRAbsPos(16, 8))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched architectures")
		}
	}()
	ConcatCaches(a, b)
}

func TestLogitsForMatchesFullLogits(t *testing.T) {
	w := tinyWeights(t, 64)
	h := w.Forward([]int{1, 2, 3}, seqPos(3), nil, nil)
	last := h.Row(2)
	full := w.Logits(last)
	ids := []int{5, 0, 63}
	sub := w.LogitsFor(last, ids)
	for i, id := range ids {
		if sub[i] != full[id] {
			t.Fatalf("LogitsFor[%d] = %v, full[%d] = %v", i, sub[i], id, full[id])
		}
	}
}

func TestSetEmbeddingRoundTrip(t *testing.T) {
	w := tinyWeights(t, 32)
	vec := make([]float32, w.Config().Hidden)
	vec[0] = 42
	w.SetEmbedding(7, vec)
	got := w.Embedding(7)
	if got[0] != 42 {
		t.Fatalf("embedding not set: %v", got[0])
	}
	// Embedding returns a copy.
	got[0] = 0
	if w.Embedding(7)[0] != 42 {
		t.Fatal("Embedding must return a copy")
	}
}

func TestAbsPosMakesModelPositionSensitive(t *testing.T) {
	cfg := TinyGRAbsPos(64, 100)
	w := NewWeights(cfg, 7)
	toks := []int{3, 4, 5}
	h1 := w.Forward(toks, []int{0, 1, 2}, nil, nil)
	h2 := w.Forward(toks, []int{10, 11, 12}, nil, nil)
	if tensor.MaxAbsDiff(h1.Data, h2.Data) == 0 {
		t.Fatal("AbsPos model should be sensitive to absolute position shifts")
	}
}

// TestRoPEOnlyModelShiftInvariantAttention: without AbsPos, shifting all
// positions by a constant must leave hidden states unchanged, because RoPE
// attention depends only on relative offsets. This is the property that lets
// Item-as-prefix reposition segments safely.
func TestRoPEShiftInvariance(t *testing.T) {
	w := tinyWeights(t, 64)
	toks := []int{3, 9, 27, 14}
	h1 := w.Forward(toks, []int{0, 1, 2, 3}, nil, nil)
	h2 := w.Forward(toks, []int{50, 51, 52, 53}, nil, nil)
	if d := tensor.MaxAbsDiff(h1.Data, h2.Data); d > 2e-5 {
		t.Fatalf("RoPE-only model not shift invariant: deviates by %v", d)
	}
}

func BenchmarkForwardTiny256(b *testing.B) {
	w := NewWeights(TinyGR(512), 1)
	rng := rand.New(rand.NewSource(1))
	toks := randTokens(rng, 256, 512)
	pos := seqPos(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Forward(toks, pos, nil, NewKVCache(w.Config()))
	}
}

func BenchmarkForwardSuffixWithPrefix(b *testing.B) {
	w := NewWeights(TinyGR(512), 1)
	rng := rand.New(rand.NewSource(1))
	toks := randTokens(rng, 256, 512)
	pos := seqPos(256)
	prefix := NewKVCache(w.Config())
	w.Forward(toks[:224], pos[:224], nil, prefix)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := prefix.Clone()
		w.Forward(toks[224:], pos[224:], nil, c)
	}
}

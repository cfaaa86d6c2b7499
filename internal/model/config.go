// Package model implements a decoder-only transformer inference engine in
// pure Go: grouped-query attention with rotary position embeddings and
// arbitrary additive attention masks, RMSNorm, a SwiGLU feed-forward network,
// and a reusable KV cache supporting prefix concatenation.
//
// It plays the role vLLM + FlashInfer play in the paper: the substrate on
// which Bipartite Attention (internal/bipartite) is executed and validated.
// The paper's model architectures (Table 2) are available as descriptors for
// KV-cache sizing and the cost model; actual forward passes run on small
// configurations whose attention algebra is identical.
package model

import "fmt"

// AttnKind selects the attention weighting function.
type AttnKind uint8

const (
	// AttnSoftmax is standard scaled-dot-product attention (LLM-style GRs).
	AttnSoftmax AttnKind = iota
	// AttnHSTU is HSTU-style pointwise aggregated attention: per-key weights
	// are SiLU(q·k) normalized by the visible context size instead of a
	// softmax. The paper sketches extending Bipartite Attention to HSTU
	// (§4.2); this variant lets the mask/position machinery be validated on
	// that family.
	AttnHSTU
)

// Config describes a decoder-only transformer architecture.
type Config struct {
	Name    string
	Attn    AttnKind
	Layers  int // number of transformer blocks (L)
	Heads   int // query heads per layer
	KVHeads int // key/value heads per layer (H in the paper's KV size formula)
	HeadDim int // dimension per head (D)
	Hidden  int // model width; Heads*HeadDim for the paper's models
	FFNDim  int // SwiGLU intermediate width
	Vocab   int // vocabulary size

	RopeBase float64 // rotary embedding frequency base (0 means 10000)
	Eps      float32 // RMSNorm epsilon (0 means 1e-5)

	// AbsPos adds a learned absolute position embedding to token embeddings.
	// The paper's Table 3 observes that models with strong absolute position
	// bias degrade under Item-as-prefix; this flag builds such a model.
	AbsPos bool
	// MaxPos bounds position IDs when AbsPos is set.
	MaxPos int
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Layers <= 0:
		return fmt.Errorf("model: %s: Layers must be positive", c.Name)
	case c.Heads <= 0 || c.KVHeads <= 0:
		return fmt.Errorf("model: %s: head counts must be positive", c.Name)
	case c.Heads%c.KVHeads != 0:
		return fmt.Errorf("model: %s: Heads (%d) must be a multiple of KVHeads (%d)", c.Name, c.Heads, c.KVHeads)
	case c.HeadDim <= 0 || c.HeadDim%2 != 0:
		return fmt.Errorf("model: %s: HeadDim must be positive and even for RoPE", c.Name)
	case c.Hidden <= 0 || c.FFNDim <= 0 || c.Vocab <= 0:
		return fmt.Errorf("model: %s: Hidden/FFNDim/Vocab must be positive", c.Name)
	case c.AbsPos && c.MaxPos <= 0:
		return fmt.Errorf("model: %s: AbsPos requires MaxPos", c.Name)
	}
	return nil
}

func (c Config) ropeBase() float64 {
	if c.RopeBase == 0 {
		return 10000
	}
	return c.RopeBase
}

func (c Config) eps() float32 {
	if c.Eps == 0 {
		return 1e-5
	}
	return c.Eps
}

// KVBytesPerToken returns the per-token KV cache footprint in bytes in FP16:
// 2 (K and V) * KVHeads * HeadDim * Layers * sizeof(FP16), the formula from
// §3.3.2 and Table 2 of the paper.
func (c Config) KVBytesPerToken() int {
	return 2 * c.KVHeads * c.HeadDim * c.Layers * 2
}

// Paper model architectures (Table 2). These are sizing descriptors for the
// KV cache pool and cost model; their weights are never materialized.
var (
	Qwen2_1_5B = Config{
		Name: "Qwen2-1.5B", Layers: 28, Heads: 12, KVHeads: 2, HeadDim: 128,
		Hidden: 1536, FFNDim: 8960, Vocab: 151936,
	}
	Qwen2_7B = Config{
		Name: "Qwen2-7B", Layers: 28, Heads: 28, KVHeads: 4, HeadDim: 128,
		Hidden: 3584, FFNDim: 18944, Vocab: 152064,
	}
	Llama3_1B = Config{
		Name: "Llama3-1B", Layers: 16, Heads: 32, KVHeads: 8, HeadDim: 64,
		Hidden: 2048, FFNDim: 8192, Vocab: 128256,
	}
)

// PaperModels lists the three architectures evaluated throughout the paper.
func PaperModels() []Config { return []Config{Qwen2_1_5B, Qwen2_7B, Llama3_1B} }

// TinyGR returns a small, fully-executable GR configuration used by tests,
// examples, and the accuracy experiments. vocab must cover every token ID the
// caller will feed (item identifier tokens plus attribute tokens).
func TinyGR(vocab int) Config {
	return Config{
		Name: "TinyGR", Layers: 2, Heads: 4, KVHeads: 2, HeadDim: 8,
		Hidden: 32, FFNDim: 64, Vocab: vocab,
	}
}

// BenchGR returns the engine-benchmark configuration: shaped like the
// paper's models (GQA with a 4:1 head ratio, 4x FFN expansion, RoPE) but
// sized so a 256-token prefill is tractable in pure Go. BenchmarkPrefill
// and BenchmarkDecode run on it.
func BenchGR(vocab int) Config {
	return Config{
		Name: "BenchGR", Layers: 4, Heads: 8, KVHeads: 2, HeadDim: 32,
		Hidden: 256, FFNDim: 1024, Vocab: vocab,
	}
}

// TinyGRAbsPos is TinyGR with a learned absolute position embedding — the
// position-sensitive model family for Table 3's degradation cases.
func TinyGRAbsPos(vocab, maxPos int) Config {
	c := TinyGR(vocab)
	c.Name = "TinyGR-AbsPos"
	c.AbsPos = true
	c.MaxPos = maxPos
	return c
}

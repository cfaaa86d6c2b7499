package model

import (
	"fmt"
	"math"
	"sync"

	"bat/internal/tensor"
)

// Forward runs the transformer over new tokens with explicit position IDs,
// reusing (and extending) cache as the context prefix.
//
//   - tokens[i] is the vocabulary ID of the i-th new token; its absolute
//     context index is cache.Len()+i at call time.
//   - pos[i] is the rotary (and absolute, if cfg.AbsPos) position assigned to
//     that token. Bipartite Attention assigns shared start positions to items
//     here rather than sequence positions.
//   - mask filters attention edges by absolute index; causality (k <= q) is
//     always enforced on top of it. Masks must be safe for concurrent
//     Allowed calls (the stock masks are all stateless).
//
// The new tokens' K/V are appended to cache. Callers that only wanted the
// suffix computed "and discarded" (§4.2) should cache.Truncate back to the
// prefix length afterwards, or pass a throwaway clone.
//
// The returned matrix holds the final-RMSNorm hidden state of each new token
// (len(tokens) x Hidden), ready for Logits/LogitsFor.
//
// This is the batched engine: all n tokens move through each layer together,
// so the six per-token vector-matrix products become one matrix-matrix GEMM
// each (QKV, output, gate/up/down), and attention fans out across
// (head x query-block) tasks on the tensor worker pool. Every output element
// keeps the exact scalar summation order of the token-at-a-time path, so
// hidden states are bit-identical to ForwardReference at any batch split
// and any pool width.
func (w *Weights) Forward(tokens, pos []int, mask Mask, cache *KVCache) *tensor.Matrix {
	cfg := w.cfg
	if len(tokens) != len(pos) {
		panic(fmt.Sprintf("model: %d tokens but %d positions", len(tokens), len(pos)))
	}
	if cache == nil {
		cache = NewKVCache(cfg)
	}
	if cache.cfg.Name != cfg.Name {
		panic(fmt.Sprintf("model: cache built for %s, weights are %s", cache.cfg.Name, cfg.Name))
	}
	if mask == nil {
		mask = CausalMask{}
	}
	n := len(tokens)
	base := cache.Len()
	if fs, ok := cache.store.(*flatStore); ok {
		fs.reserve(n) // keep per-token appends allocation-free
	}

	// Token (+ absolute position) embeddings.
	h := tensor.NewMatrix(n, cfg.Hidden)
	for i, tok := range tokens {
		if tok < 0 || tok >= cfg.Vocab {
			panic(fmt.Sprintf("model: token %d outside vocab %d", tok, cfg.Vocab))
		}
		copy(h.Row(i), w.embed.Row(tok))
		if cfg.AbsPos {
			p := pos[i]
			if p < 0 || p >= cfg.MaxPos {
				panic(fmt.Sprintf("model: position %d outside MaxPos %d", p, cfg.MaxPos))
			}
			tensor.AddInPlace(h.Row(i), w.posEmbed.Row(p))
		}
	}

	s := newScratch(cfg, n)
	vis := visPool.Get().(*visibility)
	defer visPool.Put(vis)
	vis.lower(mask, base, n)
	for l := 0; l < cfg.Layers; l++ {
		lw := &w.layers[l]

		// --- attention sublayer ---
		rmsNormRows(s.normed, h, lw.attnNorm, cfg.eps())
		tensor.MatMul(s.q, s.normed, lw.wq)
		tensor.MatMul(s.k, s.normed, lw.wk)
		tensor.MatMul(s.v, s.normed, lw.wv)
		w.ropeRows(s.q, s.k, pos)
		for i := 0; i < n; i++ {
			cache.appendToken(l, s.k.Row(i), s.v.Row(i))
		}
		w.attend(s, cache, l, base, n, vis)
		tensor.MatMul(s.proj, s.attnOut, lw.wo)
		addRows(h, s.proj)

		// --- feed-forward sublayer (SwiGLU) ---
		rmsNormRows(s.normed, h, lw.ffnNorm, cfg.eps())
		tensor.MatMul(s.gate, s.normed, lw.wGate)
		tensor.MatMul(s.up, s.normed, lw.wUp)
		swiGLURows(s.gate, s.up)
		tensor.MatMul(s.proj, s.gate, lw.wDown)
		addRows(h, s.proj)
	}

	for i := 0; i < n; i++ {
		row := h.Row(i)
		tensor.RMSNorm(row, row, w.finalNorm, cfg.eps())
	}
	return h
}

// scratch holds the per-call activation buffers, allocated once and reused
// across every layer — the batched replacement for the seed engine's
// per-token k/v allocations.
type scratch struct {
	normed  *tensor.Matrix // n x Hidden
	q       *tensor.Matrix // n x Heads*HeadDim
	k, v    *tensor.Matrix // n x KVHeads*HeadDim
	attnOut *tensor.Matrix // n x Heads*HeadDim
	proj    *tensor.Matrix // n x Hidden
	gate    *tensor.Matrix // n x FFNDim
	up      *tensor.Matrix // n x FFNDim
}

func newScratch(cfg Config, n int) *scratch {
	qDim := cfg.Heads * cfg.HeadDim
	kvDim := cfg.KVHeads * cfg.HeadDim
	return &scratch{
		normed:  tensor.NewMatrix(n, cfg.Hidden),
		q:       tensor.NewMatrix(n, qDim),
		k:       tensor.NewMatrix(n, kvDim),
		v:       tensor.NewMatrix(n, kvDim),
		attnOut: tensor.NewMatrix(n, qDim),
		proj:    tensor.NewMatrix(n, cfg.Hidden),
		gate:    tensor.NewMatrix(n, cfg.FFNDim),
		up:      tensor.NewMatrix(n, cfg.FFNDim),
	}
}

// rowBlock is the row granule for pool-parallel elementwise passes.
const rowBlock = 32

// rmsNormRows normalizes every row of src into dst.
func rmsNormRows(dst, src *tensor.Matrix, weight []float32, eps float32) {
	if src.Rows*src.Cols < 1<<14 {
		for i := 0; i < src.Rows; i++ {
			tensor.RMSNorm(dst.Row(i), src.Row(i), weight, eps)
		}
		return
	}
	tensor.ParallelBlocks(src.Rows, rowBlock, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			tensor.RMSNorm(dst.Row(i), src.Row(i), weight, eps)
		}
	})
}

// addRows adds src into dst row-wise (dst += src).
func addRows(dst, src *tensor.Matrix) {
	tensor.AddInPlace(dst.Data, src.Data)
}

// swiGLURows computes gate = SiLU(gate) * up elementwise.
func swiGLURows(gate, up *tensor.Matrix) {
	tensor.SiLU(gate.Data)
	for d, u := range up.Data {
		gate.Data[d] *= u
	}
}

// ropeRows rotates every row of q (per query head) and k (per KV head) for
// its token's position. sin/cos come from the weights' precomputed
// frequency table; rows are independent, so the pass fans out on the pool
// when the sincos work is worth it.
func (w *Weights) ropeRows(q, k *tensor.Matrix, pos []int) {
	cfg := w.cfg
	rotate := func(i int) {
		for hh := 0; hh < cfg.Heads; hh++ {
			w.rope.Rotate(q.Row(i)[hh*cfg.HeadDim:(hh+1)*cfg.HeadDim], pos[i])
		}
		for hh := 0; hh < cfg.KVHeads; hh++ {
			w.rope.Rotate(k.Row(i)[hh*cfg.HeadDim:(hh+1)*cfg.HeadDim], pos[i])
		}
	}
	n := len(pos)
	if n*(cfg.Heads+cfg.KVHeads)*cfg.HeadDim < 1<<14 {
		for i := 0; i < n; i++ {
			rotate(i)
		}
		return
	}
	tensor.ParallelBlocks(n, rowBlock, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rotate(i)
		}
	})
}

// attnQueryBlock is the query granule of one attention task; each task owns
// a (head, query-block) tile of the output.
const attnQueryBlock = 16

// scorePool recycles attention score buffers across tasks, layers, and
// Forward calls so attention allocates nothing in steady state.
var scorePool = sync.Pool{New: func() any { return &scoreBuf{} }}

type scoreBuf struct{ s []float32 }

func getScores(n int) *scoreBuf {
	sb := scorePool.Get().(*scoreBuf)
	if cap(sb.s) < n {
		sb.s = make([]float32, n)
	}
	sb.s = sb.s[:n]
	return sb
}

// attend computes masked grouped-query attention for layer l over the n new
// tokens, whose K/V (and the whole prefix) are already in the cache, and
// writes mixed values into s.attnOut. Work is split across
// (head x query-block) tasks. A query scores, weights and mixes only its
// visible key ranges, and within a range the tensor kernels walk the store's
// contiguous row runs several keys per pass; every score still sums its
// products in ascending dimension order and every output element its weighted
// values in ascending key order, so the result is bit-identical to the
// reference engine's one-key-at-a-time loops at any pool width.
func (w *Weights) attend(s *scratch, cache *KVCache, l, base, n int, vis *visibility) {
	cfg := w.cfg
	hd, stride := cfg.HeadDim, cache.stride()
	groups := cfg.Heads / cfg.KVHeads
	scale := float32(1 / math.Sqrt(float64(hd)))
	qBlocks := (n + attnQueryBlock - 1) / attnQueryBlock
	run := func(task int) {
		hh := task / qBlocks
		lo := (task % qBlocks) * attnQueryBlock
		hi := min(lo+attnQueryBlock, n)
		kvOff := hh / groups * hd // the kv head's columns within a row
		sb := getScores(base + hi)
		defer scorePool.Put(sb)
		sc := sb.s
		for i := lo; i < hi; i++ {
			ranges := vis.of(i)
			qh := s.q.Row(i)[hh*hd : (hh+1)*hd]
			maxv, visible := tensor.NegInf, 0
			for _, r := range ranges {
				visible += r[1] - r[0]
				for t := r[0]; t < r[1]; {
					k, _ := cache.store.rows(l, t)
					m := min(r[1]-t, len(k)/stride)
					maxv = tensor.DotRows(sc[t:t+m], qh, k[kvOff:], stride, scale, maxv)
					t += m
				}
			}
			applyAttnWeightsRanges(cfg.Attn, sc, ranges, maxv, visible)
			out := s.attnOut.Row(i)[hh*hd : (hh+1)*hd]
			clear(out)
			for _, r := range ranges {
				for t := r[0]; t < r[1]; {
					_, v := cache.store.rows(l, t)
					m := min(r[1]-t, len(v)/stride)
					tensor.AxpyRows(out, sc[t:t+m], v[kvOff:], stride)
					t += m
				}
			}
		}
	}
	tasks := cfg.Heads * qBlocks
	// Average context length per query is base + (n+1)/2.
	if tasks == 1 || cfg.Heads*n*(base+(n+1)/2)*hd < 1<<15 {
		for task := 0; task < tasks; task++ {
			run(task)
		}
		return
	}
	tensor.Parallel(tasks, run)
}

// applyAttnWeightsRanges is applyAttnWeights over a query's visible key
// ranges, given the maximum score the score pass found. Keys outside the
// ranges are exactly the NegInf entries the dense pass would write and then
// skip, so visiting only the ranges, in the same ascending index order,
// produces bit-identical weights. Out-of-range score entries are left
// untouched: the value mix walks the same ranges and never reads them.
func applyAttnWeightsRanges(kind AttnKind, scores []float32, ranges [][2]int, maxv float32, visible int) {
	if kind == AttnSoftmax {
		softmaxRanges(scores, ranges, maxv)
		return
	}
	if visible <= 0 {
		visible = 1
	}
	inv := 1 / float32(visible)
	for _, r := range ranges {
		for t := r[0]; t < r[1]; t++ {
			s := scores[t]
			if s == tensor.NegInf {
				scores[t] = 0
				continue
			}
			scores[t] = s / (1 + float32(math.Exp(float64(-s)))) * inv
		}
	}
}

// softmaxRanges mirrors tensor.Softmax over the in-range entries only, with
// its max pass already done by the score kernel. Because ranges are disjoint
// and ascending, the scalar visit order — and therefore every float32
// accumulation — matches a dense softmax whose out-of-range entries are all
// NegInf, bit for bit.
func softmaxRanges(v []float32, ranges [][2]int, maxv float32) {
	if math.IsInf(float64(maxv), -1) {
		for _, r := range ranges {
			clear(v[r[0]:r[1]])
		}
		return
	}
	var sum float32
	for _, r := range ranges {
		for t := r[0]; t < r[1]; t++ {
			x := v[t]
			// A score of -Inf contributes exactly exp(-Inf) == 0; skipping the
			// Exp call is bit-identical (same as tensor.Softmax).
			if math.IsInf(float64(x), -1) {
				v[t] = 0
				continue
			}
			e := float32(math.Exp(float64(x - maxv)))
			v[t] = e
			sum += e
		}
	}
	if sum == 0 {
		return
	}
	inv := 1 / sum
	for _, r := range ranges {
		for t := r[0]; t < r[1]; t++ {
			v[t] *= inv
		}
	}
}

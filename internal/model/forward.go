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
// (len(tokens) x Hidden), ready for Logits/LogitsFor. It is ForwardRows with
// every row.
func (w *Weights) Forward(tokens, pos []int, mask Mask, cache *KVCache) *tensor.Matrix {
	rows := make([]int, len(tokens))
	for i := range rows {
		rows[i] = i
	}
	return w.ForwardRows(tokens, pos, mask, cache, rows)
}

// ForwardRows is Forward for a caller that reads only some output rows:
// it returns the final hidden states of new tokens rows[0], rows[1], ...
// (len(rows) x Hidden). Layers 0..L-2 run over every token, and in the last
// layer every token still gets its RMSNorm, K/V, RoPE and cache append — so
// the cache is byte-identical to Forward's — but attention, the output
// projection, the FFN and the final norm run only for rows. Empty rows
// computes K/V only, which is all a prefix recompute wants. Each kept row
// does exactly Forward's scalar operations, so its bits equal Forward's.
//
// This is the batched engine: all n tokens move through each layer together,
// so the six per-token vector-matrix products become one matrix-matrix GEMM
// each (QKV, output, gate/up/down), and attention fans out across
// (head x query-block) tasks on the tensor worker pool. Every output element
// keeps the exact scalar summation order of the token-at-a-time path, so
// hidden states are bit-identical to ForwardReference at any batch split
// and any pool width.
func (w *Weights) ForwardRows(tokens, pos []int, mask Mask, cache *KVCache, rows []int) *tensor.Matrix {
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
	for _, r := range rows {
		if r < 0 || r >= n {
			panic(fmt.Sprintf("model: output row %d outside %d new tokens", r, n))
		}
	}
	// pruned is false when rows is every row in order (Forward): the last
	// layer then runs like the others, with no gather.
	pruned := !everyRow(rows, n)
	base := cache.Len()
	switch st := cache.store.(type) { // keep per-token appends allocation-free
	case *flatStore:
		st.reserve(n)
	case *viewStore:
		st.tail.reserve(n)
	}

	last := cfg.Layers - 1
	queries := n // the most query rows any layer carries
	if pruned && last == 0 {
		queries = len(rows)
	}
	fb := fwdPool.Get().(*fwdBuf)
	defer fwdPool.Put(fb)
	s := fb.carve(cfg, n, queries, pruned)
	// The working hidden states: pooled when the last layer gathers the read
	// rows into a fresh result, else the result itself.
	h := &fb.h
	if !pruned {
		h = tensor.NewMatrix(n, cfg.Hidden)
	}

	// Token (+ absolute position) embeddings.
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

	vis := visPool.Get().(*visibility)
	defer visPool.Put(vis)
	if !pruned || last > 0 {
		vis.lower(mask, base, n, nil)
	}
	for l := 0; l <= last; l++ {
		lw := &w.layers[l]

		// --- attention sublayer: every token's K/V enters the cache ---
		rmsNormRows(&s.normed, h, lw.attnNorm, cfg.eps())
		tensor.MatMul(&s.k, &s.normed, lw.wk)
		tensor.MatMul(&s.v, &s.normed, lw.wv)
		w.ropeRows(&s.k, pos)
		for i := 0; i < n; i++ {
			cache.appendToken(l, s.k.Row(i), s.v.Row(i))
		}
		// ...and only the rows read after the last layer go further in it.
		qs, qIn, qPos := s, &s.normed, pos
		if l == last && pruned {
			if len(rows) == 0 {
				return tensor.NewMatrix(0, cfg.Hidden)
			}
			qs = fb.head(len(rows))
			// proj is free until the output projection: it holds the
			// gathered query inputs.
			qIn = gatherRows(&qs.proj, &s.normed, rows)
			h = gatherRows(tensor.NewMatrix(len(rows), cfg.Hidden), h, rows)
			qPos = fb.pos[:0]
			for _, r := range rows {
				qPos = append(qPos, pos[r])
			}
			fb.pos = qPos
			vis.lower(mask, base, n, rows)
		}
		tensor.MatMul(&qs.q, qIn, lw.wq)
		w.ropeRows(&qs.q, qPos)
		w.attend(qs, cache, l, base, n, vis)
		tensor.MatMul(&qs.proj, &qs.attnOut, lw.wo)
		addRows(h, &qs.proj)

		// --- feed-forward sublayer (SwiGLU) ---
		rmsNormRows(&qs.normed, h, lw.ffnNorm, cfg.eps())
		tensor.MatMul(&qs.gate, &qs.normed, lw.wGate)
		tensor.MatMul(&qs.up, &qs.normed, lw.wUp)
		swiGLURows(&qs.gate, &qs.up)
		tensor.MatMul(&qs.proj, &qs.gate, lw.wDown)
		addRows(h, &qs.proj)
	}

	tensor.RMSNormRows(h.Data, h.Data, w.finalNorm, cfg.eps())
	return h
}

// everyRow reports whether rows is 0, 1, ..., n-1.
func everyRow(rows []int, n int) bool {
	if len(rows) != n {
		return false
	}
	for i, r := range rows {
		if r != i {
			return false
		}
	}
	return true
}

// gatherRows copies src's rows sel[0], sel[1], ... into dst's rows 0, 1, ...
// and returns dst.
func gatherRows(dst, src *tensor.Matrix, sel []int) *tensor.Matrix {
	for j, r := range sel {
		copy(dst.Row(j), src.Row(r))
	}
	return dst
}

// scratch holds one call's activation buffers, reused across every layer —
// the batched replacement for the seed engine's per-token k/v allocations.
// The K/V side has a row per new token; the query side (q through the FFN) a
// row per query the widest layer carries.
type scratch struct {
	normed  tensor.Matrix // n x Hidden
	k, v    tensor.Matrix // n x KVHeads*HeadDim
	q       tensor.Matrix // queries x Heads*HeadDim
	attnOut tensor.Matrix // queries x Heads*HeadDim
	proj    tensor.Matrix // queries x Hidden
	gate    tensor.Matrix // queries x FFNDim
	up      tensor.Matrix // queries x FFNDim
}

// fwdBuf is one ForwardRows call's working memory: a float slab that the
// scratch buffers and the working hidden states are carved from, the gathered
// query positions, and the matrix headers themselves. fwdPool recycles it, so
// in steady state a forward pass allocates nothing in proportion to its
// tokens except the cache growth and the result the caller owns.
type fwdBuf struct {
	slab    []float32
	pos     []int
	s, last scratch       // all rows; the pruned last layer's query rows
	h       tensor.Matrix // n x Hidden, when the result is a gather of it
}

var fwdPool = sync.Pool{New: func() any { return new(fwdBuf) }}

// carve lays the scratch set (plus the working hidden states when withH) over
// the slab, growing it if this call is the largest yet. Every buffer is fully
// written before it is read, so stale contents from an earlier call never
// leak into a result.
func (b *fwdBuf) carve(cfg Config, n, queries int, withH bool) *scratch {
	qDim := cfg.Heads * cfg.HeadDim
	kvDim := cfg.KVHeads * cfg.HeadDim
	size := n*(cfg.Hidden+2*kvDim) + queries*(2*qDim+cfg.Hidden+2*cfg.FFNDim)
	if withH {
		size += n * cfg.Hidden
	}
	if cap(b.slab) < size {
		b.slab = make([]float32, size)
	}
	free := b.slab[:size]
	take := func(m *tensor.Matrix, rows, cols int) {
		*m = tensor.Matrix{Rows: rows, Cols: cols, Data: free[: rows*cols : rows*cols]}
		free = free[rows*cols:]
	}
	s := &b.s
	take(&s.normed, n, cfg.Hidden)
	take(&s.k, n, kvDim)
	take(&s.v, n, kvDim)
	take(&s.q, queries, qDim)
	take(&s.attnOut, queries, qDim)
	take(&s.proj, queries, cfg.Hidden)
	take(&s.gate, queries, cfg.FFNDim)
	take(&s.up, queries, cfg.FFNDim)
	if withH {
		take(&b.h, n, cfg.Hidden)
	}
	return s
}

// head returns views of the query-side buffers' (and normed's) first m rows.
func (b *fwdBuf) head(m int) *scratch {
	top := func(dst, x *tensor.Matrix) {
		*dst = tensor.Matrix{Rows: m, Cols: x.Cols, Data: x.Data[:m*x.Cols]}
	}
	s, t := &b.s, &b.last
	top(&t.normed, &s.normed)
	t.k, t.v = s.k, s.v
	top(&t.q, &s.q)
	top(&t.attnOut, &s.attnOut)
	top(&t.proj, &s.proj)
	top(&t.gate, &s.gate)
	top(&t.up, &s.up)
	return t
}

// rowBlock is the row granule for pool-parallel elementwise passes.
const rowBlock = 32

// rmsNormRows normalizes every row of src into dst.
func rmsNormRows(dst, src *tensor.Matrix, weight []float32, eps float32) {
	if src.Rows*src.Cols < 1<<14 {
		tensor.RMSNormRows(dst.Data, src.Data, weight, eps)
		return
	}
	c := src.Cols
	tensor.ParallelBlocks(src.Rows, rowBlock, func(lo, hi int) {
		tensor.RMSNormRows(dst.Data[lo*c:hi*c], src.Data[lo*c:hi*c], weight, eps)
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

// ropeRows rotates every row of m, per head of HeadDim columns, for its
// token's position pos[i]. sin/cos come from the weights' precomputed
// frequency table; rows are independent, so the pass fans out on the pool
// when the sincos work is worth it.
func (w *Weights) ropeRows(m *tensor.Matrix, pos []int) {
	n := len(pos)
	if n*m.Cols < 1<<14 {
		for i := 0; i < n; i++ {
			w.rope.RotateHeads(m.Row(i), pos[i])
		}
		return
	}
	tensor.ParallelBlocks(n, rowBlock, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			w.rope.RotateHeads(m.Row(i), pos[i])
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

// attend computes masked grouped-query attention for layer l and writes
// mixed values into s.attnOut. Its queries are the rows of s.q, whose visible
// key ranges vis holds in the same order; the n new tokens' K/V (and the
// whole prefix, from absolute index base) are already in the cache. Work is
// split across (head x query-block) tasks. A query scores, weights and mixes
// only its visible key ranges, and within a range the tensor kernels walk the
// store's contiguous row runs several keys per pass; every score still sums
// its products in ascending dimension order and every output element its
// weighted values in ascending key order, so the result is bit-identical to
// the reference engine's one-key-at-a-time loops at any pool width.
func (w *Weights) attend(s *scratch, cache *KVCache, l, base, n int, vis *visibility) {
	cfg := w.cfg
	hd, stride := cfg.HeadDim, cache.stride()
	groups := cfg.Heads / cfg.KVHeads
	scale := float32(1 / math.Sqrt(float64(hd)))
	queries := s.q.Rows
	qBlocks := (queries + attnQueryBlock - 1) / attnQueryBlock
	run := func(task int) {
		hh := task / qBlocks
		lo := (task % qBlocks) * attnQueryBlock
		hi := min(lo+attnQueryBlock, queries)
		kvOff := hh / groups * hd // the kv head's columns within a row
		keys := 0                 // one past the block's highest visible key
		for i := lo; i < hi; i++ {
			if r := vis.of(i); len(r) > 0 {
				keys = max(keys, r[len(r)-1][1])
			}
		}
		sb := getScores(keys)
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
	// Average context length per query is about base + (n+1)/2.
	if tasks == 1 || cfg.Heads*queries*(base+(n+1)/2)*hd < 1<<15 {
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

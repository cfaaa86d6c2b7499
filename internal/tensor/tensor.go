// Package tensor provides the small dense float32 linear-algebra kernel the
// transformer in internal/model is built on: matrices, cache-blocked
// multi-core matmul, softmax, normalization, activations, rotary position
// embedding, and the package worker pool (Parallel) the rest of the engine
// schedules data-parallel work on.
//
// Everything is row-major float32 and allocation-explicit so callers can
// reuse buffers across forward passes. Every kernel accumulates each output
// element in a fixed scalar order, so results are bit-identical at any
// blocking factor and any pool width — the determinism guarantee the
// engine's tests pin down.
package tensor

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix allocates a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (length rows*cols) as a matrix without copying.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Row returns a view of row i.
func (m *Matrix) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero resets all elements to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Kernel tuning constants. Blocking keeps a panel of b resident in cache
// while a block of output rows streams over it, and row blocks double as the
// work-distribution granule for the worker pool. None of them affect
// results: every output element always accumulates its products in strictly
// increasing shared-dimension order, so the kernels are bit-identical at any
// block size and any pool width.
const (
	mmRowBlock = 16      // output rows per block (cache reuse + pool granule)
	mmKBlock   = 256     // shared-dimension panel height
	mmMinFlops = 1 << 15 // below this many multiply-adds, skip the pool
)

// MatMul computes dst = a @ b. dst must be a.Rows x b.Cols; a.Cols must equal
// b.Rows. dst may not alias a or b. Large products are cache-blocked and run
// on the package worker pool; results are bit-identical to the serial
// row-by-row computation regardless of blocking or parallelism.
func MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul shape mismatch (%dx%d)@(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	n := a.Rows
	if n <= mmRowBlock || n*a.Cols*b.Cols < mmMinFlops {
		matMulRows(dst, a, b, 0, n)
		return
	}
	ParallelBlocks(n, mmRowBlock, func(lo, hi int) {
		matMulRows(dst, a, b, lo, hi)
	})
}

// matMulRows computes dst rows [lo, hi). The shared dimension is processed
// in panels so the active rows of b stay cache-resident across the row
// block, and each panel is folded into its output row by AxpyRows. Each dst
// element still accumulates in increasing-k order with the same zero skip as
// a plain vector-matrix product.
func matMulRows(dst, a, b *Matrix, lo, hi int) {
	k, p := a.Cols, b.Cols
	clear(dst.Data[lo*p : hi*p])
	for kb := 0; kb < k; kb += mmKBlock {
		ke := min(kb+mmKBlock, k)
		for i := lo; i < hi; i++ {
			AxpyRows(dst.Data[i*p:(i+1)*p], a.Data[i*k+kb:i*k+ke], b.Data[kb*p:], p)
		}
	}
}

// rowTile is how many slab rows DotRows and AxpyRows walk per pass. A tile
// gives the score loop one independent accumulator per row (a lone
// accumulator is a dependent add chain) and lets the fold load and store each
// output element once per tile instead of once per row; four rows keep every
// operand in registers on amd64.
const rowTile = 4

// DotRows scores q against consecutive rows of a strided slab: for every j,
// dst[j] = Dot(q, rows[j*stride:j*stride+len(q)]) * scale. It returns the
// running maximum of maxv and the scores, compared in ascending j (the max
// pass of a softmax, folded in). Each score sums q[d]*row[d] in strictly
// ascending d into its own accumulator, so it is bit-identical to Dot.
func DotRows(dst, q, rows []float32, stride int, scale, maxv float32) float32 {
	j := 0
	for ; j+rowTile <= len(dst); j += rowTile {
		s0, s1, s2, s3 := dotTile(q, rows[j*stride:], stride)
		d := dst[j : j+rowTile : j+rowTile]
		d[0], d[1], d[2], d[3] = s0*scale, s1*scale, s2*scale, s3*scale
		for _, s := range d {
			if s > maxv {
				maxv = s
			}
		}
	}
	for ; j < len(dst); j++ {
		s := Dot(q, rows[j*stride:][:len(q)]) * scale
		dst[j] = s
		if s > maxv {
			maxv = s
		}
	}
	return maxv
}

// dotTile returns q's inner products with the first rowTile rows of a slab.
// It is its own function so the loop's few live values all stay in
// registers; inside DotRows the compiler spills the loop counter.
func dotTile(q, rows []float32, stride int) (s0, s1, s2, s3 float32) {
	k0 := rows[:len(q)]
	k1 := rows[stride:][:len(q)]
	k2 := rows[2*stride:][:len(q)]
	k3 := rows[3*stride:][:len(q)]
	for d, x := range q {
		s0 += x * k0[d]
		s1 += x * k1[d]
		s2 += x * k2[d]
		s3 += x * k3[d]
	}
	return s0, s1, s2, s3
}

// AxpyRows folds consecutive rows of a strided slab into dst: for ascending
// j, dst += coef[j] * rows[j*stride:j*stride+len(dst)], skipping rows whose
// coefficient is zero (so a zero coefficient never meets an Inf or NaN row).
//
// With AVX2 the columns up to the last multiple of 8 take one call into
// axpyRowsAVX2, which keeps a block of dst in registers across every row;
// the rest take axpyRowsGo. Both add each row's rounded product to each
// element in ascending j, so the result is bit-identical either way.
func AxpyRows(dst, coef, rows []float32, stride int) {
	n := 0
	if useAVX2 && len(dst) >= 8 && len(coef) > 0 {
		if stride < 0 || (len(coef)-1)*stride+len(dst) > len(rows) {
			panic(fmt.Sprintf("tensor: AxpyRows slab of %d floats too short for %d rows of %d at stride %d",
				len(rows), len(coef), len(dst), stride))
		}
		n = len(dst) &^ 7
		axpyRowsAVX2(dst[:n], coef, rows, stride)
		if n == len(dst) {
			return
		}
	}
	axpyRowsGo(dst[n:], coef, rows[n:], stride)
}

// axpyRowsGo is AxpyRows in Go: the fallback off amd64 and for the columns
// past the vector kernel's last block. A tile's rows are added to each
// element in ascending j before it is stored, which is the order a
// row-at-a-time fold produces; a tile holding a zero coefficient takes the
// row-at-a-time step so the skip is preserved.
func axpyRowsGo(dst, coef, rows []float32, stride int) {
	j := 0
	for ; j+rowTile <= len(coef); j += rowTile {
		c0, c1, c2, c3 := coef[j], coef[j+1], coef[j+2], coef[j+3]
		if c0 == 0 || c1 == 0 || c2 == 0 || c3 == 0 {
			axpyRowsSkip(dst, coef, rows, stride, j, j+rowTile)
			continue
		}
		o := j * stride
		r0 := rows[o:][:len(dst)]
		r1 := rows[o+stride:][:len(dst)]
		r2 := rows[o+2*stride:][:len(dst)]
		r3 := rows[o+3*stride:][:len(dst)]
		for d, x := range dst {
			x += c0 * r0[d]
			x += c1 * r1[d]
			x += c2 * r2[d]
			x += c3 * r3[d]
			dst[d] = x
		}
	}
	axpyRowsSkip(dst, coef, rows, stride, j, len(coef))
}

// axpyRowsSkip is AxpyRows over rows [lo, hi), one row at a time.
func axpyRowsSkip(dst, coef, rows []float32, stride, lo, hi int) {
	for j := lo; j < hi; j++ {
		c := coef[j]
		if c == 0 {
			continue
		}
		for d, r := range rows[j*stride:][:len(dst)] {
			dst[d] += c * r
		}
	}
}

// MatMulT computes dst = a @ bᵀ, i.e. dst[i][j] = dot(a.Row(i), b.Row(j)).
// dst must be a.Rows x b.Rows; a.Cols must equal b.Cols. Like MatMul it is
// cache-blocked, pool-parallel over output rows, and bit-identical to the
// serial dot-product formulation.
func MatMulT(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmulT shape mismatch (%dx%d)@(%dx%d)T->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	n := a.Rows
	if n <= mmRowBlock || n*a.Cols*b.Rows < mmMinFlops {
		matMulTRows(dst, a, b, 0, n)
		return
	}
	ParallelBlocks(n, mmRowBlock, func(lo, hi int) {
		matMulTRows(dst, a, b, lo, hi)
	})
}

// matMulTRows computes dst rows [lo, hi), blocking over b's rows so each
// panel of keys is reused across the whole row block while cache-hot.
func matMulTRows(dst, a, b *Matrix, lo, hi int) {
	for jb := 0; jb < b.Rows; jb += mmRowBlock {
		je := jb + mmRowBlock
		if je > b.Rows {
			je = b.Rows
		}
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			drow := dst.Row(i)
			for j := jb; j < je; j++ {
				drow[j] = Dot(arow, b.Row(j))
			}
		}
	}
}

// Dot returns the inner product of a and b, which must have equal length.
// The loop is 4-wide unrolled into a single accumulator, preserving the
// strict left-to-right summation order.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: dot length mismatch %d != %d", len(a), len(b)))
	}
	var s float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x := a[i : i+4 : i+4]
		y := b[i : i+4 : i+4]
		s += x[0] * y[0]
		s += x[1] * y[1]
		s += x[2] * y[2]
		s += x[3] * y[3]
	}
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// AddInPlace adds src into dst elementwise.
func AddInPlace(dst, src []float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: add length mismatch %d != %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] += v
	}
}

// Scale multiplies every element of v by s.
func Scale(v []float32, s float32) {
	for i := range v {
		v[i] *= s
	}
}

// Softmax normalizes v in place into a probability distribution, using the
// max-subtraction trick for numerical stability. Entries equal to
// NegInf are treated as fully masked and receive probability 0; if every
// entry is masked the result is all zeros.
func Softmax(v []float32) {
	maxv := float32(math.Inf(-1))
	for _, x := range v {
		if x > maxv {
			maxv = x
		}
	}
	if math.IsInf(float64(maxv), -1) {
		for i := range v {
			v[i] = 0
		}
		return
	}
	var sum float32
	for i, x := range v {
		// Masked entries contribute exactly exp(-Inf) == 0 to the sum, so
		// skipping the Exp call is bit-identical. Batched cross-request
		// attention masks most of the packed context, making this the
		// difference between O(own context) and O(batch context) Exp calls.
		if math.IsInf(float64(x), -1) {
			v[i] = 0
			continue
		}
		e := float32(math.Exp(float64(x - maxv)))
		v[i] = e
		sum += e
	}
	if sum == 0 {
		return
	}
	inv := 1 / sum
	for i := range v {
		v[i] *= inv
	}
}

// NegInf is the additive-mask value that fully blocks an attention edge.
var NegInf = float32(math.Inf(-1))

// RMSNorm writes RMS-normalized src scaled by weight into dst.
// dst, src, and weight must share a length. dst may alias src.
func RMSNorm(dst, src, weight []float32, eps float32) {
	if len(dst) != len(src) || len(src) != len(weight) {
		panic("tensor: rmsnorm length mismatch")
	}
	var ss float64
	for _, v := range src {
		ss += float64(v) * float64(v)
	}
	rmsScale(dst, src, weight, ss, eps)
}

// RMSNormRows is RMSNorm over each row of src, len(weight) columns wide,
// into the same row of dst. dst, src and weight obey RMSNorm's rules per
// row. Four rows run side by side, each summing its squares in ascending
// index into its own float64, so every row's bits equal RMSNorm's; the four
// independent add chains are what make it faster than one row at a time.
func RMSNormRows(dst, src, weight []float32, eps float32) {
	c := len(weight)
	if len(dst) != len(src) || (len(src) > 0 && (c == 0 || len(src)%c != 0)) {
		panic("tensor: rmsnorm rows length mismatch")
	}
	if len(src) == 0 {
		return
	}
	rows := len(src) / c
	r := 0
	for ; r+4 <= rows; r += 4 {
		s0 := src[r*c:][:c]
		s1 := src[(r+1)*c:][:c]
		s2 := src[(r+2)*c:][:c]
		s3 := src[(r+3)*c:][:c]
		var ss0, ss1, ss2, ss3 float64
		for i, v := range s0 {
			v1, v2, v3 := s1[i], s2[i], s3[i]
			ss0 += float64(v) * float64(v)
			ss1 += float64(v1) * float64(v1)
			ss2 += float64(v2) * float64(v2)
			ss3 += float64(v3) * float64(v3)
		}
		rmsScale(dst[r*c:][:c], s0, weight, ss0, eps)
		rmsScale(dst[(r+1)*c:][:c], s1, weight, ss1, eps)
		rmsScale(dst[(r+2)*c:][:c], s2, weight, ss2, eps)
		rmsScale(dst[(r+3)*c:][:c], s3, weight, ss3, eps)
	}
	for ; r < rows; r++ {
		RMSNorm(dst[r*c:][:c], src[r*c:][:c], weight, eps)
	}
}

// rmsScale is RMSNorm's second pass: dst = src * inv * weight, with inv from
// the row's sum of squares ss.
func rmsScale(dst, src, weight []float32, ss float64, eps float32) {
	inv := float32(1 / math.Sqrt(ss/float64(len(src))+float64(eps)))
	weight = weight[:len(src)]
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = v * inv * weight[i]
	}
}

// SiLU applies x*sigmoid(x) elementwise in place.
func SiLU(v []float32) {
	for i, x := range v {
		v[i] = x / (1 + float32(math.Exp(float64(-x))))
	}
}

// RoPETable holds the precomputed inverse-frequency ladder for one
// (head dimension, base) pair: invFreq[i] = base^(-2i/d). Building it once
// removes the math.Pow from every rotated element, and a lazily grown
// per-position sin/cos memo removes the math.Sincos from every position the
// engine has rotated before — serving traffic revisits the same few dozen
// positions on every request, so in steady state rotation is pure
// multiply-adds. Both are bit-identical to the direct formula: theta is the
// same float64 product either way, and the memo stores exactly the float32
// conversions the direct path would multiply with.
type RoPETable struct {
	dim     int
	invFreq []float64

	// memo is pos-major: row p holds float32(cos), float32(sin) per frequency
	// pair for position p. Grown copy-on-write under memoMu; readers load the
	// current snapshot atomically and never block.
	memo   atomic.Pointer[[]float32]
	memoMu sync.Mutex
}

// maxRoPEMemoPos bounds the memo (positions at or beyond it take the direct
// Sincos path), capping worst-case memo memory at maxRoPEMemoPos*dim floats.
const maxRoPEMemoPos = 1 << 14

// NewRoPETable precomputes the frequency ladder for head vectors of even
// length dim.
func NewRoPETable(dim int, base float64) *RoPETable {
	if dim <= 0 || dim%2 != 0 {
		panic(fmt.Sprintf("tensor: RoPE head dim must be positive and even, got %d", dim))
	}
	t := &RoPETable{dim: dim, invFreq: make([]float64, dim/2)}
	for i := range t.invFreq {
		t.invFreq[i] = math.Pow(base, -2*float64(i)/float64(dim))
	}
	return t
}

// Rotate applies rotary position embedding for position pos to a head
// vector of the table's dimension, in place. Pairs are (v[2i], v[2i+1]).
func (t *RoPETable) Rotate(v []float32, pos int) {
	if len(v) != t.dim {
		panic(fmt.Sprintf("tensor: RoPE head dim %d, table built for %d", len(v), t.dim))
	}
	if pos >= 0 && pos < maxRoPEMemoPos {
		rotatePairs(v, t.memoRow(pos))
		return
	}
	fp := float64(pos)
	for i, inv := range t.invFreq {
		sin, cos := math.Sincos(fp * inv)
		a, b := v[2*i], v[2*i+1]
		v[2*i] = a*float32(cos) - b*float32(sin)
		v[2*i+1] = a*float32(sin) + b*float32(cos)
	}
}

// RotateHeads rotates each head of row, a whole number of the table's
// dimension, for position pos, in place: Rotate applied head by head. Where
// AVX2 is available the memoized positions rotate eight floats a pass, with
// the same two rounded products and one rounded sum per element as Rotate,
// so the bits are Rotate's. Rotate itself stays scalar: it is what
// ForwardReference rotates with.
func (t *RoPETable) RotateHeads(row []float32, pos int) {
	if len(row)%t.dim != 0 {
		panic(fmt.Sprintf("tensor: RoPE row of %d floats is not whole heads of %d", len(row), t.dim))
	}
	if pos < 0 || pos >= maxRoPEMemoPos {
		for h := 0; h < len(row); h += t.dim {
			t.Rotate(row[h:h+t.dim], pos)
		}
		return
	}
	cs := t.memoRow(pos)
	n := 0 // floats per head the vector kernel rotates
	if useAVX2 {
		n = t.dim &^ 7
	}
	for h := 0; h < len(row); h += t.dim {
		v := row[h : h+t.dim]
		if n > 0 {
			ropeRowAVX2(v[:n], cs)
		}
		rotatePairs(v[n:], cs[n:])
	}
}

// rotatePairs rotates each pair (v[i], v[i+1]) by the memo pair
// (cos, sin) = (cs[i], cs[i+1]).
func rotatePairs(v, cs []float32) {
	cs = cs[:len(v)]
	for i := 1; i < len(v); i += 2 {
		cos, sin := cs[i-1], cs[i]
		a, b := v[i-1], v[i]
		v[i-1] = a*cos - b*sin
		v[i] = a*sin + b*cos
	}
}

// memoRow returns position pos's cached sin/cos row, growing the memo when
// pos is beyond the current snapshot.
func (t *RoPETable) memoRow(pos int) []float32 {
	if m := t.memo.Load(); m != nil && len(*m) >= (pos+1)*t.dim {
		return (*m)[pos*t.dim : (pos+1)*t.dim]
	}
	return t.growMemo(pos)
}

func (t *RoPETable) growMemo(pos int) []float32 {
	t.memoMu.Lock()
	defer t.memoMu.Unlock()
	if m := t.memo.Load(); m != nil && len(*m) >= (pos+1)*t.dim {
		return (*m)[pos*t.dim : (pos+1)*t.dim]
	}
	n := 256
	if old := t.memo.Load(); old != nil {
		n = len(*old) / t.dim
	}
	for n <= pos {
		n *= 2
	}
	if n > maxRoPEMemoPos {
		n = maxRoPEMemoPos
	}
	m := make([]float32, n*t.dim)
	for p := 0; p < n; p++ {
		fp := float64(p)
		for i, inv := range t.invFreq {
			sin, cos := math.Sincos(fp * inv)
			m[p*t.dim+2*i] = float32(cos)
			m[p*t.dim+2*i+1] = float32(sin)
		}
	}
	t.memo.Store(&m)
	return m[pos*t.dim : (pos+1)*t.dim]
}

// ropeTables caches RoPETables by (dim, base) so ad-hoc callers share the
// precomputed ladders. Engines that know their config should hold their own
// table (see model.Weights) and skip the map lookup.
var ropeTables sync.Map // ropeKey -> *RoPETable

type ropeKey struct {
	dim  int
	base float64
}

// RoPETableFor returns the shared table for a (dim, base) pair, building it
// on first use.
func RoPETableFor(dim int, base float64) *RoPETable {
	key := ropeKey{dim, base}
	if t, ok := ropeTables.Load(key); ok {
		return t.(*RoPETable)
	}
	t, _ := ropeTables.LoadOrStore(key, NewRoPETable(dim, base))
	return t.(*RoPETable)
}

// RotateRoPE applies rotary position embedding for position pos to a head
// vector of even length, in place, using the given frequency base (10000 in
// the paper's models). Pairs are (v[2i], v[2i+1]).
func RotateRoPE(v []float32, pos int, base float64) {
	RoPETableFor(len(v), base).Rotate(v, pos)
}

// ArgMax returns the index of the largest element; -1 for empty input.
func ArgMax(v []float32) int {
	best, bestV := -1, float32(math.Inf(-1))
	for i, x := range v {
		if x > bestV {
			best, bestV = i, x
		}
	}
	return best
}

// TopK returns the indices of the k largest elements of v in descending
// order of value, breaking ties by lower index. k is clamped to len(v).
func TopK(v []float32, k int) []int {
	if k > len(v) {
		k = len(v)
	}
	if k <= 0 {
		return nil
	}
	// Selection via a small insertion-sorted window: candidate lists here are
	// ~100 entries, so O(n*k) beats heap overhead.
	idx := make([]int, 0, k)
	for i := range v {
		pos := len(idx)
		for pos > 0 {
			j := idx[pos-1]
			if v[j] > v[i] || (v[j] == v[i] && j < i) {
				break
			}
			pos--
		}
		if pos < k {
			if len(idx) < k {
				idx = append(idx, 0)
			}
			copy(idx[pos+1:], idx[pos:len(idx)-1])
			idx[pos] = i
		}
	}
	return idx
}

// MaxAbsDiff returns the largest absolute elementwise difference between a
// and b, which must have equal length.
func MaxAbsDiff(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("tensor: MaxAbsDiff length mismatch")
	}
	var m float32
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

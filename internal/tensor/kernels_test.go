package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// randSparseMatrix fills a matrix with random values, zeroing a fraction of
// entries so the kernels' zero-skip branch is on the tested path.
func randSparseMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		if rng.Intn(8) == 0 {
			continue // leave a zero
		}
		m.Data[i] = rng.Float32() - 0.5
	}
	return m
}

// matMulNaive is the order-of-operations oracle for MatMul: one float32
// accumulator per output element, products added in strictly increasing
// shared-dimension order, zeros of a skipped — exactly the scalar schedule
// the blocked kernel promises to preserve.
func matMulNaive(a, b *Matrix) *Matrix {
	dst := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for kk := 0; kk < a.Cols; kk++ {
				av := a.At(i, kk)
				if av == 0 {
					continue
				}
				s += av * b.At(kk, j)
			}
			dst.Set(i, j, s)
		}
	}
	return dst
}

// TestMatMulBitIdenticalToNaive: the cache-blocked, unrolled, pool-parallel
// MatMul must reproduce the naive in-order schedule bit for bit, on shapes
// small enough to stay serial and large enough to cross both the row-block
// and flop thresholds into the parallel path.
func TestMatMulBitIdenticalToNaive(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(4)
	rng := rand.New(rand.NewSource(11))
	shapes := []struct{ n, k, p int }{
		{1, 8, 8},     // single row, serial
		{3, 5, 7},     // odd everything, serial, tail of the 4-wide unroll
		{17, 300, 33}, // crosses mmRowBlock and mmKBlock, below flop cutoff
		{48, 64, 32},  // above both cutoffs: blocked + parallel path
		{64, 512, 40}, // multiple k panels on the parallel path
	}
	for _, sh := range shapes {
		a := randSparseMatrix(rng, sh.n, sh.k)
		b := randSparseMatrix(rng, sh.k, sh.p)
		want := matMulNaive(a, b)
		got := NewMatrix(sh.n, sh.p)
		MatMul(got, a, b)
		if d := MaxAbsDiff(got.Data, want.Data); d != 0 {
			t.Fatalf("(%dx%d)@(%dx%d): blocked MatMul deviates from naive order by %v",
				sh.n, sh.k, sh.k, sh.p, d)
		}
	}
}

// TestMatMulTBitIdenticalToDots: MatMulT's blocked schedule must equal the
// plain dot-product formulation exactly.
func TestMatMulTBitIdenticalToDots(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(4)
	rng := rand.New(rand.NewSource(12))
	shapes := []struct{ n, k, m int }{
		{2, 9, 3},    // serial, unroll tail
		{20, 64, 40}, // blocked over b rows, below flop cutoff
		{48, 64, 48}, // parallel path
	}
	for _, sh := range shapes {
		a := randSparseMatrix(rng, sh.n, sh.k)
		b := randSparseMatrix(rng, sh.m, sh.k)
		want := NewMatrix(sh.n, sh.m)
		for i := 0; i < sh.n; i++ {
			for j := 0; j < sh.m; j++ {
				want.Set(i, j, Dot(a.Row(i), b.Row(j)))
			}
		}
		got := NewMatrix(sh.n, sh.m)
		MatMulT(got, a, b)
		if d := MaxAbsDiff(got.Data, want.Data); d != 0 {
			t.Fatalf("(%dx%d)@(%dx%d)T: MatMulT deviates from dot oracle by %v",
				sh.n, sh.k, sh.m, sh.k, d)
		}
	}
}

// TestMatMulDeterministicAcrossWidths: same inputs, same bits at every pool
// width — the package-level determinism guarantee.
func TestMatMulDeterministicAcrossWidths(t *testing.T) {
	defer SetParallelism(0)
	rng := rand.New(rand.NewSource(13))
	a := randSparseMatrix(rng, 96, 128)
	b := randSparseMatrix(rng, 128, 64)
	SetParallelism(1)
	serial := NewMatrix(96, 64)
	MatMul(serial, a, b)
	for _, width := range []int{2, 3, 8} {
		SetParallelism(width)
		got := NewMatrix(96, 64)
		MatMul(got, a, b)
		if d := MaxAbsDiff(got.Data, serial.Data); d != 0 {
			t.Fatalf("width %d deviates from width 1 by %v", width, d)
		}
	}
}

// TestRoPETableBitIdenticalToDirectFormula: rotating through the
// precomputed inverse-frequency ladder must produce the same bits as
// computing base^(-2i/d) per element — theta is the identical float64
// expression either way, so the table is a pure speedup.
func TestRoPETableBitIdenticalToDirectFormula(t *testing.T) {
	const dim = 16
	const base = 10000.0
	rng := rand.New(rand.NewSource(14))
	for _, pos := range []int{0, 1, 17, 4095, 1 << 20} {
		v := make([]float32, dim)
		for i := range v {
			v[i] = rng.Float32() - 0.5
		}
		want := append([]float32(nil), v...)
		for i := 0; i < dim/2; i++ {
			theta := float64(pos) * math.Pow(base, -2*float64(i)/float64(dim))
			sin, cos := math.Sincos(theta)
			a, b := want[2*i], want[2*i+1]
			want[2*i] = a*float32(cos) - b*float32(sin)
			want[2*i+1] = a*float32(sin) + b*float32(cos)
		}
		NewRoPETable(dim, base).Rotate(v, pos)
		if d := MaxAbsDiff(v, want); d != 0 {
			t.Fatalf("pos %d: table rotation deviates from direct formula by %v", pos, d)
		}
	}
}

// TestRoPETableForShared: the (dim, base) registry must hand back one shared
// table per key.
func TestRoPETableForShared(t *testing.T) {
	a := RoPETableFor(8, 10000)
	b := RoPETableFor(8, 10000)
	if a != b {
		t.Fatal("RoPETableFor returned distinct tables for one key")
	}
	if c := RoPETableFor(8, 500); c == a {
		t.Fatal("RoPETableFor shared a table across different bases")
	}
}

// TestNewRoPETablePanicsOnOddDim: head dims must be positive and even.
func TestNewRoPETablePanicsOnOddDim(t *testing.T) {
	for _, dim := range []int{-2, 0, 7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRoPETable(%d) did not panic", dim)
				}
			}()
			NewRoPETable(dim, 10000)
		}()
	}
}

// TestDotUnrollTails: the 4-wide unrolled Dot must match a plain loop at
// every length mod 4.
func TestDotUnrollTails(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for n := 0; n <= 9; n++ {
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = rng.Float32() - 0.5
			b[i] = rng.Float32() - 0.5
		}
		var want float32
		for i := range a {
			want += a[i] * b[i]
		}
		if got := Dot(a, b); got != want {
			t.Fatalf("len %d: Dot = %v, plain loop = %v", n, got, want)
		}
	}
}

// sameBits reports whether a and b hold the same float32 bit patterns, which
// unlike MaxAbsDiff tells -0 from +0 and one NaN from another.
func sameBits(a, b []float32) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestDotRowsMatchesDot: the tiled score kernel must equal one Dot per row,
// times scale, at every row count mod the tile, with rows wider than the
// vector (a head inside a GQA row), and must return the running maximum a
// sequential scan finds.
func TestDotRowsMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const dim, stride, scale = 6, 10, 0.375
	q := make([]float32, dim)
	for i := range q {
		q[i] = rng.Float32() - 0.5
	}
	for n := 0; n <= 2*rowTile+1; n++ {
		rows := make([]float32, max(n-1, 0)*stride+dim) // the last row ends with the slab
		for i := range rows {
			rows[i] = rng.Float32() - 0.5
		}
		want := make([]float32, n)
		wantMax := float32(-0.01)
		for j := range want {
			want[j] = Dot(q, rows[j*stride:j*stride+dim]) * scale
			if want[j] > wantMax {
				wantMax = want[j]
			}
		}
		got := make([]float32, n)
		gotMax := DotRows(got, q, rows, stride, scale, -0.01)
		if !sameBits(got, want) || gotMax != wantMax {
			t.Fatalf("%d rows: DotRows = %v max %v, row-at-a-time = %v max %v", n, got, gotMax, want, wantMax)
		}
	}
}

// TestAxpyRowsMatchesRowAtATime: the tiled fold must equal folding one row
// at a time, skipping zero coefficients, bit for bit — at every row count
// mod the tile, with zeros planted at every position of a tile (their rows
// hold Inf and NaN, which only the skip keeps out of the result), and with
// -0 in the output and among the products.
func TestAxpyRowsMatchesRowAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const dim, stride = 5, 9
	negZero := float32(math.Copysign(0, -1))
	for n := 0; n <= 3*rowTile+1; n++ {
		for zeroAt := -1; zeroAt < n; zeroAt++ {
			coef := make([]float32, n)
			rows := make([]float32, max(n-1, 0)*stride+dim)
			for i := range rows {
				rows[i] = rng.Float32() - 0.5
			}
			for j := range coef {
				coef[j] = rng.Float32() - 0.5
				rows[j*stride] = -1e-30 // times a coefficient of 1e-30: a -0 product
			}
			if zeroAt >= 0 {
				coef[zeroAt] = 0
				rows[zeroAt*stride+1] = float32(math.Inf(1))
				rows[zeroAt*stride+2] = float32(math.NaN())
			}
			if n > 1 && zeroAt != 1 {
				coef[1] = 1e-30
			}
			want := []float32{negZero, 0, 0.25, negZero, -3}
			got := append([]float32(nil), want...)
			for j, c := range coef {
				if c == 0 {
					continue
				}
				for d := range want {
					want[d] += c * rows[j*stride+d]
				}
			}
			AxpyRows(got, coef, rows, stride)
			if !sameBits(got, want) {
				t.Fatalf("%d rows, zero at %d: AxpyRows = %v, row-at-a-time = %v", n, zeroAt, got, want)
			}
		}
	}
}

// TestMatMulTiledZeroSkip: with the panel fold tiled, MatMul must still equal
// the plain triple loop bit for bit at every shared dimension mod the tile,
// and a zero in a must still skip its row of b — planted rows hold Inf, which
// a multiply by zero would turn into NaN.
func TestMatMulTiledZeroSkip(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for k := 1; k <= 2*rowTile+1; k++ {
		a := randSparseMatrix(rng, 3, k)
		b := randSparseMatrix(rng, k, 7)
		for kk := 0; kk < k; kk++ {
			if kk%3 == 0 {
				for i := 0; i < a.Rows; i++ {
					a.Set(i, kk, 0)
				}
				b.Set(kk, kk%7, float32(math.Inf(1)))
			}
		}
		want := matMulNaive(a, b)
		got := NewMatrix(3, 7)
		MatMul(got, a, b)
		if !sameBits(got.Data, want.Data) {
			t.Fatalf("k=%d: tiled MatMul = %v, naive = %v", k, got.Data, want.Data)
		}
	}
}

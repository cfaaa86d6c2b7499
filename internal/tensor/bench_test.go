package tensor

import (
	"math/rand"
	"testing"
)

var macSink float32

// reportMACs reports a benchmark's multiply-add rate, the unit the engine's
// kernels are read against BenchmarkScalarMAC's ceiling in.
func reportMACs(b *testing.B, perOp int) {
	b.ReportMetric(float64(perOp)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MMAC/s")
}

// BenchmarkScalarMAC is the ceiling the pure-Go kernels are read against:
// four independent float32 multiply-add chains over one L1-resident operand
// with the multipliers held in registers, so nothing but the rate at which
// the core retires unfused scalar multiplies and adds limits it. (Four
// chains is the fastest form the compiler keeps wholly in registers; six and
// eight spill accumulators and read slower.)
func BenchmarkScalarMAC(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float32, 1024)
	for i := range x {
		x[i] = rng.Float32() - 0.5
	}
	c0, c1, c2, c3 := rng.Float32()+0.5, rng.Float32()+0.5, rng.Float32()+0.5, rng.Float32()+0.5
	var s0, s1, s2, s3 float32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range x {
			s0 += v * c0
			s1 += v * c1
			s2 += v * c2
			s3 += v * c3
		}
	}
	macSink = s0 + s1 + s2 + s3
	reportMACs(b, 4*len(x))
}

// benchFill returns n values drawn from rng, uniform in [-0.5, 0.5).
func benchFill(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32() - 0.5
	}
	return v
}

// benchSlab is a served-shape KV slab: 384 rows of 32 floats, L2-resident.
func benchSlab() (q, rows, coef []float32) {
	rng := rand.New(rand.NewSource(2))
	return benchFill(rng, 32), benchFill(rng, 384*32), benchFill(rng, 384)
}

// BenchmarkDotRows is the attention score kernel on its own.
func BenchmarkDotRows(b *testing.B) {
	q, rows, dst := benchSlab()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		macSink = DotRows(dst, q, rows, len(q), 0.25, NegInf)
	}
	reportMACs(b, len(rows))
}

// BenchmarkAxpyRows is the fold kernel on its own at the three shapes the
// engine calls it with:
//   - Served: one output row of the served model's K/V GEMM, 32
//     coefficients (the hidden width) over 32 columns;
//   - Fold: the served attention value mix, 384 keys over one 32-wide head;
//   - BenchGR: one output row of a BenchGR FFN GEMM panel, 256 coefficients
//     over 1024 columns.
func BenchmarkAxpyRows(b *testing.B) {
	for _, sh := range []struct {
		name       string
		coef, cols int
	}{{"Served", 32, 32}, {"Fold", 384, 32}, {"BenchGR", 256, 1024}} {
		b.Run(sh.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			out, rows, coef := benchFill(rng, sh.cols), benchFill(rng, sh.coef*sh.cols), benchFill(rng, sh.coef)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(out)
				AxpyRows(out, coef, rows, sh.cols)
			}
			macSink = out[0]
			reportMACs(b, len(rows))
		})
	}
}

// BenchmarkRoPERows rotates 128 rows of one 32-wide head at ascending
// memoized positions, the served model's K rotation for a 128-token prefix.
func BenchmarkRoPERows(b *testing.B) {
	const n, dim = 128, 32
	tab := NewRoPETable(dim, 10000)
	m := benchFill(rand.New(rand.NewSource(3)), n*dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < n; r++ {
			tab.RotateHeads(m[r*dim:(r+1)*dim], r)
		}
	}
	macSink = m[0]
}

// BenchmarkRMSNormRows normalizes 128 rows of the served hidden width 32.
func BenchmarkRMSNormRows(b *testing.B) {
	const n, dim = 128, 32
	rng := rand.New(rand.NewSource(4))
	src, weight := benchFill(rng, n*dim), benchFill(rng, dim)
	dst := make([]float32, n*dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RMSNormRows(dst, src, weight, 1e-5)
	}
	macSink = dst[0]
}

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

// benchSlab is a served-shape KV slab: 384 rows of 32 floats, L2-resident.
func benchSlab() (q, rows, coef []float32) {
	rng := rand.New(rand.NewSource(2))
	fill := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = rng.Float32() - 0.5
		}
		return v
	}
	return fill(32), fill(384 * 32), fill(384)
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

// BenchmarkAxpyRows is the attention value mix (and GEMM panel fold) kernel
// on its own.
func BenchmarkAxpyRows(b *testing.B) {
	out, rows, coef := benchSlab()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(out)
		AxpyRows(out, coef, rows, len(out))
	}
	macSink = out[0]
	reportMACs(b, len(rows))
}

package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// sameBitsNaN is sameBits with every NaN equal to every other. NaN payloads
// are not a property even the Go kernels keep: which operand's payload an
// add propagates depends on the operand order the compiler picks, so two
// spellings of one Go loop can already differ there.
func sameBitsNaN(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x != x && y != y {
			continue
		}
		if math.Float32bits(x) != math.Float32bits(y) {
			return false
		}
	}
	return true
}

// kernelValue draws an operand: mostly ordinary values, and with specials on
// also subnormals, both zeros, both infinities and NaN.
func kernelValue(rng *rand.Rand, specials bool) float32 {
	if specials {
		switch rng.Intn(64) {
		case 0, 1, 2:
			return math.Float32frombits(uint32(rng.Intn(1 << 23))) // subnormal or +0
		case 3, 4:
			return -math.Float32frombits(uint32(rng.Intn(1<<23) + 1))
		case 5:
			return float32(math.Copysign(0, -1))
		case 6:
			return float32(math.Inf(1 - 2*rng.Intn(2)))
		case 7:
			return float32(math.NaN())
		}
	}
	return float32(rng.NormFloat64())
}

// checkAxpyRows runs AxpyRows and the Go fold it must equal on copies of one
// dst and reports whether their bits agree.
func checkAxpyRows(t *testing.T, dst, coef, rows []float32, stride int) {
	t.Helper()
	got := append([]float32(nil), dst...)
	want := append([]float32(nil), dst...)
	AxpyRows(got, coef, rows, stride)
	axpyRowsGo(want, coef, rows, stride)
	if !sameBitsNaN(got, want) {
		for d := range got {
			if !sameBitsNaN(got[d:d+1], want[d:d+1]) {
				t.Fatalf("%d cols, %d rows, stride %d: column %d = %v (%#08x), Go fold = %v (%#08x)",
					len(dst), len(coef), stride, d, got[d], math.Float32bits(got[d]), want[d], math.Float32bits(want[d]))
			}
		}
	}
}

// TestAxpyRowsVecMatchesGo pins the AVX2 fold to the Go fold bit for bit: at
// every column count 0-300 (every tail 0-7 beside every mix of 32- and
// 8-column blocks), every row count 0-40, strides wider than dst, dst and
// slab starting at unaligned offsets inside larger buffers, and operands
// with subnormals, both zeros, both infinities and NaN. A zero coefficient
// must skip its row even when the row holds Inf and NaN.
func TestAxpyRowsVecMatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 kernels in this build or on this CPU")
	}
	rng := rand.New(rand.NewSource(43))
	for cols := 0; cols <= 300; cols++ {
		for _, k := range []int{cols % 41, (7*cols + 3) % 41} {
			specials := (cols+k)%2 == 0
			stride := cols + rng.Intn(6)
			dOff, rOff := rng.Intn(8), rng.Intn(8)
			dbuf := make([]float32, dOff+cols+3)
			rbuf := make([]float32, rOff+max(k-1, 0)*stride+cols+rng.Intn(3))
			for i := range dbuf {
				dbuf[i] = kernelValue(rng, specials)
			}
			for i := range rbuf {
				rbuf[i] = kernelValue(rng, specials)
			}
			coef := make([]float32, k)
			for j := range coef {
				switch rng.Intn(6) {
				case 0:
					coef[j] = 0
				case 1:
					coef[j] = float32(math.Copysign(0, -1))
				default:
					coef[j] = kernelValue(rng, specials)
				}
				if coef[j] == 0 && cols > 0 {
					row := rbuf[rOff+j*stride:]
					row[rng.Intn(cols)] = float32(math.Inf(1))
					row[rng.Intn(cols)] = float32(math.NaN())
				}
			}
			checkAxpyRows(t, dbuf[dOff:dOff+cols], coef, rbuf[rOff:], stride)
		}
	}

	// Zero coefficients alone leave dst untouched, Inf and NaN rows or not.
	rows := make([]float32, 4*40)
	for i := range rows {
		rows[i] = float32(math.Inf(1 - 2*(i%2)))
	}
	rows[7] = float32(math.NaN())
	dst := make([]float32, 40)
	for i := range dst {
		dst[i] = float32(i) - 20
	}
	want := append([]float32(nil), dst...)
	AxpyRows(dst, []float32{0, float32(math.Copysign(0, -1)), 0, 0}, rows, 40)
	if !sameBits(dst, want) {
		t.Fatalf("zero coefficients changed dst: %v", dst)
	}
}

// FuzzAxpyRows compares AxpyRows with the Go fold on arbitrary bit patterns:
// the fuzzer's bytes become the float32 operands, and its integers the
// shape, stride and offsets.
func FuzzAxpyRows(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 0, 0, 0, 128, 127, 0, 0, 192, 127}, uint16(37), uint8(5), uint8(3), uint8(1))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 128, 0, 0, 128, 255}, uint16(32), uint8(4), uint8(0), uint8(0))
	f.Add([]byte{205, 204, 76, 62, 0, 0, 0, 191}, uint16(300), uint8(40), uint8(9), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, cols uint16, k, pad, off uint8) {
		n, rowsN, stride := int(cols%512), int(k%48), int(cols%512)+int(pad%16)
		floats := func(count, seed int) []float32 {
			v := make([]float32, count)
			if len(data) < 4 {
				return v
			}
			for i := range v {
				o := (4*i + seed) % (len(data) - 3)
				v[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[o:]))
			}
			return v
		}
		o := int(off % 8)
		dst := floats(o+n, 0)[o:]
		coef := floats(rowsN, 1)
		rows := floats(o+max(rowsN-1, 0)*stride+n, 2)[o:]
		checkAxpyRows(t, dst, coef, rows, stride)
	})
}

// TestRotateHeadsMatchesRotate pins the row rotation (vector where AVX2 is
// available) to the scalar Rotate, head by head, at every even head
// dimension 2-128, on memoized positions and on the direct-formula ones.
func TestRotateHeadsMatchesRotate(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for dim := 2; dim <= 128; dim += 2 {
		tab := NewRoPETable(dim, 10000)
		for _, heads := range []int{1, 3} {
			for _, pos := range []int{0, 1, 17, 255, maxRoPEMemoPos + 5, -3} {
				row := make([]float32, heads*dim)
				for i := range row {
					row[i] = kernelValue(rng, dim%4 == 0)
				}
				want := append([]float32(nil), row...)
				for h := 0; h < heads; h++ {
					tab.Rotate(want[h*dim:(h+1)*dim], pos)
				}
				tab.RotateHeads(row, pos)
				if !sameBitsNaN(row, want) {
					t.Fatalf("dim %d, %d heads, pos %d: RotateHeads = %v, Rotate = %v", dim, heads, pos, row, want)
				}
			}
		}
	}
}

// TestRMSNormRowsMatchesRMSNorm pins the four-row normalization to RMSNorm
// row by row, at every row count 0-9 (so every remainder of the four-row
// step), into a separate dst and in place.
func TestRMSNormRowsMatchesRMSNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, cols := range []int{1, 7, 32, 33} {
		weight := make([]float32, cols)
		for i := range weight {
			weight[i] = kernelValue(rng, false)
		}
		for rows := 0; rows <= 9; rows++ {
			src := make([]float32, rows*cols)
			for i := range src {
				src[i] = kernelValue(rng, rows == 9)
			}
			want := make([]float32, len(src))
			for r := 0; r < rows; r++ {
				RMSNorm(want[r*cols:(r+1)*cols], src[r*cols:(r+1)*cols], weight, 1e-5)
			}
			got := make([]float32, len(src))
			RMSNormRows(got, src, weight, 1e-5)
			RMSNormRows(src, src, weight, 1e-5)
			if !sameBitsNaN(got, want) || !sameBitsNaN(src, want) {
				t.Fatalf("%d rows of %d: RMSNormRows = %v (in place %v), RMSNorm = %v", rows, cols, got, src, want)
			}
		}
	}
}

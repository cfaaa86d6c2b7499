//go:build !amd64 || purego

package tensor

// useAVX2 is false off amd64 and under the purego tag (the standard library's
// convention for building without assembly), so every kernel takes its Go
// code and the vector branches compile away.
const useAVX2 = false

func axpyRowsAVX2(dst, coef, rows []float32, stride int) { panic("tensor: no vector kernels") }

func ropeRowAVX2(v, cs []float32) { panic("tensor: no vector kernels") }

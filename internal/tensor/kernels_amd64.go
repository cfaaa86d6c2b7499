//go:build !purego

package tensor

// useAVX2 selects the vector kernels in kernels_amd64.s. It is read once at
// package init, so a kernel call pays one predictable branch for it.
var useAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

//go:noescape
func axpyRowsAVX2(dst, coef, rows []float32, stride int)

//go:noescape
func ropeRowAVX2(v, cs []float32)

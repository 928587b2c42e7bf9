//go:build !amd64

package tensor

// Portable fallback: no vector tiles, so the active kernel is always the
// generic scalar one.

// F32Kernel reports which matmul kernel MatMulF32 dispatches to on this
// CPU: always "generic" off amd64.
func F32Kernel() string { return "generic" }

// matMulF32Range computes dst rows [lo, hi) of DenseF32.
func matMulF32Range(dst, a, b *Matrix32, bias []float32, relu bool, lo, hi int) {
	matMulF32Generic(dst, a, b, bias, relu, lo, hi)
}

package tensor

// Runtime dispatch for the float32 matmul tiles (matmul32_amd64.s). The
// tiles need AVX2+FMA at least; the 64-wide tiles additionally need
// AVX-512F with the OS saving ZMM state. Feature detection is
// stdlib-only: CPUID for the feature bits, XGETBV for what the OS
// actually context-switches.

// Each tile finishes with DenseF32's epilogue before its store: bias
// (nil = none) points at the tile's first output column of the bias
// vector, and relu clamps to +0 with VMAXPS against a zeroed register.

//go:noescape
func denseTile4x64(dst *float32, dstStride uintptr, b *float32, bStride uintptr, a *float32, aStride uintptr, k uintptr, bias *float32, relu bool)

//go:noescape
func denseTile1x64(dst *float32, b *float32, bStride uintptr, a *float32, k uintptr, bias *float32, relu bool)

//go:noescape
func denseTile2x32(dst *float32, dstStride uintptr, b *float32, bStride uintptr, a *float32, aStride uintptr, k uintptr, bias *float32, relu bool)

//go:noescape
func denseTile1x32(dst *float32, b *float32, bStride uintptr, a *float32, k uintptr, bias *float32, relu bool)

//go:noescape
func fma32(a, b, c float32) float32

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

var useAVX2, useAVX512 = detectF32Kernels()

func detectF32Kernels() (avx2, avx512 bool) {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false, false
	}
	_, _, c1, _ := cpuid(1, 0)
	const (
		cpuidFMA     = 1 << 12
		cpuidOSXSAVE = 1 << 27
		cpuidAVX     = 1 << 28
	)
	if c1&cpuidFMA == 0 || c1&cpuidOSXSAVE == 0 || c1&cpuidAVX == 0 {
		return false, false
	}
	xcr0, _ := xgetbv()
	const (
		xcr0SSEAVX = 0x6  // XMM + YMM state saved by the OS
		xcr0ZMM    = 0xe0 // opmask + ZMM state saved by the OS
	)
	if xcr0&xcr0SSEAVX != xcr0SSEAVX {
		return false, false
	}
	_, b7, _, _ := cpuid(7, 0)
	const (
		cpuidAVX2    = 1 << 5
		cpuidAVX512F = 1 << 16
	)
	if b7&cpuidAVX2 == 0 {
		return false, false
	}
	avx2 = true
	avx512 = b7&cpuidAVX512F != 0 && xcr0&xcr0ZMM == xcr0ZMM
	return avx2, avx512
}

// F32Kernel reports which matmul kernel MatMulF32 dispatches to on this
// CPU: "avx512", "avx2", or "generic".
func F32Kernel() string {
	switch {
	case useAVX512:
		return "avx512"
	case useAVX2:
		return "avx2"
	default:
		return "generic"
	}
}

// matMulF32Range computes dst rows [lo, hi) of DenseF32, through the
// vector tiles when the CPU has them. Column blocking is uniform across
// the AVX-512 and AVX2 paths — the FMA-accumulated region is always
// b.Cols&^31 — so the two produce identical bits (the 64-wide path covers
// b.Cols&^63 with ZMM tiles and the optional trailing 32-wide panel with
// the YMM tiles).
func matMulF32Range(dst, a, b *Matrix32, bias []float32, relu bool, lo, hi int) {
	if !useAVX2 || hi <= lo {
		matMulF32Generic(dst, a, b, bias, relu, lo, hi)
		return
	}
	k, n := a.Cols, b.Cols
	dStride := uintptr(n) * 4
	bStride := uintptr(n) * 4
	aStride := uintptr(k) * 4
	uk := uintptr(k)
	j := 0
	if useAVX512 {
		for ; j+64 <= n; j += 64 {
			bp := biasAt(bias, j)
			i := lo
			for ; i+4 <= hi; i += 4 {
				denseTile4x64(&dst.Data[i*n+j], dStride, &b.Data[j], bStride, &a.Data[i*k], aStride, uk, bp, relu)
			}
			for ; i < hi; i++ {
				denseTile1x64(&dst.Data[i*n+j], &b.Data[j], bStride, &a.Data[i*k], uk, bp, relu)
			}
		}
	}
	for ; j+32 <= n; j += 32 {
		bp := biasAt(bias, j)
		i := lo
		for ; i+2 <= hi; i += 2 {
			denseTile2x32(&dst.Data[i*n+j], dStride, &b.Data[j], bStride, &a.Data[i*k], aStride, uk, bp, relu)
		}
		for ; i < hi; i++ {
			denseTile1x32(&dst.Data[i*n+j], &b.Data[j], bStride, &a.Data[i*k], uk, bp, relu)
		}
	}
	if j < n {
		matMulF32ColTail(dst, a, b, bias, relu, lo, hi, j)
	}
}

// biasAt returns the tile argument for the bias panel starting at column
// j: nil when there is no bias.
func biasAt(bias []float32, j int) *float32 {
	if bias == nil {
		return nil
	}
	return &bias[j]
}

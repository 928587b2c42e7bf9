package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// goldenF32 is the rounding-contract reference for the assembly path:
// columns below b.Cols&^31 are a scalar FMA accumulation over k in
// ascending order (fma32 is a single VFMADD231SS), the remaining tail
// columns are scalar multiply-then-add. Every vector tile must match it
// bit for bit — tiles only regroup independent output elements.
func goldenF32(a, b *Matrix32) *Matrix32 {
	return goldenDenseF32(a, b, nil, false)
}

// goldenDenseF32 is goldenF32 followed by DenseF32's epilogue on the
// finished accumulators: bias add (one rounding), then ReLU.
func goldenDenseF32(a, b *Matrix32, bias []float32, relu bool) *Matrix32 {
	dst := New32(a.Rows, b.Cols)
	blocked := b.Cols &^ 31
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < blocked; j++ {
			var acc float32
			for k := 0; k < a.Cols; k++ {
				acc = fma32(a.At(i, k), b.At(k, j), acc)
			}
			dst.Set(i, j, acc)
		}
		for j := blocked; j < b.Cols; j++ {
			var acc float32
			for k := 0; k < a.Cols; k++ {
				acc += a.At(i, k) * b.At(k, j)
			}
			dst.Set(i, j, acc)
		}
	}
	return withEpilogue(dst, bias, relu)
}

// goldenShapes cover every tile-dispatch edge: row tails (m mod 4,
// m mod 2), the 64-wide/32-wide panel boundary, and sub-32 column tails.
var goldenShapes = [][3]int{
	{1, 1, 1},
	{1, 7, 31},  // all-tail columns
	{2, 9, 32},  // exactly one YMM panel
	{3, 33, 33}, // YMM panel + 1 tail column
	{5, 96, 63},
	{4, 50, 64}, // exactly one ZMM panel on avx512
	{7, 130, 65},
	{6, 2, 96},
	{9, 64, 97},
	{13, 200, 160},
	{5, 491, 491}, // paper input width, odd everything
	{33, 100, 128},
}

// TestMatMulF32GoldenBits pins the vector tiles to the scalar FMA
// reference across every tile-dispatch edge: row tails (m mod 4, m mod 2),
// the 64-wide/32-wide panel boundary, and sub-32 column tails.
func TestMatMulF32GoldenBits(t *testing.T) {
	if F32Kernel() == "generic" {
		t.Skip("no AVX2+FMA on this CPU; vector tiles not in play")
	}
	t.Logf("active kernel: %s", F32Kernel())
	r := rand.New(rand.NewSource(41))
	for _, sh := range goldenShapes {
		a := rand32(r, sh[0], sh[1], 0.5)
		b := rand32(r, sh[1], sh[2], 0.1)
		got := New32(sh[0], sh[2])
		MatMulF32(got, a, b)
		want := goldenF32(a, b)
		if i, ok := bitsEqual32(got, want); !ok {
			t.Fatalf("shape %v: kernel %s differs from golden reference at flat index %d: %x vs %x",
				sh, F32Kernel(), i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
		}
	}
}

// forEachF32Kernel runs fn once per kernel this CPU can execute —
// avx512, avx2, generic — by toggling the dispatch flags, so an AVX-512
// host also exercises the full AVX2 and portable paths.
func forEachF32Kernel(t *testing.T, fn func(t *testing.T, kernel string)) {
	t.Helper()
	avx2, avx512 := useAVX2, useAVX512
	defer func() { useAVX2, useAVX512 = avx2, avx512 }()
	for _, k := range []struct{ avx2, avx512 bool }{{true, true}, {true, false}, {false, false}} {
		if k.avx2 && !avx2 || k.avx512 && !avx512 {
			continue // the CPU cannot run this kernel
		}
		useAVX2, useAVX512 = k.avx2, k.avx512
		t.Run(F32Kernel(), func(t *testing.T) { fn(t, F32Kernel()) })
	}
}

// referenceDenseF32 is the bit-exact reference for DenseF32 on kernel:
// the scalar-FMA golden for the vector tiles, the naive multiply-then-add
// loop for the portable kernel; both followed by the epilogue.
func referenceDenseF32(kernel string, a, b *Matrix32, bias []float32, relu bool) *Matrix32 {
	if kernel == "generic" {
		return withEpilogue(naiveF32(a, b), bias, relu)
	}
	return goldenDenseF32(a, b, bias, relu)
}

// TestDenseF32GoldenBitsAllKernels runs the golden shapes through
// DenseF32 with every epilogue combination on every kernel the CPU has.
func TestDenseF32GoldenBitsAllKernels(t *testing.T) {
	forEachF32Kernel(t, func(t *testing.T, kernel string) {
		r := rand.New(rand.NewSource(42))
		for _, sh := range goldenShapes {
			a := rand32(r, sh[0], sh[1], 0.5)
			b := rand32(r, sh[1], sh[2], 0.1)
			for _, ep := range epilogueCases(r, sh[2]) {
				got := New32(sh[0], sh[2])
				DenseF32(got, a, b, ep.bias, ep.relu)
				want := referenceDenseF32(kernel, a, b, ep.bias, ep.relu)
				if i, ok := bitsEqual32(got, want); !ok {
					t.Fatalf("shape %v bias=%t relu=%t: differs from reference at flat index %d: %x vs %x",
						sh, ep.bias != nil, ep.relu, i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
				}
			}
		}
	})
}

// TestDenseF32EpilogueSpecialValues builds accumulators that are
// negative, NaN, −0 and positive in a repeating column pattern, over 99
// columns and 5 rows so the 4x64, 1x64, 2x32 and 1x32 tiles and the
// scalar column tail all see every kind. The −0 comes from an FMA whose
// exact product underflows: fma(1e-30, -1e-30, +0) rounds to −0, while
// multiply-then-add gives +0 + −0 = +0.
func TestDenseF32EpilogueSpecialValues(t *testing.T) {
	const rows, cols = 5, 99
	a := New32(rows, 2)
	for i := 0; i < rows; i++ {
		a.Set(i, 0, 1)
		a.Set(i, 1, 1e-30)
	}
	b := New32(2, cols)
	nan := float32(math.NaN())
	for j := 0; j < cols; j++ {
		switch j % 4 {
		case 0:
			b.Set(0, j, -1.5) // negative
		case 1:
			b.Set(0, j, nan) // NaN
		case 2:
			b.Set(1, j, -1e-30) // −0 on the FMA path
		case 3:
			b.Set(0, j, 2.5) // positive
		}
	}
	forEachF32Kernel(t, func(t *testing.T, kernel string) {
		plain := New32(rows, cols)
		MatMulF32(plain, a, b)
		if i, ok := bitsEqual32(plain, referenceDenseF32(kernel, a, b, nil, false)); !ok {
			t.Fatalf("MatMulF32 differs from reference at flat index %d", i)
		}
		// Without a bias nothing is added: the FMA columns keep their −0.
		if kernel != "generic" && !math.Signbit(float64(plain.At(0, 2))) {
			t.Fatalf("nil bias: −0 product sum became %x", math.Float32bits(plain.At(0, 2)))
		}
		// Adding a +0 bias is not the same: −0 + +0 = +0.
		biased := New32(rows, cols)
		DenseF32(biased, a, b, make([]float32, cols), false)
		if math.Signbit(float64(biased.At(0, 2))) {
			t.Fatal("+0 bias must turn a −0 sum into +0")
		}
		fused := New32(rows, cols)
		DenseF32(fused, a, b, nil, true)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				want := uint32(0)
				if j%4 == 3 {
					want = math.Float32bits(2.5)
				}
				if got := math.Float32bits(fused.At(i, j)); got != want {
					t.Fatalf("relu (%d,%d) kind %d: got %x, want %x", i, j, j%4, got, want)
				}
			}
		}
	})
}

// TestFMA32SingleRounding sanity-checks the reference primitive itself:
// a*b+c with one rounding must beat multiply-then-add on a case built to
// expose double rounding.
func TestFMA32SingleRounding(t *testing.T) {
	if F32Kernel() == "generic" {
		t.Skip("fma32 requires FMA hardware")
	}
	a := float32(1 + 0x1p-12)
	got := fma32(a, a, -1)
	want := float32(math.FMA(float64(a), float64(a), -1)) // exact: fits float64
	if got != want {
		t.Fatalf("fma32(%g, %g, -1) = %g, want %g", a, a, got, want)
	}
	if mulAdd := a*a - 1; got == mulAdd {
		t.Fatalf("fma32 indistinguishable from multiply-then-add on %g", a)
	}
}

package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// rand32 fills a rows×cols matrix with values in [-2, 2), forcing roughly
// zeroFrac of them to exact zero (the paper's binary feature rows are
// mostly zeros, and the generic kernel has a zero-skip worth covering).
func rand32(r *rand.Rand, rows, cols int, zeroFrac float64) *Matrix32 {
	m := New32(rows, cols)
	for i := range m.Data {
		if r.Float64() < zeroFrac {
			continue
		}
		m.Data[i] = float32(r.Float64()*4 - 2)
	}
	return m
}

func bitsEqual32(a, b *Matrix32) (int, bool) {
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return i, false
		}
	}
	return -1, true
}

// naiveF32 is the textbook multiply-then-add triple loop with no zero
// skipping and no blocking — the semantic definition the portable kernel
// must match bit for bit on finite inputs.
func naiveF32(a, b *Matrix32) *Matrix32 {
	dst := New32(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var acc float32
			for k := 0; k < a.Cols; k++ {
				acc += a.At(i, k) * b.At(k, j)
			}
			dst.Set(i, j, acc)
		}
	}
	return dst
}

// withEpilogue applies DenseF32's epilogue to a reference product the way
// an unfused layer does: an ordinary float32 add of bias[j] to column j
// (when bias is non-nil), then v > 0 ? v : 0 (when relu). It overwrites m
// and returns it.
func withEpilogue(m *Matrix32, bias []float32, relu bool) *Matrix32 {
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			v := m.At(i, j)
			if bias != nil {
				v += bias[j]
			}
			if relu && !(v > 0) {
				v = 0
			}
			m.Set(i, j, v)
		}
	}
	return m
}

// epilogueCases are the (bias, relu) combinations every DenseF32 test
// runs: matmul only, bias only, ReLU only, and the fused dense layer.
func epilogueCases(r *rand.Rand, cols int) []struct {
	bias []float32
	relu bool
} {
	bias := rand32(r, 1, cols, 0.2).Data
	return []struct {
		bias []float32
		relu bool
	}{{nil, false}, {bias, false}, {nil, true}, {bias, true}}
}

func TestMatMulF32GenericMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, sh := range [][3]int{{1, 1, 1}, {3, 17, 5}, {7, 64, 33}, {16, 100, 70}} {
		a := rand32(r, sh[0], sh[1], 0.4)
		b := rand32(r, sh[1], sh[2], 0.2)
		for _, ep := range epilogueCases(r, sh[2]) {
			got := New32(sh[0], sh[2])
			matMulF32Generic(got, a, b, ep.bias, ep.relu, 0, a.Rows)
			want := withEpilogue(naiveF32(a, b), ep.bias, ep.relu)
			if i, ok := bitsEqual32(got, want); !ok {
				t.Fatalf("shape %v bias=%t relu=%t: generic differs from naive at flat index %d: %g vs %g",
					sh, ep.bias != nil, ep.relu, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestMatMulF32MatchesFloat64(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	a := rand32(r, 32, 491, 0.7)
	b := rand32(r, 491, 96, 0)
	got := New32(32, 96)
	MatMulF32(got, a, b)
	want := New(32, 96)
	MatMul(want, a.Float64(), b.Float64())
	for i := range got.Data {
		if d := math.Abs(float64(got.Data[i]) - want.Data[i]); d > 1e-3 {
			t.Fatalf("flat index %d: float32 %g vs float64 %g (delta %g)",
				i, got.Data[i], want.Data[i], d)
		}
	}
}

func TestMatMulF32ParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	a := rand32(r, 37, 130, 0.3)
	b := rand32(r, 130, 97, 0)
	for _, ep := range epilogueCases(r, b.Cols) {
		serial := New32(37, 97)
		matMulF32Range(serial, a, b, ep.bias, ep.relu, 0, a.Rows)
		for _, workers := range []int{2, 3, 8, 64} {
			par := New32(37, 97)
			matMulF32Parallel(par, a, b, ep.bias, ep.relu, workers)
			if i, ok := bitsEqual32(par, serial); !ok {
				t.Fatalf("workers=%d bias=%t relu=%t: parallel differs from serial at flat index %d",
					workers, ep.bias != nil, ep.relu, i)
			}
		}
	}
}

func TestMatMulF32DegenerateShapes(t *testing.T) {
	// Zero inner dimension: dst must be cleared, not left stale.
	dst := FromSlice32(2, 3, []float32{1, 2, 3, 4, 5, 6})
	MatMulF32(dst, New32(2, 0), New32(0, 3))
	for i, v := range dst.Data {
		if v != 0 {
			t.Fatalf("k=0: dst[%d] = %g, want 0", i, v)
		}
	}
	// Zero rows / zero cols: no panic, nothing to write.
	MatMulF32(New32(0, 3), New32(0, 5), New32(5, 3))
	MatMulF32(New32(2, 0), New32(2, 5), New32(5, 0))
}

// TestDenseF32ZeroInnerDimAppliesEpilogue: with k = 0 every accumulator
// is +0, so the output is exactly the epilogue of +0 — the bias (with
// +0 + −0 = +0), then ReLU.
func TestDenseF32ZeroInnerDimAppliesEpilogue(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	bias := []float32{1, -2, negZero}
	for _, relu := range []bool{false, true} {
		dst := FromSlice32(2, 3, []float32{7, 7, 7, 7, 7, 7})
		DenseF32(dst, New32(2, 0), New32(0, 3), bias, relu)
		want := withEpilogue(New32(2, 3), bias, relu)
		if i, ok := bitsEqual32(dst, want); !ok {
			t.Fatalf("relu=%t: k=0 dst[%d] = %x, want %x", relu, i,
				math.Float32bits(dst.Data[i]), math.Float32bits(want.Data[i]))
		}
		if math.Signbit(float64(dst.At(1, 2))) {
			t.Fatalf("relu=%t: +0 accumulator plus −0 bias must be +0", relu)
		}
	}
}

// TestDenseF32BiasAdd is the plain bias-add case (the former
// AddRowVector32 contract): identity weights, so dst = a + bias row-wise,
// and a bias of the wrong length panics.
func TestDenseF32BiasAdd(t *testing.T) {
	a := FromSlice32(2, 2, []float32{1, 2, 3, 4})
	id := FromSlice32(2, 2, []float32{1, 0, 0, 1})
	dst := New32(2, 2)
	DenseF32(dst, a, id, []float32{10, 20}, false)
	want := []float32{11, 22, 13, 24}
	for i, v := range want {
		if dst.Data[i] != v {
			t.Fatalf("Data[%d] = %g, want %g", i, dst.Data[i], v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bias length mismatch")
		}
	}()
	DenseF32(dst, a, id, []float32{1}, false)
}

func TestMatMulF32PanicsOnShapeMismatch(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("inner", func() { MatMulF32(New32(2, 3), New32(2, 4), New32(5, 3)) })
	mustPanic("dst", func() { MatMulF32(New32(9, 9), New32(2, 4), New32(4, 3)) })
}

func TestMatrix32Basics(t *testing.T) {
	m := New32(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 || m.Data[5] != 7 {
		t.Fatalf("Set/At: got %g", m.At(1, 2))
	}
	m.Row(0)[1] = 4
	if m.At(0, 1) != 4 {
		t.Fatal("Row must be a view, not a copy")
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("Clone must not share backing storage")
	}
	if !m.SameShape(c) || m.SameShape(New32(3, 2)) {
		t.Fatal("SameShape mismatch")
	}
	am := FromSlice32(2, 3, []float32{1, 5, 5, -1, -1, -3})
	if am.RowArgmax(0) != 1 {
		t.Fatalf("RowArgmax tie must break low: got %d", am.RowArgmax(0))
	}
	if am.RowArgmax(1) != 0 {
		t.Fatalf("RowArgmax row 1: got %d", am.RowArgmax(1))
	}
	if am.HasNaN() {
		t.Fatal("HasNaN on finite data")
	}
	am.Set(1, 1, float32(math.Inf(-1)))
	if !am.HasNaN() {
		t.Fatal("HasNaN must flag Inf")
	}
	am.Set(1, 1, float32(math.NaN()))
	if !am.HasNaN() {
		t.Fatal("HasNaN must flag NaN")
	}
}

func TestFloat32Float64Conversions(t *testing.T) {
	src := FromSlice32(1, 4, []float32{0, 1, -0.5, float32(math.Pi)})
	back := ToFloat32(src.Float64())
	if i, ok := bitsEqual32(src, back); !ok {
		t.Fatalf("f32→f64→f32 not exact at %d", i)
	}
	big := FromSlice(1, 2, []float64{math.MaxFloat64, -1e300})
	n := ToFloat32(big)
	if !math.IsInf(float64(n.Data[0]), 1) || !math.IsInf(float64(n.Data[1]), -1) {
		t.Fatalf("overflow must narrow to ±Inf, got %v", n.Data)
	}
}

// Benchmark shapes are the paper model's layers (491→1200→1500→1300→2) at
// a 256-row batch. Regenerate BENCH_infer.json
// from these plus the internal/nn inference benchmarks.
var benchShapes = []struct {
	name    string
	m, k, n int
}{
	{"256x491x1200", 256, 491, 1200},
	{"256x1200x1500", 256, 1200, 1500},
	{"256x1500x1300", 256, 1500, 1300},
	{"256x1300x2", 256, 1300, 2},
}

func BenchmarkMatMulF32(b *testing.B) {
	r := rand.New(rand.NewSource(31))
	for _, sh := range benchShapes {
		a := rand32(r, sh.m, sh.k, 0.7)
		w := rand32(r, sh.k, sh.n, 0)
		dst := New32(sh.m, sh.n)
		b.Run(sh.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMulF32(dst, a, w)
			}
		})
	}
}

func BenchmarkMatMulF64(b *testing.B) {
	r := rand.New(rand.NewSource(32))
	for _, sh := range benchShapes {
		a := rand32(r, sh.m, sh.k, 0.7).Float64()
		w := rand32(r, sh.k, sh.n, 0).Float64()
		dst := New(sh.m, sh.n)
		b.Run(sh.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMul(dst, a, w)
			}
		})
	}
}

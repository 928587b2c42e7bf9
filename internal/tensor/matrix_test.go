package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"malevade/internal/rng"
)

func TestNewZeroFilled(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) shape = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestFromRowsAndAt(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	tests := []struct {
		i, j int
		want float64
	}{
		{0, 0, 1}, {0, 1, 2}, {1, 0, 3}, {1, 1, 4}, {2, 0, 5}, {2, 1, 6},
	}
	for _, tt := range tests {
		if got := m.At(tt.i, tt.j); got != tt.want {
			t.Errorf("At(%d,%d) = %v, want %v", tt.i, tt.j, got, tt.want)
		}
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows != 0 || m.Cols != 0 {
		t.Fatalf("FromRows(nil) = %dx%d", m.Rows, m.Cols)
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with bad length did not panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestRowIsView(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	m.Row(1)[0] = 99
	if m.At(1, 0) != 99 {
		t.Fatal("Row did not return a view")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape = %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMatMulKnownProduct(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	dst := New(2, 2)
	MatMul(dst, a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	for i := range dst.Data {
		if dst.Data[i] != want.Data[i] {
			t.Fatalf("MatMul = %v, want %v", dst.Data, want.Data)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := rng.New(1)
	a := randomMatrix(r, 7, 7)
	id := New(7, 7)
	for i := 0; i < 7; i++ {
		id.Set(i, i, 1)
	}
	dst := New(7, 7)
	MatMul(dst, a, id)
	for i := range a.Data {
		if math.Abs(dst.Data[i]-a.Data[i]) > 1e-12 {
			t.Fatal("A×I != A")
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	tests := []struct {
		name string
		f    func()
	}{
		{
			name: "inner mismatch",
			f:    func() { MatMul(New(2, 2), New(2, 3), New(4, 2)) },
		},
		{
			name: "dst mismatch",
			f:    func() { MatMul(New(3, 3), New(2, 3), New(3, 2)) },
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tt.f()
		})
	}
}

// Property: MatMulBT(a, b) == MatMul(a, bᵀ) bit for bit for random
// shapes: both add the products of each dot product in ascending order.
func TestMatMulBTMatchesExplicitTranspose(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 25; trial++ {
		m, k, n := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a := randomMatrix(r, m, k)
		b := randomMatrix(r, n, k)
		got := New(m, n)
		MatMulBT(got, a, b)
		want := New(m, n)
		MatMul(want, a, b.Transpose())
		for i, v := range want.Data {
			if got.Data[i] != v {
				t.Fatalf("trial %d (%dx%d·%dx%dᵀ): [%d] = %v, want %v bit for bit", trial, m, k, n, k, i, got.Data[i], v)
			}
		}
	}
}

// Property: MatMulAT(a, b) == MatMul(aᵀ, b) for random shapes.
func TestMatMulATMatchesExplicitTranspose(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 25; trial++ {
		m, k, n := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a := randomMatrix(r, k, m)
		b := randomMatrix(r, k, n)
		got := New(m, n)
		MatMulAT(got, a, b)
		want := New(m, n)
		MatMul(want, a.Transpose(), b)
		assertAllClose(t, got, want, 1e-12)
	}
}

func TestAddSubMulScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{10, 20}, {30, 40}})
	dst := New(2, 2)

	Add(dst, a, b)
	if dst.At(1, 1) != 44 {
		t.Errorf("Add = %v", dst.Data)
	}
	Sub(dst, b, a)
	if dst.At(0, 0) != 9 {
		t.Errorf("Sub = %v", dst.Data)
	}
	Mul(dst, a, b)
	if dst.At(0, 1) != 40 {
		t.Errorf("Mul = %v", dst.Data)
	}
	Scale(dst, 2, a)
	if dst.At(1, 0) != 6 {
		t.Errorf("Scale = %v", dst.Data)
	}
	AXPY(dst, 10, a) // dst = 2a + 10a = 12a
	if dst.At(1, 1) != 48 {
		t.Errorf("AXPY = %v", dst.Data)
	}
}

func TestAddAliasingSafe(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	Add(a, a, a)
	if a.At(0, 0) != 2 || a.At(0, 1) != 4 {
		t.Fatalf("aliased Add = %v", a.Data)
	}
}

func TestAddRowVector(t *testing.T) {
	m := FromRows([][]float64{{1, 1}, {2, 2}})
	AddRowVector(m, []float64{10, 20})
	if m.At(0, 1) != 21 || m.At(1, 0) != 12 {
		t.Fatalf("AddRowVector = %v", m.Data)
	}
}

func TestColSumsAndMeans(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	sums := make([]float64, 2)
	m.ColSums(sums)
	if sums[0] != 9 || sums[1] != 12 {
		t.Fatalf("ColSums = %v", sums)
	}
	means := make([]float64, 2)
	m.ColMeans(means)
	if means[0] != 3 || means[1] != 4 {
		t.Fatalf("ColMeans = %v", means)
	}
}

func TestColMeansEmpty(t *testing.T) {
	m := New(0, 3)
	means := []float64{1, 1, 1}
	m.ColMeans(means)
	for _, v := range means {
		if v != 0 {
			t.Fatalf("empty ColMeans = %v", means)
		}
	}
}

func TestRowArgmaxTieBreaksLow(t *testing.T) {
	m := FromRows([][]float64{{0.5, 0.5}, {0.1, 0.9}})
	if got := m.RowArgmax(0); got != 0 {
		t.Errorf("tie argmax = %d, want 0", got)
	}
	if got := m.RowArgmax(1); got != 1 {
		t.Errorf("argmax = %d, want 1", got)
	}
}

func TestClamp(t *testing.T) {
	m := FromRows([][]float64{{-1, 0.5, 2}})
	m.Clamp(0, 1)
	want := []float64{0, 0.5, 1}
	for i, v := range want {
		if m.Data[i] != v {
			t.Fatalf("Clamp = %v, want %v", m.Data, want)
		}
	}
}

func TestHasNaN(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	if m.HasNaN() {
		t.Error("clean matrix reported NaN")
	}
	m.Set(0, 0, math.NaN())
	if !m.HasNaN() {
		t.Error("NaN not detected")
	}
	m.Set(0, 0, math.Inf(1))
	if !m.HasNaN() {
		t.Error("Inf not detected")
	}
}

func TestMaxAbs(t *testing.T) {
	m := FromRows([][]float64{{-3, 2}})
	if got := m.MaxAbs(); got != 3 {
		t.Fatalf("MaxAbs = %v", got)
	}
}

// Property: (A×B)×C == A×(B×C) within float tolerance.
func TestMatMulAssociativity(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m, k, l, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := randomMatrix(r, m, k)
		b := randomMatrix(r, k, l)
		c := randomMatrix(r, l, n)

		ab := New(m, l)
		MatMul(ab, a, b)
		abc1 := New(m, n)
		MatMul(abc1, ab, c)

		bc := New(k, n)
		MatMul(bc, b, c)
		abc2 := New(m, n)
		MatMul(abc2, a, bc)

		for i := range abc1.Data {
			if math.Abs(abc1.Data[i]-abc2.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: transpose is an involution.
func TestTransposeInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m := randomMatrix(r, 1+r.Intn(10), 1+r.Intn(10))
		tt := m.Transpose().Transpose()
		if !tt.SameShape(m) {
			return false
		}
		for i := range m.Data {
			if m.Data[i] != tt.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func randomMatrix(r *rng.RNG, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}

func assertAllClose(t *testing.T, got, want *Matrix, tol float64) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("shape %dx%d != %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > tol {
			t.Fatalf("element %d: %v != %v", i, got.Data[i], want.Data[i])
		}
	}
}

func BenchmarkMatMul128(b *testing.B) {
	r := rng.New(1)
	a := randomMatrix(r, 128, 491)
	w := randomMatrix(r, 491, 256)
	dst := New(128, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, a, w)
	}
}

func BenchmarkMatMulAT128(b *testing.B) {
	r := rng.New(1)
	a := randomMatrix(r, 128, 491)
	g := randomMatrix(r, 128, 256)
	dst := New(491, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulAT(dst, a, g)
	}
}

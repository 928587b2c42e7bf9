// Package tensor implements the dense linear algebra this repository's
// neural-network engine and defenses are built on: row-major float64
// matrices with the handful of BLAS-like kernels a feed-forward network
// needs (matmul and its transposed fusions, rank-1 updates, row/column
// reductions) plus the vector norms the paper's evaluation uses (L1, L2,
// L-infinity).
//
// The package deliberately stays small and allocation-transparent: every
// kernel writes into a caller-supplied destination when the shape is fixed,
// and the Matrix type exposes its backing slice for zero-copy interop with
// the dataset pipeline.
package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Matrix is a dense, row-major matrix. The zero value is an empty matrix;
// use New or FromSlice to build a usable one.
type Matrix struct {
	Rows int
	Cols int
	// Data holds Rows*Cols values in row-major order: element (i, j) lives
	// at Data[i*Cols+j].
	Data []float64
}

// New returns a zero-filled rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data as a rows×cols matrix without copying. The caller
// must not resize data afterwards. len(data) must equal rows*cols.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// FromRows copies a slice-of-rows into a fresh matrix. All rows must share
// one length; an empty input yields a 0×0 matrix.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("tensor: ragged row %d: len %d != %d", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom copies src's contents into m. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: CopyFrom shape %dx%d != %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// Zero resets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// SameShape reports whether m and other have identical dimensions.
func (m *Matrix) SameShape(other *Matrix) bool {
	return m.Rows == other.Rows && m.Cols == other.Cols
}

// String renders small matrices for debugging; large ones are summarized.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}

// Transpose returns a new matrix that is m transposed.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// MatMul computes dst = a × b. Shapes must be compatible and dst must be
// a.Rows × b.Cols; dst may not alias a or b.
//
// The kernel iterates (i, k, j) so the inner loop is a unit-stride
// axpy over b's rows — the standard cache-friendly ordering for row-major
// data; it is 5-10× faster than the naive (i, j, k) order at the 491-wide
// layers this repository trains. Large products additionally shard output
// rows across GOMAXPROCS goroutines; row shards write disjoint memory so
// no synchronization beyond the final join is needed.
func MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d != %d", a.Cols, b.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	workers := runtime.GOMAXPROCS(0)
	// Parallelism only pays past ~2M multiply-adds and with >=2 procs.
	if workers > 1 && a.Rows >= 2*workers && a.Rows*a.Cols*b.Cols >= 2_000_000 {
		matMulParallel(dst, a, b, workers)
		return
	}
	matMulRange(dst, a, b, 0, a.Rows)
}

// matMulRange computes dst rows [lo, hi) of a × b.
func matMulRange(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		dRow := dst.Row(i)
		for j := range dRow {
			dRow[j] = 0
		}
		aRow := a.Row(i)
		for k, av := range aRow {
			if av == 0 {
				continue
			}
			bRow := b.Row(k)[:len(dRow)]
			// Unrolled for the reason given in MatMulAT.
			j := 0
			for ; j+4 <= len(bRow); j += 4 {
				dRow[j] += av * bRow[j]
				dRow[j+1] += av * bRow[j+1]
				dRow[j+2] += av * bRow[j+2]
				dRow[j+3] += av * bRow[j+3]
			}
			for ; j < len(bRow); j++ {
				dRow[j] += av * bRow[j]
			}
		}
	}
}

// matMulParallel shards output rows across workers.
func matMulParallel(dst, a, b *Matrix, workers int) {
	var wg sync.WaitGroup
	chunk := (a.Rows + workers - 1) / workers
	for lo := 0; lo < a.Rows; lo += chunk {
		hi := lo + chunk
		if hi > a.Rows {
			hi = a.Rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			matMulRange(dst, a, b, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// MatMulBT computes dst = a × bᵀ without materializing the transpose.
// dst must be a.Rows × b.Rows.
func MatMulBT(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulBT inner dims %d != %d", a.Cols, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulBT dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	for i := 0; i < a.Rows; i++ {
		aRow := a.Row(i)
		dRow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			bRow := b.Row(j)[:len(aRow)]
			// Four products per step, added in the same left-to-right
			// order as a one-product loop, so results are bit-identical.
			// The one-product loop is short enough that its speed swung
			// by 20% with where the linker happened to place it.
			sum := 0.0
			k := 0
			for ; k+4 <= len(aRow); k += 4 {
				sum += aRow[k] * bRow[k]
				sum += aRow[k+1] * bRow[k+1]
				sum += aRow[k+2] * bRow[k+2]
				sum += aRow[k+3] * bRow[k+3]
			}
			for ; k < len(aRow); k++ {
				sum += aRow[k] * bRow[k]
			}
			dRow[j] = sum
		}
	}
}

// MatMulAT computes dst = aᵀ × b without materializing the transpose.
// dst must be a.Cols × b.Cols.
func MatMulAT(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulAT inner dims %d != %d", a.Rows, b.Rows))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulAT dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	dst.Zero()
	for r := 0; r < a.Rows; r++ {
		aRow := a.Row(r)
		bRow := b.Row(r)
		for i, av := range aRow {
			if av == 0 {
				continue
			}
			dRow := dst.Row(i)[:len(bRow)]
			// Four output elements per step, each with the same single
			// multiply-add as a one-element loop, so results are
			// bit-identical. The one-element loop is short enough that
			// its speed swung by a third with where the linker placed it
			// (a 32-byte shift from unrelated code in this package).
			j := 0
			for ; j+4 <= len(bRow); j += 4 {
				dRow[j] += av * bRow[j]
				dRow[j+1] += av * bRow[j+1]
				dRow[j+2] += av * bRow[j+2]
				dRow[j+3] += av * bRow[j+3]
			}
			for ; j < len(bRow); j++ {
				dRow[j] += av * bRow[j]
			}
		}
	}
}

// Add computes dst = a + b element-wise; all three must share one shape.
// dst may alias a or b.
func Add(dst, a, b *Matrix) {
	assertSameShape3("Add", dst, a, b)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// Sub computes dst = a - b element-wise.
func Sub(dst, a, b *Matrix) {
	assertSameShape3("Sub", dst, a, b)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
}

// Mul computes the element-wise (Hadamard) product dst = a ⊙ b.
func Mul(dst, a, b *Matrix) {
	assertSameShape3("Mul", dst, a, b)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] * b.Data[i]
	}
}

// Scale computes dst = s * a.
func Scale(dst *Matrix, s float64, a *Matrix) {
	assertSameShape2("Scale", dst, a)
	for i := range dst.Data {
		dst.Data[i] = s * a.Data[i]
	}
}

// AXPY computes dst += s * a (the BLAS axpy).
func AXPY(dst *Matrix, s float64, a *Matrix) {
	assertSameShape2("AXPY", dst, a)
	for i := range dst.Data {
		dst.Data[i] += s * a.Data[i]
	}
}

// AddRowVector adds the 1×Cols vector v to every row of dst.
func AddRowVector(dst *Matrix, v []float64) {
	if len(v) != dst.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector len %d != cols %d", len(v), dst.Cols))
	}
	for i := 0; i < dst.Rows; i++ {
		row := dst.Row(i)
		for j := range row {
			row[j] += v[j]
		}
	}
}

// ColSums accumulates each column's sum into out (len Cols).
func (m *Matrix) ColSums(out []float64) {
	if len(out) != m.Cols {
		panic(fmt.Sprintf("tensor: ColSums len %d != cols %d", len(out), m.Cols))
	}
	for j := range out {
		out[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out[j] += v
		}
	}
}

// ColMeans accumulates each column's mean into out (len Cols). A matrix with
// zero rows yields all-zero means.
func (m *Matrix) ColMeans(out []float64) {
	m.ColSums(out)
	if m.Rows == 0 {
		return
	}
	inv := 1 / float64(m.Rows)
	for j := range out {
		out[j] *= inv
	}
}

// RowArgmax returns the index of the maximum element of row i. Ties break
// toward the lower index.
func (m *Matrix) RowArgmax(i int) int {
	row := m.Row(i)
	best := 0
	for j := 1; j < len(row); j++ {
		if row[j] > row[best] {
			best = j
		}
	}
	return best
}

// MaxAbs returns the largest absolute element value (0 for empty matrices).
func (m *Matrix) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// Clamp limits every element to [lo, hi] in place.
func (m *Matrix) Clamp(lo, hi float64) {
	for i, v := range m.Data {
		if v < lo {
			m.Data[i] = lo
		} else if v > hi {
			m.Data[i] = hi
		}
	}
}

// HasNaN reports whether any element is NaN or ±Inf; used as a training
// health check.
func (m *Matrix) HasNaN() bool {
	for _, v := range m.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

func assertSameShape2(op string, a, b *Matrix) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape %dx%d != %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

func assertSameShape3(op string, a, b, c *Matrix) {
	assertSameShape2(op, a, b)
	assertSameShape2(op, a, c)
}

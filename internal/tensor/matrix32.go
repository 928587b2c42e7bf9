package tensor

import (
	"fmt"
	"math"
)

// Matrix32 is a dense, row-major float32 matrix — the storage type of the
// inference hot path (MatMulF32, nn's float32 plans, the binary rows
// framing). It deliberately mirrors Matrix's shape-and-backing-slice
// design so batches flow between the two precisions with one conversion;
// float64 Matrix remains the accuracy reference everywhere gradients or
// training are involved.
type Matrix32 struct {
	Rows int
	Cols int
	// Data holds Rows*Cols values in row-major order: element (i, j) lives
	// at Data[i*Cols+j].
	Data []float32
}

// New32 returns a zero-filled rows×cols float32 matrix.
func New32(rows, cols int) *Matrix32 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", rows, cols))
	}
	return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice32 wraps data as a rows×cols matrix without copying. The caller
// must not resize data afterwards. len(data) must equal rows*cols.
func FromSlice32(rows, cols int, data []float32) *Matrix32 {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice32 length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix32{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Matrix32) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix32) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix32) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix32) Clone() *Matrix32 {
	out := New32(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// SameShape reports whether m and other have identical dimensions.
func (m *Matrix32) SameShape(other *Matrix32) bool {
	return m.Rows == other.Rows && m.Cols == other.Cols
}

// RowArgmax returns the index of the maximum element of row i. Ties break
// toward the lower index, matching Matrix.RowArgmax.
func (m *Matrix32) RowArgmax(i int) int {
	row := m.Row(i)
	best := 0
	for j := 1; j < len(row); j++ {
		if row[j] > row[best] {
			best = j
		}
	}
	return best
}

// HasNaN reports whether any element is NaN or ±Inf.
func (m *Matrix32) HasNaN() bool {
	for _, v := range m.Data {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return true
		}
	}
	return false
}

// Float64 widens the matrix into a fresh float64 Matrix (exact: every
// float32 is representable as a float64).
func (m *Matrix32) Float64() *Matrix {
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = float64(v)
	}
	return out
}

// ToFloat32 narrows a float64 matrix into a fresh Matrix32 with
// round-to-nearest per element. Narrowing is lossy in general; the
// paper's 0/1 API-call features convert exactly. Values whose magnitude
// exceeds math.MaxFloat32 overflow to ±Inf — callers that must refuse
// those (the wire encoder does) validate before converting.
func ToFloat32(m *Matrix) *Matrix32 {
	out := New32(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = float32(v)
	}
	return out
}

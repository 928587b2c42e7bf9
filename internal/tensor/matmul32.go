package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// MatMulF32 computes dst = a × b in float32. Shapes must be compatible and
// dst must be a.Rows × b.Cols; dst may not alias a or b. It is DenseF32
// with no bias and no ReLU.
//
// This is the inference hot path's kernel: on amd64 CPUs with AVX2+FMA it
// dispatches to register-tiled assembly (an AVX-512 4-row×64-column tile
// when the CPU has it, an AVX2 2-row×32-column tile otherwise) that keeps
// every accumulator resident in vector registers and shares each loaded
// panel of b across all rows of the tile; elsewhere it runs the same
// cache-friendly (i, k, j) axpy ordering as the float64 MatMul. Large
// products shard output rows across GOMAXPROCS goroutines; row shards
// write disjoint memory, and the per-element operation sequence is
// independent of the sharding, so parallelism cannot change the bits.
//
// Rounding contract (pinned by the package's golden tests): on the
// assembly path, output column j < b.Cols&^31 of every row is a fused
// multiply-add accumulation over k in ascending order (one rounding per
// step); the remaining tail columns are scalar multiply-then-add in the
// same order. The AVX-512 and AVX2 tiles therefore produce bit-identical
// results — tile shape only regroups independent output elements. The
// portable fallback is multiply-then-add throughout (with the float64
// kernel's skip of exact-zero a elements). DenseF32's epilogue follows
// the finished accumulation on every kernel: the bias is one ordinary
// float32 add (one rounding, acc + bias[j]), and ReLU maps every value
// that is not > 0 — negatives, NaN, −0 and +0 — to +0. Without a bias
// nothing is added, so an FMA sum that rounds to −0 stays −0.
// Cross-CPU results may differ in the last ulp; all user-visible
// accuracy guarantees are the float32-vs-float64 parity thresholds in
// internal/nn, not bit equality across machines.
func MatMulF32(dst, a, b *Matrix32) {
	DenseF32(dst, a, b, nil, false)
}

// DenseF32 computes one dense layer in float32: dst = a × w, then bias[j]
// added to every element of column j when bias is non-nil, then
// max(·, +0) when relu is set. The epilogue runs inside the tile that
// produced each output block, so a dense layer and its ReLU are one pass
// over dst. bias must be nil or w.Cols long; see MatMulF32 for the
// kernels, the sharding and the rounding contract.
func DenseF32(dst, a, w *Matrix32, bias []float32, relu bool) {
	if a.Cols != w.Rows {
		panic(fmt.Sprintf("tensor: DenseF32 inner dims %d != %d", a.Cols, w.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != w.Cols {
		panic(fmt.Sprintf("tensor: DenseF32 dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, w.Cols))
	}
	if bias != nil && len(bias) != w.Cols {
		panic(fmt.Sprintf("tensor: DenseF32 bias len %d != cols %d", len(bias), w.Cols))
	}
	if a.Rows == 0 || w.Cols == 0 {
		return
	}
	if a.Cols == 0 {
		// No products: the portable kernel clears dst and applies the
		// epilogue (the tiles would index the empty a).
		matMulF32Generic(dst, a, w, bias, relu, 0, a.Rows)
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > 1 && a.Rows >= 2*workers && a.Rows*a.Cols*w.Cols >= 2_000_000 {
		matMulF32Parallel(dst, a, w, bias, relu, workers)
		return
	}
	matMulF32Range(dst, a, w, bias, relu, 0, a.Rows)
}

// matMulF32Parallel shards output rows across workers.
func matMulF32Parallel(dst, a, b *Matrix32, bias []float32, relu bool, workers int) {
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
			matMulF32Range(dst, a, b, bias, relu, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// epilogue32 applies DenseF32's epilogue to finished accumulators: bias
// (nil = none, which is not the same as adding +0 to a −0 sum), then
// ReLU as v > 0 ? v : +0. bias must be as long as row when non-nil.
func epilogue32(row, bias []float32, relu bool) {
	if bias != nil {
		for j := range row {
			row[j] += bias[j]
		}
	}
	if relu {
		for j, v := range row {
			if !(v > 0) {
				row[j] = 0
			}
		}
	}
}

// matMulF32Generic computes dst rows [lo, hi) of a × b with the portable
// scalar kernel: the float64 MatMul's (i, k, j) axpy ordering, including
// its skip of exact-zero a elements (the paper's ~30%-dense binary
// feature rows make that skip worth real time on hosts without the
// vector kernels), then the epilogue row by row.
func matMulF32Generic(dst, a, b *Matrix32, bias []float32, relu bool, lo, hi int) {
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
			bRow := b.Row(k)
			for j, bv := range bRow {
				dRow[j] += av * bv
			}
		}
		epilogue32(dRow, bias, relu)
	}
}

// matMulF32ColTail fills dst columns [j0, b.Cols) of rows [lo, hi) with
// the scalar multiply-then-add loop and the epilogue — the
// sub-vector-width column tail of the assembly path.
func matMulF32ColTail(dst, a, b *Matrix32, bias []float32, relu bool, lo, hi, j0 int) {
	n := b.Cols
	if bias != nil {
		bias = bias[j0:]
	}
	for i := lo; i < hi; i++ {
		aRow := a.Row(i)
		dRow := dst.Row(i)
		for j := j0; j < n; j++ {
			var acc float32
			for k, av := range aRow {
				acc += av * b.Data[k*n+j]
			}
			dRow[j] = acc
		}
		epilogue32(dRow[j0:], bias, relu)
	}
}

// Package serve implements the concurrent batched scoring engine: a fixed
// pool of worker goroutines, each owning a private nn.Workspace, pulls
// score requests from a shared queue and opportunistically coalesces the
// rows of many concurrent callers into one batched forward pass, scattering
// the logits back to each caller when the batch completes.
//
// The engine exists because the paper reproduction's hot paths — attack
// evasion checks, black-box oracle queries, table/figure sweeps — are all
// forward-only scoring of a frozen model, which row-at-a-time Forward calls
// serve poorly twice over: per-call overhead dominates a one-row matmul,
// and the old layer-cache design serialized every caller. A Scorer fixes
// both: callers fan out freely, and their rows merge into large matmuls.
//
// Determinism: each logits row depends only on its own input row, so batch
// composition, coalescing order and worker scheduling cannot change the
// numbers — scoring through the engine is bit-identical to serial
// net.Forward(x, false). Tests and the experiments package rely on this.
package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"malevade/internal/dataset"
	"malevade/internal/detector"
	"malevade/internal/nn"
	"malevade/internal/obs"
	"malevade/internal/tensor"
)

// BatchRowsBuckets are the coalesced-batch-size histogram bounds: powers
// of two up to the default MaxBatch and one bucket past it.
var BatchRowsBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// Options tunes a Scorer. The zero value picks sensible defaults.
type Options struct {
	// Workers is the number of scoring goroutines (default GOMAXPROCS).
	Workers int
	// MaxBatch caps the rows merged into one forward pass, and is the
	// chunk size large requests are split into (default 256). Coalescing
	// is opportunistic: a worker merges whatever is already queued, up to
	// this cap — it never waits for a batch to fill.
	MaxBatch int
	// QueueDepth is the pending-request queue capacity (default
	// 4×Workers).
	QueueDepth int
	// Obs, when set, holds the engine's instruments: the forward-pass and
	// row counters (see Counters) and the coalesced-batch-size histogram
	// (malevade_serve_batch_rows), shared by every scorer built against
	// the same registry. Nil gives the scorer private instruments. Queue
	// depth and in-flight counts are exposed as accessors instead — the
	// serving layer aggregates them across live engines into gauges.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.Workers
	}
	return o
}

// request is one contiguous slab of rows to score. x views the caller's
// input; logits views the caller's output destination; done is closed once
// logits is filled.
type request struct {
	x      *tensor.Matrix
	logits *tensor.Matrix
	done   chan struct{}
}

// Scorer is the concurrent batched scoring engine over one frozen network.
// All scoring methods are safe for any number of concurrent callers; the
// network's parameters must not be mutated (trained) while the scorer is
// live. A Scorer implements detector.Detector, so it drops in anywhere a
// detector is scored.
type Scorer struct {
	net  *nn.Network
	temp float64
	opts Options

	// mu guards closed against sends on reqs: submitters hold the read
	// side, Close holds the write side while closing the channel.
	mu     sync.RWMutex
	closed bool
	reqs   chan *request
	wg     sync.WaitGroup

	inflight atomic.Int64 // requests submitted but not yet completed

	// Forward passes executed, rows scored and rows per pass; shared with
	// every scorer on the same Options.Obs registry.
	batches   *obs.Counter
	rows      *obs.Counter
	batchRows *obs.Histogram

	// The float32 plan behind the direct scoring path (see serve32.go),
	// compiled once on first use.
	planOnce sync.Once
	plan32   *nn.Plan32
	planErr  error
}

var _ detector.Detector = (*Scorer)(nil)

// New starts a scorer over net with the given softmax temperature for the
// probability head (0 means 1). Callers must Close the scorer to release
// its workers.
func New(net *nn.Network, temperature float64, opts Options) *Scorer {
	s := newScorer(net, temperature, opts)
	s.wg.Add(s.opts.Workers)
	for i := 0; i < s.opts.Workers; i++ {
		go s.worker()
	}
	return s
}

// newScorer builds a scorer with its queue and instruments but starts no
// workers.
func newScorer(net *nn.Network, temperature float64, opts Options) *Scorer {
	if temperature <= 0 {
		temperature = 1
	}
	s := &Scorer{net: net, temp: temperature, opts: opts.withDefaults()}
	reg := s.opts.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.batches, s.rows = Counters(reg)
	s.batchRows = reg.Histogram("malevade_serve_batch_rows",
		"Rows coalesced into each merged forward pass.", BatchRowsBuckets)
	s.reqs = make(chan *request, s.opts.QueueDepth)
	return s
}

// Counters returns the engine counters every Scorer built with
// Options.Obs = reg advances: forward passes executed and rows scored.
func Counters(reg *obs.Registry) (batches, rows *obs.Counter) {
	return reg.Counter("malevade_serve_batches_total", "Forward passes executed by every scoring engine."),
		reg.Counter("malevade_serve_rows_total", "Rows scored by every scoring engine.")
}

// account records one executed forward pass of n rows, on the pooled and
// the direct float32 path alike.
func (s *Scorer) account(n int) {
	s.batches.Inc()
	s.rows.Add(int64(n))
	s.batchRows.Observe(float64(n))
}

// worker owns one nn.Workspace and a reusable merge buffer for its whole
// life, so steady-state scoring allocates nothing but result matrices.
func (s *Scorer) worker() {
	defer s.wg.Done()
	ws := s.net.NewWorkspace()
	var merged *tensor.Matrix
	pend := make([]*request, 0, 8)
	var carry *request // drained request that would overflow the cap
	for {
		first := carry
		carry = nil
		if first == nil {
			var ok bool
			if first, ok = <-s.reqs; !ok {
				return
			}
		}
		pend = append(pend[:0], first)
		rows := first.x.Rows
		// Opportunistically coalesce whatever else is queued; never wait
		// for more work to arrive, and never merge past MaxBatch — a
		// request that would overflow carries over to the next batch.
	drain:
		for rows < s.opts.MaxBatch {
			select {
			case r, ok := <-s.reqs:
				if !ok {
					break drain
				}
				if rows+r.x.Rows > s.opts.MaxBatch {
					carry = r
					break drain
				}
				pend = append(pend, r)
				rows += r.x.Rows
			default:
				break drain
			}
		}
		merged = s.score(ws, merged, pend)
	}
}

// score runs one merged batch and scatters logits back to each request.
func (s *Scorer) score(ws *nn.Workspace, merged *tensor.Matrix, pend []*request) *tensor.Matrix {
	if len(pend) == 1 {
		r := pend[0]
		r.logits.CopyFrom(s.net.Infer(ws, r.x))
		s.account(r.x.Rows)
		s.inflight.Add(-1)
		close(r.done)
		return merged
	}
	total := 0
	for _, r := range pend {
		total += r.x.Rows
	}
	if merged == nil || merged.Rows != total {
		merged = tensor.New(total, s.net.InDim())
	}
	off := 0
	for _, r := range pend {
		copy(merged.Data[off:], r.x.Data)
		off += len(r.x.Data)
	}
	logits := s.net.Infer(ws, merged)
	s.account(total)
	off = 0
	for _, r := range pend {
		n := r.x.Rows * logits.Cols
		copy(r.logits.Data, logits.Data[off:off+n])
		off += n
		s.inflight.Add(-1)
		close(r.done)
	}
	return merged
}

// submit enqueues one request, or returns context.Canceled once cancel
// fires while the queue is full (cancel is nil on the fast path — a nil
// channel never fires, so the fast path blocks exactly as before).
func (s *Scorer) submit(r *request, cancel <-chan struct{}) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		panic("serve: Scorer used after Close")
	}
	// Count the request in-flight before the enqueue: a worker may drain
	// and complete it (decrementing) before the send even returns.
	s.inflight.Add(1)
	select {
	case s.reqs <- r:
		return nil
	case <-cancel:
		s.inflight.Add(-1)
		return context.Canceled
	}
}

// Logits scores every row of x and returns a fresh rows×OutDim logits
// matrix. Large inputs are split into MaxBatch chunks so the worker pool
// shares one call; rows from concurrent callers coalesce into shared
// batches. Bit-identical to net.Forward(x, false). This is the
// allocation-lean in-process fast path; remote-facing callers that need
// cancellation use LogitsContext.
func (s *Scorer) Logits(x *tensor.Matrix) *tensor.Matrix {
	out, err := s.logits(nil, x)
	if err != nil {
		// Unreachable: only a cancellable context produces an error, and
		// the fast path passes none.
		panic(err)
	}
	return out
}

// LogitsContext is Logits with cancellation: the submit path — both the
// enqueue and the wait for each chunk's completion — selects on
// ctx.Done(), so a caller whose context ends mid-batch returns promptly
// with ctx.Err() instead of waiting out the queue. Chunks already handed
// to workers still complete (their results are discarded); the engine
// never leaks a goroutine on cancellation because workers outlive
// requests by design.
func (s *Scorer) LogitsContext(ctx context.Context, x *tensor.Matrix) (*tensor.Matrix, error) {
	out, err := s.logits(ctx.Done(), x)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, err
	}
	return out, nil
}

// logits is the shared submit path. cancel is nil for the fast path; a
// nil channel never fires in a select, so the fast path pays only the
// select's fixed cost and allocates nothing beyond the result matrix and
// its chunk requests.
func (s *Scorer) logits(cancel <-chan struct{}, x *tensor.Matrix) (*tensor.Matrix, error) {
	outDim := s.net.OutDim()
	out := tensor.New(x.Rows, outDim)
	if x.Rows == 0 {
		return out, nil
	}
	if x.Cols != s.net.InDim() {
		panic(fmt.Sprintf("serve: input width %d, want %d", x.Cols, s.net.InDim()))
	}
	chunk := s.opts.MaxBatch
	pending := make([]*request, 0, (x.Rows+chunk-1)/chunk)
	for start := 0; start < x.Rows; start += chunk {
		end := start + chunk
		if end > x.Rows {
			end = x.Rows
		}
		r := &request{
			x:      tensor.FromSlice(end-start, x.Cols, x.Data[start*x.Cols:end*x.Cols]),
			logits: tensor.FromSlice(end-start, outDim, out.Data[start*outDim:end*outDim]),
			done:   make(chan struct{}),
		}
		if err := s.submit(r, cancel); err != nil {
			return nil, err
		}
		pending = append(pending, r)
	}
	for _, r := range pending {
		select {
		case <-r.done:
		case <-cancel:
			return nil, context.Canceled
		}
	}
	return out, nil
}

// MalwareProb implements detector.Detector: P(class=1|x) per row at the
// scorer's temperature.
func (s *Scorer) MalwareProb(x *tensor.Matrix) []float64 {
	logits := s.Logits(x)
	out := make([]float64, logits.Rows)
	probs := make([]float64, logits.Cols)
	for i := range out {
		nn.SoftmaxRow(logits.Row(i), probs, s.temp)
		out[i] = probs[dataset.LabelMalware]
	}
	return out
}

// Predict implements detector.Detector: argmax class per row.
func (s *Scorer) Predict(x *tensor.Matrix) []int {
	logits := s.Logits(x)
	out := make([]int, logits.Rows)
	for i := range out {
		out[i] = logits.RowArgmax(i)
	}
	return out
}

// InDim implements detector.Detector.
func (s *Scorer) InDim() int { return s.net.InDim() }

// OutDim returns the logits width.
func (s *Scorer) OutDim() int { return s.net.OutDim() }

// Stats reports how many forward passes have executed and how many rows
// they carried; rows/batches is the mean coalescing factor. With a shared
// Options.Obs registry the counts cover every scorer built against it.
func (s *Scorer) Stats() (batches, rows int64) {
	return s.batches.Value(), s.rows.Value()
}

// InFlight reports how many submitted requests have not yet completed —
// queued plus being scored. Zero on an idle engine.
func (s *Scorer) InFlight() int64 { return s.inflight.Load() }

// QueueDepth reports how many requests are sitting in the queue awaiting
// a worker, a direct saturation signal: nonzero sustained depth means the
// pool is behind.
func (s *Scorer) QueueDepth() int { return len(s.reqs) }

// Close stops the workers after draining in-flight requests. Idempotent;
// scoring after Close panics.
func (s *Scorer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.reqs)
	s.mu.Unlock()
	s.wg.Wait()
}

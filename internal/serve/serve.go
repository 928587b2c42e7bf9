// Package serve implements the scoring engine: a frozen network plus a
// fixed number of slots that bound how many forward passes run at once.
// Every call scores its whole batch on the caller's own goroutine — it
// takes a slot, runs one pass through the network (or its compiled
// float32 plan), accounts the pass once and gives the slot back. JSON
// requests, binary frames and campaign judging all share this one bounded
// path; the engine owns no goroutine, queue or merge buffer.
//
// The engine exists because the paper reproduction's hot paths — attack
// evasion checks, black-box oracle queries, table/figure sweeps — are all
// forward-only scoring of a frozen model. The network pools per-call
// workspaces and the matmul kernels shard rows across GOMAXPROCS, so a
// Scorer adds only the concurrency bound, the instruments and the
// detector.Detector surface.
//
// Determinism: each logits row depends only on its own input row, so
// scheduling cannot change the numbers — scoring through the engine is
// bit-identical to serial net.Forward(x, false). Tests and the experiments
// package rely on this.
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

// BatchRowsBuckets are the rows-per-pass histogram bounds: powers of two
// up to 512.
var BatchRowsBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// Options tunes a Scorer. The zero value picks sensible defaults.
type Options struct {
	// Workers is the number of slots: at most this many forward passes
	// run at once, each on its caller's goroutine (default GOMAXPROCS).
	// Further callers wait for a slot.
	Workers int
	// Obs, when set, holds the engine's instruments: the forward-pass and
	// row counters (see Counters) and the rows-per-pass histogram
	// (malevade_serve_batch_rows), shared by every scorer built against
	// the same registry. Nil gives the scorer private instruments. Slot
	// waiters and in-flight calls are exposed as accessors instead — the
	// serving layer aggregates them across live engines into gauges.
	Obs *obs.Registry
}

// Scorer is the slot-bounded scoring engine over one frozen network. All
// scoring methods are safe for any number of concurrent callers; the
// network's parameters must not be mutated (trained) while the scorer is
// live. A Scorer implements detector.Detector, so it drops in anywhere a
// detector is scored.
type Scorer struct {
	net  *nn.Network
	temp float64

	slots   chan struct{} // one token per running forward pass
	waiting atomic.Int64  // calls waiting for a slot
	closed  atomic.Bool

	// Forward passes executed, rows scored and rows per pass; shared with
	// every scorer on the same Options.Obs registry.
	batches   *obs.Counter
	rows      *obs.Counter
	batchRows *obs.Histogram

	// The float32 plan behind Logits32 (see serve32.go), compiled once on
	// first use.
	planOnce sync.Once
	plan32   *nn.Plan32
	planErr  error
}

var _ detector.Detector = (*Scorer)(nil)

// New builds a scorer over net with the given softmax temperature for the
// probability head (0 means 1). It starts no goroutine.
func New(net *nn.Network, temperature float64, opts Options) *Scorer {
	if temperature <= 0 {
		temperature = 1
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	reg := opts.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Scorer{net: net, temp: temperature, slots: make(chan struct{}, opts.Workers)}
	s.batches, s.rows = Counters(reg)
	s.batchRows = reg.Histogram("malevade_serve_batch_rows",
		"Rows scored by each forward pass.", BatchRowsBuckets)
	return s
}

// Counters returns the engine counters every Scorer built with
// Options.Obs = reg advances: forward passes executed and rows scored.
func Counters(reg *obs.Registry) (batches, rows *obs.Counter) {
	return reg.Counter("malevade_serve_batches_total", "Forward passes executed by every scoring engine."),
		reg.Counter("malevade_serve_rows_total", "Rows scored by every scoring engine.")
}

// run executes pass, one forward pass over a rows×cols batch, on the
// caller's goroutine inside a slot, and accounts it. It returns ctx.Err()
// without running pass when ctx ends before a slot frees up.
func (s *Scorer) run(ctx context.Context, rows, cols int, pass func()) error {
	if s.closed.Load() {
		panic("serve: Scorer used after Close")
	}
	if cols != s.net.InDim() {
		panic(fmt.Sprintf("serve: input width %d, want %d", cols, s.net.InDim()))
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case s.slots <- struct{}{}:
	default:
		s.waiting.Add(1)
		select {
		case s.slots <- struct{}{}:
			s.waiting.Add(-1)
		case <-ctx.Done():
			s.waiting.Add(-1)
			return ctx.Err()
		}
	}
	defer func() { <-s.slots }()
	pass()
	if rows > 0 {
		s.batches.Inc()
		s.rows.Add(int64(rows))
		s.batchRows.Observe(float64(rows))
	}
	return nil
}

// Logits scores every row of x and returns a fresh rows×OutDim logits
// matrix, bit-identical to net.Forward(x, false). It waits for a slot as
// long as it takes; remote-facing callers that need cancellation use
// LogitsContext.
func (s *Scorer) Logits(x *tensor.Matrix) *tensor.Matrix {
	// A background context never ends, so the error is always nil.
	out, _ := s.LogitsContext(context.Background(), x)
	return out
}

// LogitsContext is Logits with cancellation: it returns ctx.Err() at once
// if ctx has already ended, and otherwise as soon as ctx ends while the
// call is still waiting for a slot. A pass that has started runs to
// completion.
func (s *Scorer) LogitsContext(ctx context.Context, x *tensor.Matrix) (*tensor.Matrix, error) {
	if x.Rows == 0 {
		return tensor.New(0, s.net.OutDim()), nil
	}
	var out *tensor.Matrix
	if err := s.run(ctx, x.Rows, x.Cols, func() { out = s.net.Logits(x) }); err != nil {
		return nil, err
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
// they carried; rows/batches is the mean rows per pass. With a shared
// Options.Obs registry the counts cover every scorer built against it.
func (s *Scorer) Stats() (batches, rows int64) {
	return s.batches.Value(), s.rows.Value()
}

// InFlight reports how many scoring calls are waiting for or holding a
// slot. Zero on an idle engine.
func (s *Scorer) InFlight() int64 { return s.waiting.Load() + int64(len(s.slots)) }

// QueueDepth reports how many scoring calls are waiting for a slot, a
// direct saturation signal: nonzero sustained depth means every slot is
// busy.
func (s *Scorer) QueueDepth() int { return int(s.waiting.Load()) }

// Close marks the scorer closed; scoring after Close panics. Idempotent.
// It does not wait for calls in progress: owners that hand a scorer to
// concurrent callers (the registry's retire drain) wait for them first.
func (s *Scorer) Close() { s.closed.Store(true) }

package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"malevade/internal/detector"
	"malevade/internal/nn"
	"malevade/internal/rng"
	"malevade/internal/tensor"
)

// testNet builds a small random MLP shaped like a scaled-down detector.
func testNet(t testing.TB) *nn.Network {
	t.Helper()
	net, err := nn.NewMLP(nn.MLPConfig{Dims: []int{24, 16, 8, 2}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func randomBatch(seed uint64, rows, cols int) *tensor.Matrix {
	r := rng.New(seed)
	x := tensor.New(rows, cols)
	for i := range x.Data {
		x.Data[i] = r.Float64()
	}
	return x
}

// TestScorerMatchesSerial checks the engine against the serial reference
// path bit for bit: logits, probabilities and predictions.
func TestScorerMatchesSerial(t *testing.T) {
	net := testNet(t)
	x := randomBatch(7, 103, net.InDim())
	s := New(net, 1, Options{Workers: 3})
	defer s.Close()

	wantLogits := net.Forward(x, false).Clone()
	gotLogits := s.Logits(x)
	if !wantLogits.SameShape(gotLogits) {
		t.Fatalf("logits shape %dx%d, want %dx%d", gotLogits.Rows, gotLogits.Cols, wantLogits.Rows, wantLogits.Cols)
	}
	for i, v := range wantLogits.Data {
		if gotLogits.Data[i] != v {
			t.Fatalf("logits[%d] = %v, want %v (must be bit-identical)", i, gotLogits.Data[i], v)
		}
	}

	d := detector.NewDNN(net)
	wantProbs := d.MalwareProb(x)
	gotProbs := s.MalwareProb(x)
	for i, v := range wantProbs {
		if gotProbs[i] != v {
			t.Fatalf("prob[%d] = %v, want %v", i, gotProbs[i], v)
		}
	}

	wantPred := d.Predict(x)
	gotPred := s.Predict(x)
	for i, v := range wantPred {
		if gotPred[i] != v {
			t.Fatalf("pred[%d] = %d, want %d", i, gotPred[i], v)
		}
	}
	if s.InDim() != net.InDim() || s.OutDim() != net.OutDim() {
		t.Fatalf("dims %d/%d, want %d/%d", s.InDim(), s.OutDim(), net.InDim(), net.OutDim())
	}
}

// TestScorerConcurrentHammer slams one shared engine from many goroutines
// with distinct batches and verifies every result against the serial
// reference. The race detector (go test -race) is the other half of this
// test.
func TestScorerConcurrentHammer(t *testing.T) {
	net := testNet(t)
	s := New(net, 4, Options{Workers: 4})
	defer s.Close()

	const goroutines = 8
	const iters = 25
	// Pre-compute inputs and serial reference logits.
	inputs := make([]*tensor.Matrix, goroutines)
	want := make([]*tensor.Matrix, goroutines)
	for g := range inputs {
		inputs[g] = randomBatch(uint64(100+g), 5+g*3, net.InDim())
		want[g] = net.Forward(inputs[g], false).Clone()
	}

	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				got := s.Logits(inputs[g])
				for i, v := range want[g].Data {
					if got.Data[i] != v {
						errs <- "goroutine result diverged from serial reference"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}

	var totalRows int64
	for g := 0; g < goroutines; g++ {
		totalRows += int64(inputs[g].Rows) * iters
	}
	batches, rows := s.Stats()
	if rows != totalRows {
		t.Fatalf("Stats rows = %d, want %d", rows, totalRows)
	}
	if batches <= 0 || batches > rows {
		t.Fatalf("Stats batches = %d out of range (rows %d)", batches, rows)
	}
}

func TestScorerEmptyInput(t *testing.T) {
	net := testNet(t)
	s := New(net, 1, Options{Workers: 1})
	defer s.Close()
	if out := s.Logits(tensor.New(0, net.InDim())); out.Rows != 0 {
		t.Fatalf("empty input scored %d rows", out.Rows)
	}
}

func TestScorerCloseIdempotentAndPanicsAfter(t *testing.T) {
	net := testNet(t)
	s := New(net, 1, Options{Workers: 2})
	s.Close()
	s.Close() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("scoring after Close did not panic")
		}
	}()
	s.Logits(randomBatch(1, 1, net.InDim()))
}

// TestLogitsContextCancellation: the context-aware path must return the
// context's error when the context has already ended, while the plain
// Logits path stays un-cancellable and identical.
func TestLogitsContextCancellation(t *testing.T) {
	net := testNet(t)
	s := New(net, 1, Options{Workers: 1})
	defer s.Close()

	x := tensor.New(6, 24)
	want := s.Logits(x)
	got, err := s.LogitsContext(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("LogitsContext diverged from Logits at %d", i)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.LogitsContext(ctx, x); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled LogitsContext returned %v, want context.Canceled", err)
	}
}

// waitFor polls cond until it holds, failing the test after a generous
// deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestScorerSaturation runs more callers than slots through one engine:
// a float32 frame, plain Logits, live and cancelled LogitsContext calls.
// While the single slot is held every caller waits in QueueDepth —
// frames included — cancelled waiters leave with context.Canceled, the
// rest score bit-identically to the serial reference once the slot
// frees, and the engine ends idle with no goroutine left behind.
func TestScorerSaturation(t *testing.T) {
	net := testNet(t)
	plan, err := net.CompileF32()
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	s := New(net, 1, Options{Workers: 1})
	defer s.Close()
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("New started goroutines: %d → %d", base, n)
	}
	if err := s.EnsurePlan(PrecisionFloat32); err != nil {
		t.Fatal(err)
	}

	s.slots <- struct{}{} // hold the only slot
	var wg sync.WaitGroup
	errs := make(chan string, 16)

	frame := tensor.ToFloat32(randomBatch(40, 9, net.InDim()))
	wantFrame := plan.Logits(frame)
	wg.Add(1)
	go func() {
		defer wg.Done()
		got, err := s.Logits32(frame, PrecisionFloat32)
		if err != nil {
			errs <- "frame: " + err.Error()
			return
		}
		for i, v := range wantFrame.Data {
			if got.Data[i] != v {
				errs <- "frame logits diverged from the plan's serial result"
				return
			}
		}
	}()
	waitFor(t, "the frame to wait for a slot", func() bool { return s.QueueDepth() == 1 })

	const live = 3
	for g := 0; g < live; g++ {
		x := randomBatch(uint64(50+g), 4+g, net.InDim())
		want := net.Forward(x, false).Clone()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var got *tensor.Matrix
			if g%2 == 0 {
				got = s.Logits(x)
			} else {
				var err error
				if got, err = s.LogitsContext(context.Background(), x); err != nil {
					errs <- "live LogitsContext: " + err.Error()
					return
				}
			}
			for i, v := range want.Data {
				if got.Data[i] != v {
					errs <- "live logits diverged from serial Forward"
					return
				}
			}
		}(g)
	}

	const cancelled = 2
	ctx, cancel := context.WithCancel(context.Background())
	for g := 0; g < cancelled; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.LogitsContext(ctx, randomBatch(60, 3, net.InDim())); !errors.Is(err, context.Canceled) {
				errs <- "cancelled waiter did not return context.Canceled"
			}
		}()
	}
	waitFor(t, "every caller to wait", func() bool { return s.QueueDepth() == 1+live+cancelled })
	if got := s.InFlight(); got != 2+live+cancelled { // the held slot counts
		t.Fatalf("in-flight %d while saturated, want %d", got, 2+live+cancelled)
	}
	cancel()
	waitFor(t, "cancelled callers to leave", func() bool { return s.QueueDepth() == 1+live })
	if _, err := s.LogitsContext(ctx, randomBatch(61, 2, net.InDim())); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled LogitsContext returned %v, want context.Canceled", err)
	}

	<-s.slots // free the slot; the waiters run one at a time
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if s.InFlight() != 0 || s.QueueDepth() != 0 {
		t.Fatalf("idle engine reports in-flight %d, queue %d", s.InFlight(), s.QueueDepth())
	}
	if batches, _ := s.Stats(); batches != 1+live {
		t.Fatalf("%d forward passes, want %d (cancelled calls never run)", batches, 1+live)
	}
	waitFor(t, "goroutines to return to baseline", func() bool { return runtime.NumGoroutine() <= base })
}

package serve

import (
	"context"
	"errors"
	"sync"
	"testing"

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
	x := randomBatch(7, 103, net.InDim()) // odd size: forces a partial chunk
	s := New(net, 1, Options{Workers: 3, MaxBatch: 16})
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
	s := New(net, 4, Options{Workers: 4, MaxBatch: 8, QueueDepth: 2})
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

// TestScorerCoalesces pre-loads the queue before any worker runs, so the
// single worker must merge all pending requests into one batched forward
// pass — the deterministic version of what concurrent callers get
// opportunistically.
func TestScorerCoalesces(t *testing.T) {
	net := testNet(t)
	s := newScorer(net, 1, Options{Workers: 1, MaxBatch: 64, QueueDepth: 16})

	const nReqs = 5
	outs := make([]*tensor.Matrix, nReqs)
	want := make([]*tensor.Matrix, nReqs)
	reqs := make([]*request, nReqs)
	for i := 0; i < nReqs; i++ {
		x := randomBatch(uint64(200+i), 3, net.InDim())
		want[i] = net.Forward(x, false).Clone()
		outs[i] = tensor.New(3, net.OutDim())
		reqs[i] = &request{x: x, logits: outs[i], done: make(chan struct{})}
		s.reqs <- reqs[i]
	}
	close(s.reqs)
	s.wg.Add(1)
	go s.worker()
	s.wg.Wait()

	batches, rows := s.Stats()
	if batches != 1 {
		t.Fatalf("queued requests ran in %d batches, want 1 merged batch", batches)
	}
	if rows != nReqs*3 {
		t.Fatalf("Stats rows = %d, want %d", rows, nReqs*3)
	}
	for i := range reqs {
		<-reqs[i].done // must be closed
		for j, v := range want[i].Data {
			if outs[i].Data[j] != v {
				t.Fatalf("request %d logits diverged after coalescing", i)
			}
		}
	}
}

// TestScorerRespectsBatchCap checks that a worker never merges past
// MaxBatch: full chunks score alone, and a drained request that would
// overflow the cap carries over to the next batch instead of inflating the
// current one.
func TestScorerRespectsBatchCap(t *testing.T) {
	net := testNet(t)
	s := newScorer(net, 1, Options{Workers: 1, MaxBatch: 4, QueueDepth: 16})
	const nReqs = 3
	for i := 0; i < nReqs; i++ {
		x := randomBatch(uint64(300+i), 4, net.InDim()) // exactly MaxBatch rows
		s.reqs <- &request{x: x, logits: tensor.New(4, net.OutDim()), done: make(chan struct{})}
	}
	close(s.reqs)
	s.wg.Add(1)
	go s.worker()
	s.wg.Wait()
	if batches, _ := s.Stats(); batches != nReqs {
		t.Fatalf("full chunks merged into %d batches, want %d separate ones", batches, nReqs)
	}

	// 4 queued requests of 3 rows under MaxBatch 6: merging pairs is
	// allowed (3+3=6), a third would overflow (9>6) and must carry over —
	// so exactly 2 merged batches, never one of 9+ rows.
	s2 := newScorer(net, 1, Options{Workers: 1, MaxBatch: 6, QueueDepth: 16})
	for i := 0; i < 4; i++ {
		x := randomBatch(uint64(310+i), 3, net.InDim())
		s2.reqs <- &request{x: x, logits: tensor.New(3, net.OutDim()), done: make(chan struct{})}
	}
	close(s2.reqs)
	s2.wg.Add(1)
	go s2.worker()
	s2.wg.Wait()
	if batches, rows := s2.Stats(); batches != 2 || rows != 12 {
		t.Fatalf("overflow carry produced %d batches / %d rows, want 2 / 12", batches, rows)
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

// TestLogitsContextCancellation: the context-aware submit path must
// return promptly with the context's error once cancelled, while the
// plain Logits fast path stays un-cancellable and identical.
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

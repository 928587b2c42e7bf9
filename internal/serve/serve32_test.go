package serve

import (
	"math"
	"sync"
	"testing"

	"malevade/internal/nn"
	"malevade/internal/tensor"
)

func test32Scorer(t *testing.T, temp float64) (*Scorer, *tensor.Matrix) {
	t.Helper()
	net, err := nn.NewMLP(nn.MLPConfig{Dims: []int{491, 64, 32, 2}, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	s := New(net, temp, Options{Workers: 2})
	t.Cleanup(s.Close)
	x := tensor.New(96, 491)
	rng := uint64(5)
	for i := range x.Data {
		rng = rng*6364136223846793005 + 1442695040888963407
		if rng%10 < 3 {
			x.Data[i] = 1
		}
	}
	return s, x
}

func TestVerdicts32Parity(t *testing.T) {
	s, x := test32Scorer(t, 2)
	refProbs := s.MalwareProb(x)
	refClasses := s.Predict(x)
	probs, classes, err := s.Verdicts32(tensor.ToFloat32(x), PrecisionFloat32)
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != x.Rows || len(classes) != x.Rows {
		t.Fatalf("%d probs / %d classes for %d rows", len(probs), len(classes), x.Rows)
	}
	for i := range probs {
		if d := math.Abs(probs[i] - refProbs[i]); d > 1e-3 {
			t.Fatalf("row %d: prob %g vs reference %g (delta %g)", i, probs[i], refProbs[i], d)
		}
		if classes[i] != refClasses[i] && math.Abs(refProbs[i]-0.5) >= 1e-3 {
			t.Fatalf("row %d: confident label flipped (%d vs %d, ref prob %g)",
				i, classes[i], refClasses[i], refProbs[i])
		}
	}
}

func TestLogits32AdvancesStats(t *testing.T) {
	s, x := test32Scorer(t, 1)
	b0, r0 := s.Stats()
	if _, err := s.Logits32(tensor.ToFloat32(x), PrecisionFloat32); err != nil {
		t.Fatal(err)
	}
	b1, r1 := s.Stats()
	if b1 != b0+1 || r1 != r0+int64(x.Rows) {
		t.Fatalf("stats after Logits32: batches %d→%d, rows %d→%d (want +1, +%d)", b0, b1, r0, r1, x.Rows)
	}
}

func TestEnsurePlan(t *testing.T) {
	s, _ := test32Scorer(t, 1)
	if err := s.EnsurePlan(PrecisionFloat64); err != nil {
		t.Fatalf("float64 must need no plan: %v", err)
	}
	if err := s.EnsurePlan(PrecisionFloat32); err != nil {
		t.Fatalf("float32: %v", err)
	}
	for _, unknown := range []string{"int8", "float16"} {
		if err := s.EnsurePlan(unknown); err == nil {
			t.Fatalf("expected error for unknown precision %q", unknown)
		}
	}
}

func TestLogits32ErrorsOnUnknownPrecision(t *testing.T) {
	s, x := test32Scorer(t, 1)
	if _, err := s.Logits32(tensor.ToFloat32(x), "bf16"); err == nil {
		t.Fatal("expected error")
	}
}

func TestLogits32PanicsAfterClose(t *testing.T) {
	net, err := nn.NewMLP(nn.MLPConfig{Dims: []int{4, 3, 2}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := New(net, 1, Options{Workers: 1})
	s.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic after Close")
		}
	}()
	s.Logits32(tensor.New32(1, 4), PrecisionFloat32)
}

// TestVerdicts32ConcurrentDeterminism checks the float32 path stays
// bit-stable under concurrent callers, matching the float64 path's
// determinism contract.
func TestVerdicts32ConcurrentDeterminism(t *testing.T) {
	s, x := test32Scorer(t, 1)
	x32 := tensor.ToFloat32(x)
	wantProbs, wantClasses, err := s.Verdicts32(x32, PrecisionFloat32)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	diverged := make(chan struct{}, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				probs, classes, err := s.Verdicts32(x32, PrecisionFloat32)
				if err != nil {
					diverged <- struct{}{}
					return
				}
				for i := range probs {
					if probs[i] != wantProbs[i] || classes[i] != wantClasses[i] {
						diverged <- struct{}{}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	select {
	case <-diverged:
		t.Fatal("concurrent Verdicts32 diverged from serial result")
	default:
	}
}

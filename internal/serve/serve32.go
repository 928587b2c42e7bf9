package serve

import (
	"context"
	"fmt"

	"malevade/internal/dataset"
	"malevade/internal/nn"
	"malevade/internal/tensor"
)

// Precision names for the scoring paths a Scorer can run. Float64 is the
// accuracy reference and the only path the training/attack code ever
// uses; Float32 is the binary-framing hot path (vector kernels, drift
// bounded by internal/nn's parity tests).
const (
	PrecisionFloat64 = "float64"
	PrecisionFloat32 = nn.PrecisionF32
)

// plan returns the lazily compiled float32 plan; precision must be
// PrecisionFloat32.
func (s *Scorer) plan(precision string) (*nn.Plan32, error) {
	if precision != PrecisionFloat32 {
		return nil, fmt.Errorf("serve: no reduced-precision plan for %q", precision)
	}
	s.planOnce.Do(func() {
		s.plan32, s.planErr = s.net.CompileF32()
	})
	return s.plan32, s.planErr
}

// EnsurePlan compiles (and caches) the plan for the given precision, so
// callers can fail at startup rather than on the first request.
// PrecisionFloat64 needs no plan and always succeeds; any precision other
// than PrecisionFloat32 is an error.
func (s *Scorer) EnsurePlan(precision string) error {
	if precision == PrecisionFloat64 {
		return nil
	}
	_, err := s.plan(precision)
	return err
}

// Logits32 scores a float32 batch through the compiled plan for the given
// precision (PrecisionFloat32) and returns fresh float32 logits. It takes
// a slot and is accounted exactly like Logits. Safe for concurrent
// callers; panics if the scorer is closed or the input width is wrong.
func (s *Scorer) Logits32(x *tensor.Matrix32, precision string) (*tensor.Matrix32, error) {
	p, err := s.plan(precision)
	if err != nil {
		return nil, err
	}
	var out *tensor.Matrix32
	err = s.run(context.Background(), x.Rows, x.Cols, func() { out = p.Logits(x) })
	return out, err
}

// Verdicts32 scores the batch through Logits32 and returns, per row, the
// malware probability under the scorer's softmax temperature and the
// argmax class — the float32 branch of the server's verdict path.
func (s *Scorer) Verdicts32(x *tensor.Matrix32, precision string) (probs []float64, classes []int, err error) {
	logits, err := s.Logits32(x, precision)
	if err != nil {
		return nil, nil, err
	}
	probs = make([]float64, logits.Rows)
	classes = make([]int, logits.Rows)
	rowBuf := make([]float64, logits.Cols)
	smBuf := make([]float64, logits.Cols)
	for i := 0; i < logits.Rows; i++ {
		for j, v := range logits.Row(i) {
			rowBuf[j] = float64(v)
		}
		nn.SoftmaxRow(rowBuf, smBuf, s.temp)
		probs[i] = smBuf[dataset.LabelMalware]
		classes[i] = logits.RowArgmax(i)
	}
	return probs, classes, nil
}

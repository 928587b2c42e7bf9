package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"

	"malevade/internal/attack"
	"malevade/internal/dataset"
	"malevade/internal/experiments"
	"malevade/internal/harden"
	"malevade/internal/nn"
	"malevade/internal/tensor"
)

// Input sizes. A frame is one bulk-scanning request; an oracle query is a
// black-box attacker's small label request.
const (
	frameRows     = 256
	numFrames     = 16
	numQueries    = 512
	maxQueryRows  = 16
	corpusDivisor = 15 // TableI corpus scale: ~6.8k rows, enough for 4k distinct frame rows
	oracleModel   = "oracle"
	hardenRounds  = 1
	hardenEpochs  = 1
	hardenTheta   = 0.1
	hardenGamma   = 0.025
)

// paperDims is the width of the paper's detector.
var paperDims = []int{491, 512, 256, 2}

// inputs is everything a run sends to the program, derived from the seed
// alone. The program under test sees only these values.
type inputs struct {
	seed uint64
	// net is the paper-width (491-512-256-2) model frames and oracle
	// queries are scored by.
	net *nn.Network
	// frames are the 256-row bulk-scanning batches.
	frames []*tensor.Matrix
	// queries are the oracle's 1–16-row label requests.
	queries []*tensor.Matrix
	// hardenSpec is the one hardening job every harden operation repeats
	// (Model is filled per copy).
	hardenSpec harden.Spec
}

func newInputs(seed uint64) (*inputs, error) {
	r := rand.New(rand.NewPCG(seed, 0x70657266626e6368))
	net, err := nn.NewMLP(nn.MLPConfig{
		Dims: paperDims,
		Seed: r.Uint64(),
	})
	if err != nil {
		return nil, err
	}
	corpus, err := dataset.Generate(dataset.TableIConfig(r.Uint64()).Scaled(corpusDivisor))
	if err != nil {
		return nil, err
	}
	pool := []*tensor.Matrix{corpus.Train.X, corpus.Test.X}
	poolRows := 0
	for _, m := range pool {
		poolRows += m.Rows
	}
	row := func(i int) []float64 {
		for _, m := range pool {
			if i < m.Rows {
				return m.Row(i)
			}
			i -= m.Rows
		}
		panic("row index out of range")
	}
	in := &inputs{seed: seed, net: net}
	perm := r.Perm(poolRows)
	for f := 0; f < numFrames; f++ {
		m := tensor.New(frameRows, net.InDim())
		for i := 0; i < frameRows; i++ {
			copy(m.Row(i), row(perm[(f*frameRows+i)%poolRows]))
		}
		in.frames = append(in.frames, m)
	}
	for q := 0; q < numQueries; q++ {
		m := tensor.New(1+r.IntN(maxQueryRows), net.InDim())
		for i := 0; i < m.Rows; i++ {
			copy(m.Row(i), row(r.IntN(poolRows)))
		}
		in.queries = append(in.queries, m)
	}
	in.hardenSpec = harden.Spec{
		Attack:  attack.Config{Kind: attack.KindJSMA, Theta: hardenTheta, Gamma: hardenGamma},
		Profile: experiments.Small.Name,
		Rounds:  hardenRounds,
		Epochs:  hardenEpochs,
		Seed:    r.Uint64(),
	}
	return in, nil
}

// digest fingerprints the inputs a workload sends, so two runs can be shown
// to have measured the same (or different) inputs.
func (in *inputs) digest(workload string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", workload)
	writeMatrix := func(m *tensor.Matrix) {
		binary.Write(h, binary.LittleEndian, int64(m.Rows))
		binary.Write(h, binary.LittleEndian, int64(m.Cols))
		for _, v := range m.Data {
			binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
	}
	switch workload {
	case "frames", "oracle":
		var buf bytes.Buffer
		if err := in.net.Save(&buf); err != nil {
			panic(err) // Save only fails on a failing writer
		}
		h.Write(buf.Bytes())
		ms := in.frames
		if workload == "oracle" {
			ms = in.queries
		}
		for _, m := range ms {
			writeMatrix(m)
		}
	case "harden":
		fmt.Fprintf(h, "%+v\n", in.hardenSpec)
	}
	return hex.EncodeToString(h.Sum(nil))
}

package client_test

// End-to-end coverage for the binary rows codec: a real daemon over real
// TCP, driven through the SDK with Codec = CodecBinary, held against the
// default JSON codec as the reference. These are the SDK-level pins for
// the binary framing contract and for the stats-counter uniformity audit
// (every scoring path — strict JSON, fast-path JSON, binary frame,
// model-addressed — must advance the same /v1/stats counters).

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"malevade/internal/client"
	"malevade/internal/nn"
	"malevade/internal/registry"
	"malevade/internal/server"
	"malevade/internal/store"
	"malevade/internal/tensor"
	"malevade/internal/wire"
)

// e2eDaemon builds a small model, a daemon serving it, and the matrix of
// exactly float32-representable feature rows the tests score.
func e2eDaemon(t *testing.T, opts server.Options) (*server.Server, *httptest.Server, *tensor.Matrix) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "model.gob")
	net, err := nn.NewMLP(nn.MLPConfig{Dims: []int{7, 16, 2}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	opts.ModelPath = path
	s, err := server.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	x := tensor.New(5, 7)
	rng := uint64(41)
	for i := range x.Data {
		rng = rng*6364136223846793005 + 1442695040888963407
		x.Data[i] = float64(float32(rng%1024) / 1024)
	}
	return s, ts, x
}

// TestClientBinaryCodecParity: the binary codec must answer the same
// classes as JSON and probabilities within the float32 parity budget,
// through both Score and Label, including chunked batches.
func TestClientBinaryCodecParity(t *testing.T) {
	_, ts, x := e2eDaemon(t, server.Options{})
	ctx := context.Background()

	jsonC := client.New(ts.URL)
	binC := client.New(ts.URL)
	binC.Codec = client.CodecBinary
	binC.MaxBatch = 2 // force chunking: 5 rows -> 3 binary requests

	want, wantVer, err := jsonC.Score(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	got, gotVer, err := binC.Score(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	if gotVer != wantVer || len(got) != len(want) {
		t.Fatalf("binary: version %d/%d, %d/%d verdicts", gotVer, wantVer, len(got), len(want))
	}
	for i := range want {
		if got[i].Class != want[i].Class {
			t.Fatalf("row %d: class %d vs %d", i, got[i].Class, want[i].Class)
		}
		if d := math.Abs(got[i].Prob - want[i].Prob); d > 1e-3 {
			t.Fatalf("row %d: prob drift %g", i, d)
		}
	}
	if served := binC.RowsServed(); served != int64(x.Rows) {
		t.Fatalf("binary client served %d rows, want %d", served, x.Rows)
	}

	wantLabels, err := jsonC.Label(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	gotLabels, err := binC.Label(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantLabels {
		if gotLabels[i] != wantLabels[i] {
			t.Fatalf("label %d: %d vs %d", i, gotLabels[i], wantLabels[i])
		}
	}
}

// TestClientBinaryModelAddressed: the frame's name field routes to registry
// models, and unknown names decode to wire.ErrUnknownModel exactly like
// the JSON codec's.
func TestClientBinaryModelAddressed(t *testing.T) {
	s, ts, x := e2eDaemon(t, server.Options{RegistryDir: t.TempDir()})
	ctx := context.Background()

	altDir := t.TempDir()
	altPath := filepath.Join(altDir, "alt.gob")
	altNet, err := nn.NewMLP(nn.MLPConfig{Dims: []int{7, 12, 2}, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := altNet.SaveFile(altPath); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().Register(registry.RegisterRequest{Name: "alt", Path: altPath}); err != nil {
		t.Fatal(err)
	}

	binC := client.New(ts.URL)
	binC.Codec = client.CodecBinary
	defVerdicts, defVer, err := binC.Score(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	altVerdicts, altVer, err := binC.ScoreModel(ctx, "alt", x)
	if err != nil {
		t.Fatal(err)
	}
	if altVer == defVer {
		t.Fatalf("alt model answered with the default generation %d", defVer)
	}
	if len(altVerdicts) != len(defVerdicts) {
		t.Fatalf("%d alt verdicts, %d default", len(altVerdicts), len(defVerdicts))
	}
	if _, err := binC.LabelModel(ctx, "alt", x); err != nil {
		t.Fatal(err)
	}
	if _, _, err := binC.ScoreModel(ctx, "nope", x); !errors.Is(err, wire.ErrUnknownModel) {
		t.Fatalf("unknown model error = %v, want ErrUnknownModel", err)
	}
}

// TestClientStatsUniform is the SDK-level stats audit: strict-decoder
// JSON, fast-path JSON, binary frames and model-addressed binary frames
// must each advance requests/rows/model_requests identically, and
// uptime_seconds must be live.
func TestClientStatsUniform(t *testing.T) {
	s, ts, x := e2eDaemon(t, server.Options{RegistryDir: t.TempDir()})
	ctx := context.Background()

	altPath := filepath.Join(t.TempDir(), "alt.gob")
	altNet, err := nn.NewMLP(nn.MLPConfig{Dims: []int{7, 12, 2}, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := altNet.SaveFile(altPath); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().Register(registry.RegisterRequest{Name: "alt", Path: altPath}); err != nil {
		t.Fatal(err)
	}

	jsonC := client.New(ts.URL)
	binC := client.New(ts.URL)
	binC.Codec = client.CodecBinary

	base, err := jsonC.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// One scoring call per path; each is 1 request and x.Rows rows.
	if _, _, err := jsonC.Score(ctx, x); err != nil { // fast-path JSON (bare shape)
		t.Fatal(err)
	}
	if _, _, err := jsonC.ScoreModel(ctx, "alt", x); err != nil { // strict JSON (model field)
		t.Fatal(err)
	}
	if _, _, err := binC.Score(ctx, x); err != nil { // binary frame
		t.Fatal(err)
	}
	if _, _, err := binC.ScoreModel(ctx, "alt", x); err != nil { // model-addressed frame
		t.Fatal(err)
	}
	st, err := jsonC.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Requests - base.Requests; got != 4 {
		t.Fatalf("requests advanced %d, want 4", got)
	}
	// The batches/rows counters cover every engine, registry models
	// included; the two model-addressed calls also advance "alt"'s request
	// counter, identically for JSON and binary.
	if got := st.Rows - base.Rows; got != int64(4*x.Rows) {
		t.Fatalf("rows advanced %d, want %d", got, 4*x.Rows)
	}
	if got := st.ModelRequests["alt"] - base.ModelRequests["alt"]; got != 2 {
		t.Fatalf("alt model_requests advanced %d, want 2", got)
	}
	if st.UptimeSeconds <= 0 {
		t.Fatalf("uptime_seconds = %g", st.UptimeSeconds)
	}
	if st.Rejected != base.Rejected {
		t.Fatalf("clean scoring advanced rejected: %d -> %d", base.Rejected, st.Rejected)
	}
	// A registry daemon carries a results store: its byte counter reflects
	// at least the committed log headers, and accepted mining sweeps
	// advance mine_jobs — all through the same SDK Stats call.
	if st.ResultsBytes <= 0 {
		t.Fatalf("results_bytes = %d, want > 0 on a registry daemon", st.ResultsBytes)
	}
	snap, err := jsonC.SubmitMine(ctx, store.MineSpec{Name: "stats-audit"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jsonC.WaitMine(ctx, snap.ID, client.MineWaitOptions{Interval: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	mined, err := jsonC.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := mined.MineJobs - st.MineJobs; got != 1 {
		t.Fatalf("mine_jobs advanced %d, want 1", got)
	}
	if mined.ResultsRecords < st.ResultsRecords {
		t.Fatalf("results_records went backwards: %d -> %d", st.ResultsRecords, mined.ResultsRecords)
	}
}

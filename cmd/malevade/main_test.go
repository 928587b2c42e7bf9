package main

import (
	"os"
	"path/filepath"
	"testing"
)

// The CLI's run() is exercised directly; commands write to stdout, so these
// tests validate exit behaviour and file side effects rather than output
// text.

func TestRunRequiresCommand(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("expected missing-command error")
	}
	if err := run([]string{"frobnicate"}); err == nil {
		t.Fatal("expected unknown-command error")
	}
	if err := run([]string{"help"}); err != nil {
		t.Fatalf("help failed: %v", err)
	}
}

func TestReproListAndUnknowns(t *testing.T) {
	if err := run([]string{"repro", "-list"}); err != nil {
		t.Fatalf("repro -list: %v", err)
	}
	if err := run([]string{"repro", "-profile", "gigantic"}); err == nil {
		t.Fatal("expected unknown-profile error")
	}
	if err := run([]string{"repro", "-profile", "small", "-exp", "nope"}); err == nil {
		t.Fatal("expected unknown-experiment error")
	}
}

func TestDatasetTrainAttackExplainPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full CLI pipeline in -short mode")
	}
	dir := t.TempDir()
	dataDir := filepath.Join(dir, "data")
	model := filepath.Join(dir, "model.gob")

	if err := run([]string{"dataset", "-scale", "300", "-seed", "5", "-out", dataDir, "-csv"}); err != nil {
		t.Fatalf("dataset: %v", err)
	}
	for _, f := range []string{"train.gob", "val.gob", "test.gob", "test.csv"} {
		if _, err := os.Stat(filepath.Join(dataDir, f)); err != nil {
			t.Fatalf("dataset did not write %s: %v", f, err)
		}
	}

	if err := run([]string{"train",
		"-data", filepath.Join(dataDir, "train.gob"),
		"-model", "target", "-width-scale", "0.08", "-epochs", "6",
		"-batch", "64", "-out", model}); err != nil {
		t.Fatalf("train: %v", err)
	}
	if _, err := os.Stat(model); err != nil {
		t.Fatalf("train did not write model: %v", err)
	}

	if err := run([]string{"attack",
		"-model", model, "-data", filepath.Join(dataDir, "test.gob"),
		"-theta", "0.1", "-gamma", "0.02", "-cap", "50"}); err != nil {
		t.Fatalf("attack: %v", err)
	}
	if err := run([]string{"attack",
		"-model", model, "-data", filepath.Join(dataDir, "test.gob"),
		"-kind", "random", "-cap", "20"}); err != nil {
		t.Fatalf("random attack: %v", err)
	}
	if err := run([]string{"attack", "-model", model,
		"-data", filepath.Join(dataDir, "test.gob"), "-kind", "warp"}); err == nil {
		t.Fatal("expected unknown-attack error")
	}

	if err := run([]string{"score",
		"-model", model, "-data", filepath.Join(dataDir, "test.gob"),
		"-workers", "2", "-clients", "4"}); err != nil {
		t.Fatalf("score: %v", err)
	}
	if err := run([]string{"score",
		"-model", model, "-data", filepath.Join(dataDir, "test.gob"),
		"-workers", "2", "-clients", "4",
		"-precision", "float32"}); err != nil {
		t.Fatalf("score -precision float32: %v", err)
	}
	if err := run([]string{"score", "-model", model,
		"-data", filepath.Join(dataDir, "test.gob"),
		"-precision", "float16"}); err == nil {
		t.Fatal("expected unknown-precision error")
	}
	if err := run([]string{"score", "-model", model,
		"-data", "/nonexistent/d.gob"}); err == nil {
		t.Fatal("expected score load error")
	}

	if err := run([]string{"explain",
		"-model", model, "-data", filepath.Join(dataDir, "test.gob"),
		"-row", "0", "-attack"}); err != nil {
		t.Fatalf("explain: %v", err)
	}
	if err := run([]string{"explain",
		"-model", model, "-data", filepath.Join(dataDir, "test.gob"),
		"-row", "-4"}); err == nil {
		t.Fatal("expected row-range error")
	}
}

func TestTrainRejectsUnknownModel(t *testing.T) {
	if err := run([]string{"train", "-model", "transformer"}); err == nil {
		t.Fatal("expected unknown-model error")
	}
}

func TestAttackRejectsMissingModel(t *testing.T) {
	if err := run([]string{"attack", "-model", "/nonexistent/m.gob"}); err == nil {
		t.Fatal("expected load error")
	}
}

func TestVocab(t *testing.T) {
	if err := run([]string{"vocab"}); err != nil {
		t.Fatalf("vocab: %v", err)
	}
}

package store

import (
	"testing"
	"time"

	"malevade/internal/campaign/spec"
	"malevade/internal/dataset"
	"malevade/internal/defense"
	"malevade/internal/detector"
)

// TestMinedRowsFeedAdversarialTraining is the end-to-end acceptance path:
// suspected in-the-wild evasions mined from recorded traffic harvest into
// defense.BuildAdvTrainingSet and train through defense.AdversarialTraining
// without modification — closing the loop from production telemetry back to
// a hardened detector.
func TestMinedRowsFeedAdversarialTraining(t *testing.T) {
	corpus, err := dataset.Generate(dataset.TableIConfig(3).Scaled(150))
	if err != nil {
		t.Fatal(err)
	}
	base := corpus.Train

	s := mustOpen(t, t.TempDir())
	defer s.Close()
	// Record "production" traffic: real malware rows the served model
	// called clean with low confidence — evasions observed in the wild.
	mal := base.FilterLabel(dataset.LabelMalware)
	nPlanted := 6
	if mal.X.Rows < nPlanted {
		t.Fatalf("corpus too small: %d malware rows", mal.X.Rows)
	}
	when := time.Date(2026, 8, 7, 10, 0, 0, 0, time.UTC)
	for i := 0; i < nPlanted; i++ {
		row := append([]float64(nil), mal.X.Row(i)...)
		err := s.RecordTraffic(TrafficRow{
			Time: when, Endpoint: "score", Generation: 1,
			Prob: 0.48, HasProb: true, Class: dataset.LabelClean, Row: row,
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	m := NewMiner(s, MinerOptions{})
	defer m.Close()
	sub, err := m.Submit(MineSpec{Name: "harvest"})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitMine(t, m, sub.ID)
	if snap.Status != spec.StatusDone || len(snap.Findings) != nPlanted {
		t.Fatalf("sweep %s: %d findings, want %d", snap.Status, len(snap.Findings), nPlanted)
	}

	advX, err := HarvestFindings(snap.Findings)
	if err != nil {
		t.Fatal(err)
	}
	if advX.Rows != nPlanted || advX.Cols != base.X.Cols {
		t.Fatalf("harvested %dx%d, want %dx%d", advX.Rows, advX.Cols, nPlanted, base.X.Cols)
	}
	sets, err := defense.BuildAdvTrainingSet(base, advX)
	if err != nil {
		t.Fatal(err)
	}
	hardened, err := defense.AdversarialTraining(sets, detector.TrainConfig{
		Arch:       detector.ArchTarget,
		WidthScale: 0.1,
		Epochs:     2,
		BatchSize:  64,
		Seed:       21,
	})
	if err != nil {
		t.Fatal(err)
	}
	if preds := hardened.Predict(advX); len(preds) != nPlanted {
		t.Fatalf("hardened detector predicted %d rows, want %d", len(preds), nPlanted)
	}
}

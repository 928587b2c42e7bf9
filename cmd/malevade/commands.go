package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"malevade/internal/apilog"
	"malevade/internal/attack"
	"malevade/internal/dataset"
	"malevade/internal/detector"
	"malevade/internal/explain"
	"malevade/internal/nn"
	"malevade/internal/serve"
	"malevade/internal/tensor"
)

func cmdDataset(args []string) error {
	fs := flag.NewFlagSet("dataset", flag.ContinueOnError)
	scale := fs.Float64("scale", 20, "divide Table I split sizes by this factor (1 = paper scale)")
	seed := fs.Uint64("seed", 3, "generation seed")
	out := fs.String("out", "data", "output directory for train.gob/val.gob/test.gob")
	csv := fs.Bool("csv", false, "also export test split as CSV")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := dataset.TableIConfig(*seed).Scaled(*scale)
	fmt.Fprintf(os.Stderr, "generating corpus: %d train / %d val / %d test samples\n",
		cfg.TrainClean+cfg.TrainMalware, cfg.ValClean+cfg.ValMalware, cfg.TestClean+cfg.TestMalware)
	corpus, err := dataset.Generate(cfg)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fmt.Errorf("create %s: %w", *out, err)
	}
	for _, split := range []struct {
		name string
		d    *dataset.Dataset
	}{
		{name: "train", d: corpus.Train},
		{name: "val", d: corpus.Val},
		{name: "test", d: corpus.Test},
	} {
		path := filepath.Join(*out, split.name+".gob")
		if err := split.d.SaveFile(path); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d samples: %d clean, %d malware)\n",
			path, split.d.Len(), split.d.NumClean(), split.d.NumMalware())
	}
	if *csv {
		path := filepath.Join(*out, "test.csv")
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("create %s: %w", path, err)
		}
		if err := corpus.Test.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("close %s: %w", path, err)
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	dataPath := fs.String("data", "data/train.gob", "training split (from 'malevade dataset')")
	model := fs.String("model", "target", "architecture: target|substitute")
	widthScale := fs.Float64("width-scale", 0.25, "hidden width scale (1 = paper widths)")
	epochs := fs.Int("epochs", 25, "training epochs (paper: 1000)")
	batch := fs.Int("batch", 128, "batch size (paper: 256)")
	lr := fs.Float64("lr", 0.001, "Adam learning rate (paper: 0.001)")
	seed := fs.Uint64("seed", 11, "training seed")
	out := fs.String("out", "model.gob", "output model file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var arch detector.Arch
	switch *model {
	case "target":
		arch = detector.ArchTarget
	case "substitute":
		arch = detector.ArchSubstitute
	default:
		return fmt.Errorf("unknown model %q (target|substitute)", *model)
	}
	train, err := dataset.LoadFile(*dataPath)
	if err != nil {
		return err
	}
	d, err := detector.Train(train, detector.TrainConfig{
		Arch:         arch,
		WidthScale:   *widthScale,
		Epochs:       *epochs,
		BatchSize:    *batch,
		LearningRate: *lr,
		Seed:         *seed,
		Log:          os.Stderr,
	})
	if err != nil {
		return err
	}
	if err := d.Net.SaveFile(*out); err != nil {
		return err
	}
	fmt.Printf("trained %s (%d parameters), train accuracy %.4f, saved to %s\n",
		arch, d.Net.NumParams(), detector.Accuracy(d, train), *out)
	return nil
}

func cmdAttack(args []string) error {
	fs := flag.NewFlagSet("attack", flag.ContinueOnError)
	modelPath := fs.String("model", "model.gob", "crafting model (from 'malevade train')")
	targetPath := fs.String("target", "", "optional separate target model (grey-box); default: crafting model")
	dataPath := fs.String("data", "data/test.gob", "dataset with malware to attack")
	theta := fs.Float64("theta", 0.1, "perturbation magnitude per step")
	gamma := fs.Float64("gamma", 0.025, "max fraction of perturbed features")
	epsilon := fs.Float64("epsilon", 0.1, "PGD L-inf radius")
	steps := fs.Int("steps", 10, "PGD iterations")
	kind := fs.String("kind", "jsma", "attack: jsma|pgd|fgsm|random")
	cap := fs.Int("cap", 2000, "max malware samples to attack (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	net, err := nn.LoadFile(*modelPath)
	if err != nil {
		return err
	}
	craft := detector.NewDNN(net)
	target := craft
	if *targetPath != "" {
		tnet, err := nn.LoadFile(*targetPath)
		if err != nil {
			return err
		}
		target = detector.NewDNN(tnet)
	}
	ds, err := dataset.LoadFile(*dataPath)
	if err != nil {
		return err
	}
	mal := ds.FilterLabel(dataset.LabelMalware)
	if *cap > 0 && mal.Len() > *cap {
		idx := make([]int, *cap)
		for i := range idx {
			idx[i] = i
		}
		mal = mal.Subset(idx)
	}
	atk, err := attack.Config{
		Kind:    *kind,
		Theta:   *theta,
		Gamma:   *gamma,
		Epsilon: *epsilon,
		Steps:   *steps,
		Seed:    97,
	}.Build(craft.Net, nil)
	if err != nil {
		return err
	}
	baseline := detector.DetectionRate(target, mal.X)
	results := atk.Run(mal.X)
	stats := attack.Summarize(results)
	adv := attack.AdvMatrix(results)
	attacked := detector.DetectionRate(target, adv)
	fmt.Printf("attack:                   %s\n", atk.Name())
	fmt.Printf("samples attacked:         %d\n", stats.N)
	fmt.Printf("target detection before:  %.4f\n", baseline)
	fmt.Printf("target detection after:   %.4f\n", attacked)
	fmt.Printf("transfer/evasion rate:    %.4f\n", 1-attacked)
	fmt.Printf("mean L2 perturbation:     %.4f\n", stats.MeanL2)
	fmt.Printf("mean modified features:   %.2f\n", stats.MeanModified)
	return nil
}

// cmdScore drives the scoring engine over a saved model: the dataset's rows
// are split among -clients goroutines, each scoring its share on its own
// goroutine with at most -workers forward passes running at once — the
// serving shape of a production detector.
func cmdScore(args []string) error {
	fs := flag.NewFlagSet("score", flag.ContinueOnError)
	modelPath := fs.String("model", "model.gob", "detector model (from 'malevade train')")
	dataPath := fs.String("data", "data/test.gob", "dataset to score")
	workers := fs.Int("workers", 0, "max concurrent forward passes (0 = GOMAXPROCS)")
	clients := fs.Int("clients", 8, "concurrent client goroutines submitting rows")
	precision := fs.String("precision", serve.PrecisionFloat64,
		"inference precision: float64 (reference) or float32 (tiled hot path)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	net, err := nn.LoadFile(*modelPath)
	if err != nil {
		return err
	}
	ds, err := dataset.LoadFile(*dataPath)
	if err != nil {
		return err
	}
	if ds.Len() == 0 {
		return fmt.Errorf("score: empty dataset %s", *dataPath)
	}
	if *clients <= 0 {
		*clients = 1
	}
	sc := serve.New(net, 1, serve.Options{Workers: *workers})
	defer sc.Close()
	if *precision != serve.PrecisionFloat64 {
		if err := sc.EnsurePlan(*precision); err != nil {
			return fmt.Errorf("score: %w", err)
		}
	}

	rows := ds.X.Rows
	cols := ds.X.Cols
	preds := make([]int, rows)
	per := (rows + *clients - 1) / *clients
	start := time.Now()
	var wg sync.WaitGroup
	var scoreErr error
	var scoreErrOnce sync.Once
	for c := 0; c < *clients; c++ {
		lo := c * per
		hi := lo + per
		if hi > rows {
			hi = rows
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			x := tensor.FromSlice(hi-lo, cols, ds.X.Data[lo*cols:hi*cols])
			if *precision == serve.PrecisionFloat64 {
				copy(preds[lo:hi], sc.Predict(x))
				return
			}
			_, classes, err := sc.Verdicts32(tensor.ToFloat32(x), *precision)
			if err != nil {
				scoreErrOnce.Do(func() { scoreErr = err })
				return
			}
			copy(preds[lo:hi], classes)
		}(lo, hi)
	}
	wg.Wait()
	if scoreErr != nil {
		return fmt.Errorf("score: %w", scoreErr)
	}
	elapsed := time.Since(start)

	malware := 0
	correct := 0
	for i, p := range preds {
		if p == dataset.LabelMalware {
			malware++
		}
		if p == ds.Y[i] {
			correct++
		}
	}
	batches, scored := sc.Stats()
	fmt.Printf("precision:           %s\n", *precision)
	fmt.Printf("samples scored:      %d\n", rows)
	fmt.Printf("flagged as malware:  %d (%.4f)\n", malware, float64(malware)/float64(rows))
	fmt.Printf("label agreement:     %.4f\n", float64(correct)/float64(rows))
	fmt.Printf("merged batches:      %d (mean %.1f rows/batch)\n", batches, float64(scored)/float64(batches))
	fmt.Printf("throughput:          %.0f rows/s (%d clients, %s)\n",
		float64(rows)/elapsed.Seconds(), *clients, elapsed.Round(time.Millisecond))
	return nil
}

func cmdVocab(args []string) error {
	fs := flag.NewFlagSet("vocab", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	for i, name := range apilog.Names() {
		fmt.Printf("%3d %s\n", i, name)
	}
	return nil
}

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	modelPath := fs.String("model", "model.gob", "detector model (from 'malevade train')")
	dataPath := fs.String("data", "data/test.gob", "dataset to pick the sample from")
	row := fs.Int("row", 0, "sample row index")
	top := fs.Int("top", 8, "how many evidence features to show per side")
	attackIt := fs.Bool("attack", false, "also run JSMA and explain the adversarial diff")
	if err := fs.Parse(args); err != nil {
		return err
	}
	net, err := nn.LoadFile(*modelPath)
	if err != nil {
		return err
	}
	d := detector.NewDNN(net)
	ds, err := dataset.LoadFile(*dataPath)
	if err != nil {
		return err
	}
	if *row < 0 || *row >= ds.Len() {
		return fmt.Errorf("row %d out of [0,%d)", *row, ds.Len())
	}
	x := ds.X.Row(*row)
	ex, err := explain.Explain(d, x)
	if err != nil {
		return err
	}
	fmt.Printf("sample %d (%s, label %d)\n", *row, ds.Fams[*row], ds.Y[*row])
	if err := ex.Render(os.Stdout, *top); err != nil {
		return err
	}
	if !*attackIt {
		return nil
	}
	j := &attack.JSMA{Model: d.Net, Theta: 0.1, Gamma: 0.025}
	r := j.PerturbOne(x)
	diffs, err := explain.DiffExplanations(d, r.Original, r.Adversarial)
	if err != nil {
		return err
	}
	fmt.Printf("\nJSMA adversarial diff (evaded=%v):\n", r.Evaded)
	for _, diff := range diffs {
		fmt.Printf("  + %-28s Δx=%+.3f attribution %+.4f -> %+.4f\n",
			diff.API, diff.DeltaX, diff.OrigScore, diff.AdvScore)
	}
	return nil
}

package main

import (
	"encoding/json"
	"flag"
	"fmt"

	"malevade/internal/defense"
	"malevade/internal/serve"
	"malevade/internal/server"
)

// cmdServe runs the HTTP scoring daemon: the paper's deployed-detector
// setting, where clients (and adversaries) probe the model over the network.
// SIGHUP or POST /v1/reload hot-reloads the model file without dropping
// in-flight requests; SIGTERM/SIGINT shuts down gracefully.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8446", "listen address")
	modelPath := fs.String("model", "model.gob", "detector model (from 'malevade train')")
	temp := fs.Float64("temp", 1, "softmax temperature for the probability head")
	workers := fs.Int("workers", 0, "max concurrent forward passes per model (0 = GOMAXPROCS)")
	maxRows := fs.Int("max-rows", 4096, "max rows per scoring request")
	maxBytes := fs.Int64("max-bytes", 32<<20, "max request body bytes")
	timeouts := httpTimeoutFlags(fs)
	defensesJSON := fs.String("defenses", "",
		`servable defense chain as JSON, e.g. '[{"kind":"squeeze","bits":3,"threshold":0.2}]' (data-consuming defenses are built offline; see docs/ERRORS.md and ApplyDefenses)`)
	registryDir := fs.String("registry", "",
		"model-registry directory: serve named, versioned detectors via /v1/models (contents survive restarts)")
	record := fs.Int("record", 0,
		"record every Nth served score/label row into the results store for 'malevade mine' (0 = off; requires -registry)")
	obsf := observabilityFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := obsf.logger()
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if *record > 0 && *registryDir == "" {
		return fmt.Errorf("serve: -record requires -registry (traffic persists in the results store beside it)")
	}
	var defenses defense.Chain
	if *defensesJSON != "" {
		if err := json.Unmarshal([]byte(*defensesJSON), &defenses); err != nil {
			return fmt.Errorf("serve: -defenses: %w", err)
		}
	}
	srv, err := server.New(server.Options{
		ModelPath:     *modelPath,
		Temperature:   *temp,
		Scorer:        serve.Options{Workers: *workers},
		MaxRows:       *maxRows,
		MaxBodyBytes:  *maxBytes,
		Defenses:      defenses,
		RegistryDir:   *registryDir,
		RecordTraffic: *record,
		Logger:        logger,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	stopDebug, err := obsf.startDebug(logger)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	defer stopDebug()

	onHUP := func() {
		version, err := srv.Reload("")
		if err != nil {
			logger.Error("reload failed, keeping current model", "error", err.Error())
			return
		}
		logger.Info("hot-reloaded model", "generation", version)
	}
	banner := func(bound string) {
		logger.Info("daemon listening",
			"addr", bound, "model", *modelPath,
			"generation", srv.ModelVersion())
	}
	return runHTTP("serve", *addr, srv, timeouts, logger, onHUP, banner)
}

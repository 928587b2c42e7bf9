// Package server exposes the slot-bounded scoring engine as a JSON
// HTTP daemon — the paper's deployed-detector setting (conf_dsn_HuangVFIKW19
// §III), where adversaries probe a production malware classifier as a
// black-box oracle over the network.
//
// Endpoints:
//
//	POST /v1/score   batch feature vectors → per-row malware probability
//	                 and predicted class
//	POST /v1/label   oracle-style hard labels (the black-box attack surface)
//	POST /v1/reload  hot-reload the model from disk
//	GET  /healthz    liveness + current model version
//	GET  /v1/stats   batch/row/request counters
//
// plus the asynchronous attack-campaign API (see campaigns.go):
//
//	POST   /v1/campaigns       submit an evasion campaign
//	GET    /v1/campaigns       list campaigns
//	GET    /v1/campaigns/{id}  status + incremental per-sample results
//	DELETE /v1/campaigns/{id}  cancel
//
// and, when a registry is configured, the closed-loop hardening API
// (see harden.go):
//
//	POST   /v1/harden       submit a hardening job
//	GET    /v1/harden       list jobs
//	GET    /v1/harden/{id}  status + per-round metrics
//	DELETE /v1/harden/{id}  cancel
//
// and the durable results store + historical attack mining API
// (see results.go), persisted under RegistryDir/.results:
//
//	GET    /v1/results              stored campaigns + store counters
//	GET    /v1/results/{id}         per-sample results, paginated/filtered
//	GET    /v1/results/traffic      recorded live traffic (serve -record)
//	POST   /v1/results/{id}/replay  re-score a stored perturbation
//	POST   /v1/mine                 sweep recorded traffic for evasions
//	GET    /v1/mine                 list sweeps
//	GET    /v1/mine/{id}            ranked findings
//	DELETE /v1/mine/{id}            cancel a queued sweep
//
// docs/http-api.md is the full wire reference.
//
// The model behind the endpoints hot-reloads atomically: a reload (SIGHUP in
// the CLI, or POST /v1/reload) loads the new network from disk, swaps it in
// behind an atomic.Pointer, then drains and closes the old scoring engine.
// Every request resolves the model exactly once, so a response is always
// computed wholly by one model version — no in-flight request ever sees a
// torn model.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"mime"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"malevade/internal/campaign"
	"malevade/internal/client"
	"malevade/internal/dataset"
	"malevade/internal/defense"
	"malevade/internal/detector"
	"malevade/internal/harden"
	"malevade/internal/nn"
	"malevade/internal/obs"
	"malevade/internal/registry"
	"malevade/internal/serve"
	"malevade/internal/store"
	"malevade/internal/tensor"
	"malevade/internal/wire"
)

// Options configures a Server. ModelPath is required; everything else has
// sensible defaults.
type Options struct {
	// ModelPath is the nn.SaveFile model the server loads at startup and
	// on every reload that names no explicit path.
	ModelPath string
	// Temperature is the softmax temperature of the probability head
	// (0 means 1).
	Temperature float64
	// Scorer tunes the underlying scoring engine (Workers: concurrent
	// forward passes per model).
	Scorer serve.Options
	// MaxRows caps the rows accepted in one /v1/score or /v1/label
	// request (default 4096). Larger batches are rejected with 400.
	MaxRows int
	// MaxBodyBytes caps the request body size (default 32 MiB). Larger
	// bodies are rejected with 413.
	MaxBodyBytes int64
	// Campaigns tunes the attack-campaign orchestrator behind
	// /v1/campaigns (workers, queue depth, sample caps). LocalTarget,
	// CraftModel and RemoteTarget are filled by the server when unset:
	// campaigns then target the live generation-pinned model, craft on a
	// private copy of the served model file, and reach remote targets
	// through the client SDK.
	Campaigns campaign.Options
	// Defenses hardens every loaded model generation with a servable
	// defense chain (defense.Chain.Wrap): scoring, labels and campaign
	// verdicts then all travel the defended path, so the daemon serves a
	// hardened detector through the same API as a bare one. Every spec
	// must be buildable from the model alone (Chain.ValidateServable);
	// data-consuming defenses are built offline with ApplyDefenses and
	// served as an ordinary hardened model file. Applies to the default
	// model only; registry models carry their own per-version chains.
	Defenses defense.Chain
	// RegistryDir, when non-empty, opens the disk-backed model registry
	// rooted there and exposes it as /v1/models: named, versioned,
	// durable detectors with atomic live promotion, addressable from
	// scoring/label requests (the "model" field) and campaign specs
	// ("target_model"). Registry generations and default-slot reloads
	// draw from one monotonic counter.
	RegistryDir string
	// RegistryMaxModels / RegistryMaxVersions cap the registry (defaults
	// 64 models, 32 versions per model); past them registrations are
	// refused with 507 registry_full.
	RegistryMaxModels   int
	RegistryMaxVersions int
	// Harden tunes the closed-loop hardening controller behind /v1/harden
	// (workers, queue depth, round cap). Dir, Campaigns and Models are
	// filled by the server: job state persists under RegistryDir/.harden,
	// rounds run through the daemon's campaign engine, and hardened
	// versions promote through its registry. The controller only exists
	// when RegistryDir is set — hardening retrains and promotes named,
	// durable models.
	Harden harden.Options
	// Results tunes the durable campaign-results store behind /v1/results
	// (traffic flush threshold). Dir is filled by the server: results
	// persist under RegistryDir/.results, campaign per-sample results
	// stream into it as they are judged, and a restarted daemon serves
	// them back bit-identically. The store only exists when RegistryDir is
	// set — a registry-less daemon runs fully in-memory.
	Results store.Options
	// Miner tunes the historical-attack miner behind /v1/mine (workers,
	// queue depth, suspicion band). The miner sweeps the store's recorded
	// traffic, so it too only exists when RegistryDir is set.
	Miner store.MinerOptions
	// RecordTraffic, when positive, samples one in every RecordTraffic
	// scoring/label rows into the results store's traffic log (1 records
	// everything) — the daemon-side half of in-the-wild evasion mining.
	// Off by default: recording live traffic is an explicit operator
	// opt-in (`serve -record`).
	RecordTraffic int
	// Obs, when set, is the metrics registry the daemon records into and
	// serves at GET /metrics; nil makes the server create a private one.
	// Passing a shared registry embeds the daemon's metrics in a larger
	// process's exposition. /v1/stats is a backward-compatible view over
	// the same sources (docs/OBSERVABILITY.md maps every field).
	Obs *obs.Registry
	// Logger receives structured lifecycle events (boot, reload,
	// promotion, campaign/harden/mine transitions, store recovery) and
	// per-request access logs carrying X-Malevade-Request-Id. Nil
	// discards them.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Temperature <= 0 {
		o.Temperature = 1
	}
	if o.MaxRows <= 0 {
		o.MaxRows = 4096
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 32 << 20
	}
	return o
}

// model is the server's name for one immutable loaded generation of the
// default slot — the registry's refcounted Instance (the drain machinery
// the reload path introduced now lives in internal/registry, shared with
// every named model's slot).
type model = registry.Instance

// Server is the HTTP scoring daemon. Create with New, serve with any
// http.Server (it implements http.Handler), and Close when done.
type Server struct {
	opts Options
	mux  *http.ServeMux

	// slot holds the live default-model generation. Handlers pin it with
	// acquire/release; Reload swaps it and drains the old generation.
	// Empty after Close.
	slot registry.Slot

	// reloadMu serializes Reload/Close so generations retire one at a
	// time and version numbers are strictly increasing.
	reloadMu sync.Mutex
	version  atomic.Int64

	// registry is the named-model store behind /v1/models (nil unless
	// Options.RegistryDir is set). It shares s.version as its generation
	// counter, so default-slot reloads and registry promotions draw from
	// one monotonic sequence.
	registry *registry.Registry

	// campaigns is the asynchronous attack-campaign orchestrator behind
	// /v1/campaigns; its local target pins one model generation per
	// campaign batch.
	campaigns *campaign.Engine

	// harden is the closed-loop hardening controller behind /v1/harden
	// (nil unless a registry is configured). Its durable job state lives
	// under RegistryDir/.harden, so a restarted daemon resumes in-flight
	// hardening jobs.
	harden *harden.Engine

	// store is the durable campaign-results store behind /v1/results (nil
	// unless a registry is configured). It lives under
	// RegistryDir/.results; the campaign engine streams every job's
	// per-sample results into it, and — behind Options.RecordTraffic —
	// sampled live scoring rows land in its traffic log.
	store *store.Store

	// miner runs queued historical-attack sweeps over the store's
	// recorded traffic behind /v1/mine (nil without a store).
	miner *store.Miner

	// recordSeq drives the 1-in-RecordTraffic row sampler.
	recordSeq atomic.Int64

	started time.Time // process start, for uptime_seconds

	// obs is the metrics registry behind GET /metrics; /v1/stats renders
	// the same sources, so the two views cannot drift. handler is the mux
	// wrapped in the shared HTTP middleware (request counts, latency
	// histograms, request IDs, access logs).
	obs     *obs.Registry
	log     *slog.Logger
	handler http.Handler

	requests      *obs.Counter    // scoring requests served (score + label)
	rejected      *obs.Counter    // scoring requests rejected with 4xx
	reloads       *obs.Counter    // successful hot-reloads
	precisionRows *obs.CounterVec // rows scored, by kernel precision

	// batches/rows are the engine counters every scorer the daemon builds
	// advances (serve.Counters), so they are cumulative across reloads and
	// cover registry models.
	batches *obs.Counter
	rows    *obs.Counter
}

// New loads the model at opts.ModelPath and returns a ready-to-serve daemon.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.ModelPath == "" {
		return nil, fmt.Errorf("server: Options.ModelPath is required")
	}
	if len(opts.Defenses) > 0 {
		if err := opts.Defenses.ValidateServable(); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	s := &Server{opts: opts, started: time.Now()}
	s.obs = opts.Obs
	if s.obs == nil {
		s.obs = obs.NewRegistry()
	}
	s.log = obs.Or(opts.Logger)
	// Core scoring counters live in the obs registry; /v1/stats reads
	// them back through Value(), so the JSON view and /metrics cannot
	// disagree.
	s.requests = s.obs.Counter("malevade_scoring_requests_total",
		"Scoring requests served (score + label), summed across reloads.")
	s.rejected = s.obs.Counter("malevade_scoring_rejected_total",
		"Scoring requests rejected with a 4xx before reaching an engine.")
	s.reloads = s.obs.Counter("malevade_reloads_total",
		"Successful hot model reloads on the default slot.")
	s.precisionRows = s.obs.CounterVec("malevade_serve_precision_rows_total",
		"Rows scored, by the kernel precision that actually ran them.",
		"precision")
	s.batches, s.rows = serve.Counters(s.obs)
	// Thread the registry into every engine the daemon builds: the slot
	// scorer and all registry-loaded scorers share the engine counters
	// and one batch-rows histogram, and the store/campaign/harden layers register their own
	// instruments against the same exposition.
	opts.Scorer.Obs = s.obs
	s.opts.Scorer.Obs = s.obs
	// The registry opens before the default slot loads: Open raises the
	// shared generation counter past every generation persisted in the
	// manifests, so the default model's generation — and everything after
	// it — stays unique even against a registry dir populated by an
	// earlier process.
	if opts.RegistryDir != "" {
		reg, err := registry.Open(registry.Options{
			Dir:         opts.RegistryDir,
			Temperature: opts.Temperature,
			Scorer:      opts.Scorer,
			MaxModels:   opts.RegistryMaxModels,
			MaxVersions: opts.RegistryMaxVersions,
			Gen:         &s.version,
			Logger:      opts.Logger,
		})
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.registry = reg
		// The results store nests beside the registry (Open skips
		// manifest-less directories, so .results is invisible to it) and
		// recovers prior campaigns before the engine below seeds its id
		// counter from them.
		resultsOpts := opts.Results
		if resultsOpts.Dir == "" {
			resultsOpts.Dir = filepath.Join(opts.RegistryDir, ".results")
		}
		if resultsOpts.Obs == nil {
			resultsOpts.Obs = s.obs
		}
		if resultsOpts.Logger == nil {
			resultsOpts.Logger = opts.Logger
		}
		st, err := store.Open(resultsOpts)
		if err != nil {
			s.registry.Close()
			return nil, fmt.Errorf("server: %w", err)
		}
		s.store = st
	}
	m, err := s.load(opts.ModelPath)
	if err != nil {
		if s.store != nil {
			s.store.Close()
		}
		if s.registry != nil {
			s.registry.Close()
		}
		return nil, err
	}
	s.slot.Store(m)
	campaignOpts := opts.Campaigns
	if s.store != nil && campaignOpts.Sink == nil {
		// Stream every campaign's per-sample results into the store, and
		// seed the id counter past recovered campaigns so c%06d ids stay
		// unique across restarts.
		campaignOpts.Sink = s.store
		if campaignOpts.BaseSeq == 0 {
			campaignOpts.BaseSeq = s.store.MaxCampaignSeq()
		}
	}
	if campaignOpts.LocalTarget == nil {
		campaignOpts.LocalTarget = serverTarget{s}
	}
	if campaignOpts.CraftModel == nil {
		campaignOpts.CraftModel = s.craftModel
	}
	if campaignOpts.RemoteTarget == nil {
		campaignOpts.RemoteTarget = func(baseURL string) (campaign.Target, error) {
			return client.NewRemoteTarget(baseURL), nil
		}
	}
	if s.registry != nil {
		if campaignOpts.NamedTarget == nil {
			campaignOpts.NamedTarget = func(name string) (campaign.Target, error) {
				// Validate eagerly (Submit calls this synchronously), then
				// judge batches against whatever version is live at batch
				// time — a promotion mid-campaign splits between batches,
				// never inside one.
				if _, err := s.registry.Get(name); err != nil {
					return nil, err
				}
				return namedTarget{s: s, name: name}, nil
			}
		}
		if campaignOpts.NamedCraftModel == nil {
			campaignOpts.NamedCraftModel = s.registry.LoadLive
		}
	}
	if campaignOpts.Obs == nil {
		campaignOpts.Obs = s.obs
	}
	if campaignOpts.Logger == nil {
		campaignOpts.Logger = opts.Logger
	}
	s.campaigns = campaign.NewEngine(campaignOpts)
	if s.registry != nil {
		hardenOpts := opts.Harden
		if hardenOpts.Dir == "" {
			// The registry's Open skips directories without a
			// manifest.json, so the job-state dir nests safely inside the
			// registry dir and shares its backup/restore story.
			hardenOpts.Dir = filepath.Join(opts.RegistryDir, ".harden")
		}
		hardenOpts.Campaigns = s.campaigns
		hardenOpts.Models = s.registry
		if hardenOpts.Obs == nil {
			hardenOpts.Obs = s.obs
		}
		if hardenOpts.Logger == nil {
			hardenOpts.Logger = opts.Logger
		}
		h, err := harden.NewEngine(hardenOpts)
		if err != nil {
			s.campaigns.Close()
			s.store.Close()
			s.registry.Close()
			old := s.slot.Swap(nil)
			if old != nil {
				old.Retire()
			}
			return nil, fmt.Errorf("server: %w", err)
		}
		s.harden = h
	}
	if s.store != nil {
		minerOpts := opts.Miner
		if minerOpts.Logger == nil {
			minerOpts.Logger = opts.Logger
		}
		s.miner = store.NewMiner(s.store, minerOpts)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/score", s.handleScore)
	s.mux.HandleFunc("/v1/label", s.handleLabel)
	s.mux.HandleFunc("/v1/reload", s.handleReload)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /v1/campaigns", s.handleCampaignSubmit)
	s.mux.HandleFunc("GET /v1/campaigns", s.handleCampaignList)
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.handleCampaignGet)
	s.mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCampaignCancel)
	s.mux.HandleFunc("POST /v1/harden", s.handleHardenSubmit)
	s.mux.HandleFunc("GET /v1/harden", s.handleHardenList)
	s.mux.HandleFunc("GET /v1/harden/{id}", s.handleHardenGet)
	s.mux.HandleFunc("DELETE /v1/harden/{id}", s.handleHardenCancel)
	s.mux.HandleFunc("GET /v1/results", s.handleResultsList)
	s.mux.HandleFunc("GET /v1/results/{id}", s.handleResultsGet)
	s.mux.HandleFunc("POST /v1/results/{id}/replay", s.handleResultsReplay)
	s.mux.HandleFunc("POST /v1/mine", s.handleMineSubmit)
	s.mux.HandleFunc("GET /v1/mine", s.handleMineList)
	s.mux.HandleFunc("GET /v1/mine/{id}", s.handleMineGet)
	s.mux.HandleFunc("DELETE /v1/mine/{id}", s.handleMineCancel)
	s.mux.HandleFunc("GET /v1/models", s.handleModelList)
	s.mux.HandleFunc("POST /v1/models", s.handleModelRegister)
	s.mux.HandleFunc("GET /v1/models/{name}", s.handleModelGet)
	s.mux.HandleFunc("POST /v1/models/{name}", s.handleModelAction)
	s.mux.HandleFunc("DELETE /v1/models/{name}", s.handleModelDelete)
	s.mux.Handle("GET /metrics", s.obs.Handler())
	s.registerFuncMetrics()
	s.handler = obs.NewHTTP(s.obs, opts.Logger, nil).Wrap(s.mux)
	s.log.Info("daemon ready",
		"model_path", opts.ModelPath,
		"generation", s.ModelVersion(),
		"registry", opts.RegistryDir != "",
		"record_traffic", opts.RecordTraffic,
	)
	return s, nil
}

// registerFuncMetrics exposes values other layers already maintain —
// engine load, registry state, store sizes, job-queue totals — as
// callback metrics so scrapes read the exact sources /v1/stats renders.
func (s *Server) registerFuncMetrics() {
	s.obs.GaugeFunc("malevade_uptime_seconds",
		"Seconds since the daemon process booted.",
		func() float64 { return time.Since(s.started).Seconds() })
	s.obs.GaugeFunc("malevade_model_generation",
		"Monotonic generation of the model live on the default slot.",
		func() float64 { return float64(s.ModelVersion()) })
	s.obs.GaugeFunc("malevade_serve_queue_depth",
		"Scoring calls waiting for a forward-pass slot across every live engine.",
		func() float64 { q, _ := s.engineLoad(); return float64(q) })
	s.obs.GaugeFunc("malevade_serve_inflight_requests",
		"Scoring calls waiting for or holding a forward-pass slot across every live engine.",
		func() float64 { _, f := s.engineLoad(); return float64(f) })
	s.obs.CounterFunc("malevade_campaigns_submitted_total",
		"Adversarial campaigns accepted over the daemon lifetime.",
		func() float64 { return float64(s.campaigns.Submitted()) })
	if s.registry != nil {
		s.obs.GaugeFunc("malevade_registry_models",
			"Named models currently resident in the registry.",
			func() float64 { return float64(len(s.registry.List())) })
		s.obs.CounterFunc("malevade_registry_promotions_total",
			"Version promotions (register-with-promote + explicit promote).",
			func() float64 { return float64(s.registry.Promotions()) })
		s.obs.CounterVecFunc("malevade_model_requests_total",
			"Scoring requests served per registry model.",
			"model",
			func() map[string]float64 {
				counts := s.registry.RequestCounts()
				out := make(map[string]float64, len(counts))
				for name, n := range counts {
					out[name] = float64(n)
				}
				return out
			})
	}
	if s.harden != nil {
		s.obs.CounterFunc("malevade_harden_submitted_total",
			"Hardening jobs accepted over the daemon lifetime.",
			func() float64 { return float64(s.harden.Submitted()) })
	}
	if s.store != nil {
		s.obs.CounterFunc("malevade_store_records_total",
			"Result records appended to the campaign store.",
			func() float64 { return float64(s.store.Records()) })
		s.obs.GaugeFunc("malevade_store_bytes",
			"Bytes held by the campaign result logs on disk.",
			func() float64 { return float64(s.store.Bytes()) })
		s.obs.GaugeFunc("malevade_store_traffic_bytes",
			"Bytes held by the sampled live-traffic log (traffic.mrl).",
			func() float64 { return float64(s.store.TrafficBytes()) })
		s.obs.GaugeFunc("malevade_store_traffic_records",
			"Sampled live-traffic records available for mining.",
			func() float64 { return float64(s.store.TrafficRecords()) })
	}
	if s.miner != nil {
		s.obs.CounterFunc("malevade_mine_submitted_total",
			"Traffic-mining jobs accepted over the daemon lifetime.",
			func() float64 { return float64(s.miner.Submitted()) })
	}
}

// engineLoad sums queue depth and in-flight counts over the default
// slot and every live registry engine.
func (s *Server) engineLoad() (queue, inflight int64) {
	if m := s.slot.Load(); m != nil {
		queue += int64(m.Scorer.QueueDepth())
		inflight += m.Scorer.InFlight()
	}
	if s.registry != nil {
		q, f := s.registry.EngineLoad()
		queue += q
		inflight += f
	}
	return queue, inflight
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// load builds the next default-slot generation from a saved network file,
// through the registry's shared instance builder (engine + optional
// defense wrap + two-class-head validation at load time).
func (s *Server) load(path string) (*model, error) {
	gen := s.version.Add(1)
	m, err := registry.BuildInstance(registry.InstanceConfig{
		Path:        path,
		Version:     int(gen),
		Generation:  gen,
		Temperature: s.opts.Temperature,
		Scorer:      s.opts.Scorer,
		Defenses:    s.opts.Defenses,
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	return m, nil
}

// acquire pins the current default-model generation for the duration of
// one request (registry.Slot.Acquire: a successful acquire guarantees the
// generation stayed current at the moment its refcount became visible, so
// a reload's drain can never close an engine a request is still using).
// Returns nil after Close.
func (s *Server) acquire() *model { return s.slot.Acquire() }

func (s *Server) release(m *model) { m.Release() }

// Reload hot-swaps the model. An empty path reloads from the configured
// ModelPath; a non-empty path becomes the new configured path on success.
// In-flight requests finish on the generation they started on.
func (s *Server) Reload(path string) (version int64, err error) {
	m, err := s.reload(path)
	if err != nil {
		return 0, err
	}
	return m.Generation, nil
}

// reload is Reload returning the swapped-in generation, so callers can
// report its version and resolved path as a consistent pair.
func (s *Server) reload(path string) (*model, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	old := s.slot.Load()
	if old == nil {
		return nil, fmt.Errorf("server: reload after Close")
	}
	if path == "" {
		path = old.Path
	}
	m, err := s.load(path)
	if err != nil {
		return nil, err
	}
	s.slot.Store(m)
	s.reloads.Inc()
	s.log.Info("model reloaded",
		"path", m.Path, "generation", m.Generation)
	old.Retire()
	return m, nil
}

// Registry exposes the daemon's model registry (nil unless RegistryDir
// was configured), for embedders that register or promote in-process.
func (s *Server) Registry() *registry.Registry { return s.registry }

// Close cancels running campaigns, drains in-flight requests and releases
// the scoring engines — the default slot's and every registry model's.
// Subsequent requests are answered 503. The registry's on-disk store is
// untouched, so a daemon restarted on the same -registry dir serves the
// previously live versions. Idempotent.
func (s *Server) Close() {
	// The hardening controller closes first: its jobs drive campaigns and
	// registry promotions, so stopping it (resumably — in-flight jobs keep
	// their durable state) lets the campaign and registry shutdowns below
	// proceed without live submitters. Then campaigns: their batches hold
	// generation refs through serverTarget/namedTarget, so cancelling and
	// draining them lets the retires below complete without waiting on
	// long-running jobs.
	if s.harden != nil {
		s.harden.Close()
	}
	s.campaigns.Close()
	// The miner and store close after campaigns: the drained engine has
	// delivered every terminal snapshot to its sink by now, so the store
	// seals each campaign log before closing.
	if s.miner != nil {
		s.miner.Close()
	}
	if s.store != nil {
		s.store.Close()
	}
	if s.registry != nil {
		s.registry.Close()
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	old := s.slot.Swap(nil)
	if old != nil {
		old.Retire()
		s.log.Info("daemon shut down",
			"uptime_seconds", time.Since(s.started).Seconds())
	}
}

// ModelVersion reports the current default-model generation (1 at
// startup, advanced by each successful reload — and, when a registry is
// configured, sharing its monotonic sequence with promotions).
func (s *Server) ModelVersion() int64 {
	if m := s.slot.Load(); m != nil {
		return m.Generation
	}
	return 0
}

// Wire schemas.

// ScoreRequest is the body of /v1/score and /v1/label: a batch of feature
// vectors, each exactly the addressed model's input width. Model routes
// the request to a named registry model; empty keeps the daemon's
// original single-model behavior, so the wire protocol is backward
// compatible.
type ScoreRequest struct {
	Model string      `json:"model,omitempty"`
	Rows  [][]float64 `json:"rows"`
}

// ScoreResult is one row's verdict.
type ScoreResult struct {
	// Prob is P(malware|x) at the server's temperature.
	Prob float64 `json:"prob"`
	// Class is the argmax class (0 clean, 1 malware).
	Class int `json:"class"`
}

// ScoreResponse answers /v1/score. ModelVersion identifies the exact model
// generation that computed every row of Results.
type ScoreResponse struct {
	ModelVersion int64         `json:"model_version"`
	Results      []ScoreResult `json:"results"`
}

// LabelResponse answers /v1/label with oracle-style hard labels.
type LabelResponse struct {
	ModelVersion int64 `json:"model_version"`
	Labels       []int `json:"labels"`
}

// ReloadRequest optionally names a new model path for /v1/reload; an empty
// body or empty path reloads the configured path.
type ReloadRequest struct {
	Path string `json:"path"`
}

// ReloadResponse reports the swapped-in generation.
type ReloadResponse struct {
	ModelVersion int64  `json:"model_version"`
	ModelPath    string `json:"model_path"`
}

// HealthResponse answers /healthz.
type HealthResponse struct {
	Status       string `json:"status"`
	ModelVersion int64  `json:"model_version"`
	ModelPath    string `json:"model_path"`
	LoadedAt     string `json:"loaded_at"`
	InDim        int    `json:"in_dim"`
	// Defenses names the live defense chain, in application order (empty
	// for a bare daemon).
	Defenses []string `json:"defenses,omitempty"`
	// Models counts the registry's named models (absent without a
	// registry).
	Models int `json:"models,omitempty"`
	// ModelNames lists the registry's model names, sorted (absent without
	// a registry) — what a fleet gateway's health probe needs for
	// per-model routing without a second round-trip.
	ModelNames []string `json:"model_names,omitempty"`
}

// StatsResponse answers /v1/stats with counters cumulative across reloads.
type StatsResponse struct {
	ModelVersion int64 `json:"model_version"`
	// UptimeSeconds is how long the daemon process has been serving.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Requests/Rejected count scoring calls (score + label) served and
	// refused with a 4xx.
	Requests int64 `json:"requests"`
	Rejected int64 `json:"rejected"`
	Reloads  int64 `json:"reloads"`
	// Batches/Rows count forward passes and the rows they scored across
	// every engine — the default slot's and every registry model's, over
	// all reloads; Rows/Batches is the mean batch size.
	Batches int64 `json:"batches"`
	Rows    int64 `json:"rows"`
	// Campaigns counts campaign submissions accepted by /v1/campaigns.
	Campaigns int64 `json:"campaigns"`
	// HardenJobs counts hardening jobs accepted by /v1/harden (absent
	// without a registry).
	HardenJobs int64 `json:"harden_jobs,omitempty"`
	// ResultsRecords/ResultsBytes count the durable results store's
	// committed records and bytes across every log (absent without a
	// registry, and therefore without a store).
	ResultsRecords int64 `json:"results_records,omitempty"`
	ResultsBytes   int64 `json:"results_bytes,omitempty"`
	// MineJobs counts mining sweeps accepted by /v1/mine (absent without
	// a registry).
	MineJobs int64 `json:"mine_jobs,omitempty"`
	// ModelRequests counts model-addressed scoring/label requests served
	// per registry model (absent without a registry).
	ModelRequests map[string]int64 `json:"model_requests,omitempty"`
}

// errorResponse is the JSON error envelope, carrying the human message
// and the machine-readable taxonomy code (wire.Envelope is the canonical
// definition; the alias keeps the server's wire schemas in one place).
type errorResponse = wire.Envelope

// writeJSON, writeError and writeErrorCode are the wire package's shared
// renderers (marshal-first: an unencodable value becomes a 500 envelope,
// never an empty committed 200), aliased to keep this package's handler
// code terse.
func writeJSON(w http.ResponseWriter, status int, v any) { wire.WriteJSON(w, status, v) }

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	wire.WriteError(w, status, format, args...)
}

func writeErrorCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	wire.WriteErrorCode(w, status, code, format, args...)
}

// refusal builds the error a scoring request is refused with, its
// taxonomy code derived from the status.
func refusal(status int, format string, args ...any) *wire.Error {
	return &wire.Error{Status: status, Code: wire.CodeForStatus(status), Msg: fmt.Sprintf(format, args...)}
}

// reject counts and writes one refused scoring request.
func (s *Server) reject(w http.ResponseWriter, e *wire.Error) {
	s.rejected.Inc()
	writeJSON(w, e.Status, e.Envelope())
}

// readBody reads a scoring request body under the configured byte cap.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, *wire.Error) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, refusal(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", s.opts.MaxBodyBytes)
		}
		return nil, refusal(http.StatusBadRequest, "read body: %v", err)
	}
	return raw, nil
}

// decodeScoreRequest is the strict scoring-body decoder. Every failure
// mode — malformed JSON, unknown fields, trailing data — is a client
// error; row validation happens in rowsMatrix once the addressed model
// (and therefore the expected width) is known.
func decodeScoreRequest(raw []byte) (ScoreRequest, *wire.Error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var req ScoreRequest
	if err := dec.Decode(&req); err != nil {
		return ScoreRequest{}, refusal(http.StatusBadRequest, "invalid JSON: %v", err)
	}
	if dec.More() {
		return ScoreRequest{}, refusal(http.StatusBadRequest, "trailing data after JSON body")
	}
	return req, nil
}

// rowsMatrix validates a decoded batch against the addressed model's
// input width and packs it into a matrix; the validator never panics on
// hostile input.
func (s *Server) rowsMatrix(rows [][]float64, inDim int) (*tensor.Matrix, *wire.Error) {
	if len(rows) == 0 {
		return nil, refusal(http.StatusBadRequest, "rows must be a non-empty array")
	}
	if len(rows) > s.opts.MaxRows {
		return nil, refusal(http.StatusBadRequest, "batch of %d rows exceeds limit %d", len(rows), s.opts.MaxRows)
	}
	x := tensor.New(len(rows), inDim)
	for i, row := range rows {
		if len(row) != inDim {
			return nil, refusal(http.StatusBadRequest, "row %d has %d features, want %d", i, len(row), inDim)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, refusal(http.StatusBadRequest, "row %d feature %d is not finite", i, j)
			}
		}
		copy(x.Row(i), row)
	}
	return x, nil
}

// batch is one decoded scoring request: the pinned generation that scores
// it, and its rows — x from a JSON body or x32 from a binary frame.
type batch struct {
	m   *model
	x   *tensor.Matrix
	x32 *tensor.Matrix32
}

// row returns a float64 copy of row i.
func (b batch) row(i int) []float64 {
	if b.x32 == nil {
		return append([]float64(nil), b.x.Row(i)...)
	}
	out := make([]float64, b.x32.Cols)
	for j, v := range b.x32.Row(i) {
		out[j] = float64(v)
	}
	return out
}

// route repoints b at the live instance of the named registry model,
// pinned until the caller releases it; an empty name keeps the default
// slot. Registry errors map onto the wire taxonomy: unknown names are 404
// unknown_model, a model with no live version is 409 version_conflict,
// and a daemon without a registry refuses model addressing outright.
func (s *Server) route(b *batch, name string) *wire.Error {
	if name == "" {
		return nil
	}
	if s.registry == nil {
		return &wire.Error{Status: http.StatusUnprocessableEntity, Code: wire.CodeInvalidSpec,
			Msg: "daemon has no model registry (start with -registry)"}
	}
	inst, err := s.registry.Acquire(name)
	switch {
	case err == nil:
		b.m = inst
		return nil
	case errors.Is(err, registry.ErrUnknownModel):
		return &wire.Error{Status: http.StatusNotFound, Code: wire.CodeUnknownModel, Msg: err.Error()}
	case errors.Is(err, registry.ErrVersionConflict):
		return &wire.Error{Status: http.StatusConflict, Code: wire.CodeVersionConflict, Msg: err.Error()}
	default:
		return &wire.Error{Status: http.StatusServiceUnavailable, Code: wire.CodeUnavailable, Msg: err.Error()}
	}
}

// decodeJSON decodes a JSON scoring body into b. Canonical single-model
// bodies take the reflection-free fast parser (fastrows.go); anything it
// declines — including every model-addressed body — falls back to the
// strict encoding/json path, which owns every error message, so hostile
// inputs see exactly the behavior they always did.
func (s *Server) decodeJSON(b *batch, raw []byte) *wire.Error {
	if x, ok := fastParseRows(raw, b.m.Scorer.InDim(), s.opts.MaxRows); ok {
		b.x = x
		return nil
	}
	req, err := decodeScoreRequest(raw)
	if err != nil {
		return err
	}
	if err := s.route(b, req.Model); err != nil {
		return err
	}
	b.x, err = s.rowsMatrix(req.Rows, b.m.Scorer.InDim())
	return err
}

// decodeFrame decodes a binary rows frame into b: its model field routes
// exactly like the JSON "model" field, and shape and finiteness are
// validated under the same limits.
func (s *Server) decodeFrame(b *batch, raw []byte) *wire.Error {
	f, err := wire.ParseFrame(raw)
	if err != nil {
		return refusal(http.StatusBadRequest, "%v", err)
	}
	if err := s.route(b, f.Model); err != nil {
		return err
	}
	if f.Rows > s.opts.MaxRows {
		return refusal(http.StatusBadRequest, "batch of %d rows exceeds limit %d", f.Rows, s.opts.MaxRows)
	}
	if inDim := b.m.Scorer.InDim(); f.Cols != inDim {
		return refusal(http.StatusBadRequest, "frame rows have %d features, want %d", f.Cols, inDim)
	}
	x32 := tensor.FromSlice32(f.Rows, f.Cols, f.Values())
	for i, v := range x32.Data {
		if f64 := float64(v); math.IsNaN(f64) || math.IsInf(f64, 0) {
			return refusal(http.StatusBadRequest, "row %d feature %d is not finite", i/f.Cols, i%f.Cols)
		}
	}
	b.x32 = x32
	return nil
}

// score runs the one request path of /v1/score and /v1/label: pin the
// default generation, decode the body into a batch (rerouted to the
// registry model its "model" field or frame header names), compute the
// batch's verdicts, sample rows into the traffic log, and write the
// response encode builds. Every verdict of one request is computed wholly
// by one generation.
//
// The request's Content-Type picks the decoder: absent or JSON takes
// decodeJSON, the binary rows frame (wire.ContentTypeRowsF32) takes
// decodeFrame, and anything else is a 415 unsupported_media_type.
func (s *Server) score(w http.ResponseWriter, r *http.Request, endpoint string,
	encode func(gen int64, probs []float64, classes []int) any) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.reject(w, refusal(http.StatusMethodNotAllowed, "use POST"))
		return
	}
	binary := false
	if ct := r.Header.Get("Content-Type"); ct != "" {
		mt, _, err := mime.ParseMediaType(ct)
		switch {
		case err != nil:
			s.reject(w, refusal(http.StatusUnsupportedMediaType, "unparseable Content-Type %q", ct))
			return
		case mt == wire.ContentTypeRowsF32:
			binary = true
		case mt != wire.ContentTypeJSON:
			s.reject(w, refusal(http.StatusUnsupportedMediaType,
				"unsupported Content-Type %q (use %s or %s)", mt, wire.ContentTypeJSON, wire.ContentTypeRowsF32))
			return
		}
	}
	m := s.acquire()
	if m == nil {
		writeError(w, http.StatusServiceUnavailable, "server is shut down")
		return
	}
	defer s.release(m)
	raw, rerr := s.readBody(w, r)
	if rerr != nil {
		s.reject(w, rerr)
		return
	}
	b := batch{m: m}
	if binary {
		rerr = s.decodeFrame(&b, raw)
	} else {
		rerr = s.decodeJSON(&b, raw)
	}
	if b.m != m { // a model-addressed request pinned a registry instance too
		defer b.m.Release()
	}
	if rerr != nil {
		s.reject(w, rerr)
		return
	}
	s.requests.Inc()
	b.m.CountRequest()
	probs, classes, err := s.verdicts(b, endpoint == "score")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.recordRows(endpoint, b, probs, classes)
	writeJSON(w, http.StatusOK, encode(b.m.Generation, probs, classes))
}

// verdicts is the one place a scoring request reaches inference. It
// returns each row's argmax class and, when withProbs, its malware
// probability (nil otherwise):
//   - a frame on a bare model scores on the float32 plan;
//   - a frame on a defended model, or on one whose plan fails to compile,
//     widens to float64 — callers opted into a wire format, not into
//     wrong answers;
//   - a defended model answers through its chain (a squeezing flag
//     saturates the probability to 1), from one combined pass when the
//     chain has one and through Predict alone when only classes are
//     wanted;
//   - a bare model scores off the float64 engine's logits.
func (s *Server) verdicts(b batch, withProbs bool) (probs []float64, classes []int, err error) {
	m, x := b.m, b.x
	if b.x32 != nil {
		if m.Det == nil && m.Scorer.EnsurePlan(serve.PrecisionFloat32) == nil {
			s.precisionRows.With(serve.PrecisionFloat32).Add(int64(b.x32.Rows))
			probs, classes, err = m.Scorer.Verdicts32(b.x32, serve.PrecisionFloat32)
			if !withProbs {
				probs = nil
			}
			return probs, classes, err
		}
		x = b.x32.Float64()
	}
	s.precisionRows.With(serve.PrecisionFloat64).Add(int64(x.Rows))
	switch {
	case m.Det != nil && withProbs:
		probs, classes = detectorVerdicts(m.Det, x)
	case m.Det != nil:
		classes = m.Det.Predict(x)
	default:
		logits := m.Scorer.Logits(x)
		classes = make([]int, logits.Rows)
		for i := range classes {
			classes[i] = logits.RowArgmax(i)
		}
		if withProbs {
			probs = make([]float64, logits.Rows)
			sm := make([]float64, logits.Cols)
			for i := range probs {
				nn.SoftmaxRow(logits.Row(i), sm, s.opts.Temperature)
				probs[i] = sm[dataset.LabelMalware]
			}
		}
	}
	return probs, classes, nil
}

// detectorVerdicts fetches probabilities and classes for one batch,
// through the detector's combined single-pass path when it has one.
func detectorVerdicts(det detector.Detector, x *tensor.Matrix) ([]float64, []int) {
	if v, ok := det.(interface {
		Verdicts(x *tensor.Matrix) ([]float64, []int)
	}); ok {
		return v.Verdicts(x)
	}
	return det.MalwareProb(x), det.Predict(x)
}

// recordRows samples rows of one served scoring batch into the results
// store's traffic log (Options.RecordTraffic is the 1-in-N rate; 0
// disables). Label rows carry only the hard class (probs is nil): the
// oracle endpoint never computed a probability. Recording failures are
// swallowed: a full disk must never fail a scoring request.
func (s *Server) recordRows(endpoint string, b batch, probs []float64, classes []int) {
	if s.store == nil || s.opts.RecordTraffic <= 0 {
		return
	}
	every := int64(s.opts.RecordTraffic)
	now := time.Now()
	for i, class := range classes {
		if s.recordSeq.Add(1)%every != 0 {
			continue
		}
		row := store.TrafficRow{
			Time:       now,
			Endpoint:   endpoint,
			Model:      b.m.Name,
			Generation: b.m.Generation,
			Class:      class,
			Row:        b.row(i),
		}
		if probs != nil {
			row.Prob, row.HasProb = probs[i], true
		}
		_ = s.store.RecordTraffic(row)
	}
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	s.score(w, r, "score", func(gen int64, probs []float64, classes []int) any {
		resp := ScoreResponse{ModelVersion: gen, Results: make([]ScoreResult, len(classes))}
		for i, class := range classes {
			resp.Results[i] = ScoreResult{Prob: probs[i], Class: class}
		}
		return resp
	})
}

func (s *Server) handleLabel(w http.ResponseWriter, r *http.Request) {
	s.score(w, r, "label", func(gen int64, _ []float64, classes []int) any {
		return LabelResponse{ModelVersion: gen, Labels: classes}
	})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	// An entirely empty body means "reload the configured path"; anything
	// present must be valid JSON.
	var req ReloadRequest
	if !wire.DecodeJSON(w, r, 1<<20, &req, true) {
		return
	}
	m, err := s.reload(req.Path)
	if err != nil {
		// A failure on a client-supplied path is the client's error (the
		// current model keeps serving either way, so it's 422
		// invalid_spec); only a failure of the server's own configured
		// path is a server fault worth a 500 internal.
		status := http.StatusInternalServerError
		if req.Path != "" {
			status = http.StatusUnprocessableEntity
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ReloadResponse{ModelVersion: m.Generation, ModelPath: m.Path})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	m := s.slot.Load()
	if m == nil {
		writeJSON(w, http.StatusServiceUnavailable, HealthResponse{Status: "shutdown"})
		return
	}
	resp := HealthResponse{
		Status:       "ok",
		ModelVersion: m.Generation,
		ModelPath:    m.Path,
		LoadedAt:     m.LoadedAt.UTC().Format(time.RFC3339),
		InDim:        m.Scorer.InDim(),
		Defenses:     s.opts.Defenses.Names(),
	}
	if s.registry != nil {
		resp.ModelNames = s.registry.Names()
		resp.Models = len(resp.ModelNames)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Requests:      s.requests.Value(),
		Rejected:      s.rejected.Value(),
		Reloads:       s.reloads.Value(),
		Batches:       s.batches.Value(),
		Rows:          s.rows.Value(),
		Campaigns:     s.campaigns.Submitted(),
	}
	if s.harden != nil {
		resp.HardenJobs = s.harden.Submitted()
	}
	if s.store != nil {
		resp.ResultsRecords = s.store.Records()
		resp.ResultsBytes = s.store.Bytes()
	}
	if s.miner != nil {
		resp.MineJobs = s.miner.Submitted()
	}
	if m := s.slot.Load(); m != nil {
		resp.ModelVersion = m.Generation
	}
	if s.registry != nil {
		resp.ModelRequests = s.registry.RequestCounts()
	}
	writeJSON(w, http.StatusOK, resp)
}

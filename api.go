// Package malevade is a from-scratch Go reproduction of "Malware Evasion
// Attack and Defense" (Huang et al., DSN 2019; arXiv:1904.05747): a
// DNN-based malware detector over 491 API-call features, the JSMA evasion
// attack under white-box / grey-box / black-box threat models, four defenses
// (adversarial training, defensive distillation, feature squeezing, PCA
// dimensionality reduction), and drivers that regenerate every table and
// figure of the paper's evaluation.
//
// The proprietary pieces of the original study (the McAfee corpus, sandbox
// logs and target model) are replaced by synthetic equivalents that exercise
// identical code paths; DESIGN.md documents each substitution and
// EXPERIMENTS.md records paper-vs-measured results.
//
// # Quick start
//
//	corpus, _ := malevade.GenerateCorpus(malevade.TableIConfig(1).Scaled(20))
//	target, _ := malevade.TrainTarget(corpus.Train, 25, 5)
//	mal := corpus.Test.FilterLabel(malevade.LabelMalware)
//	results := malevade.NewJSMA(target, 0.1, 0.025).Run(mal.X)
//	fmt.Println(malevade.SummarizeAttack(results))
//
// The package is a facade over internal/ packages; everything here is the
// supported public surface.
package malevade

import (
	"context"
	"io"

	"malevade/internal/attack"
	"malevade/internal/blackbox"
	"malevade/internal/campaign"
	"malevade/internal/client"
	"malevade/internal/dataset"
	"malevade/internal/defense"
	"malevade/internal/detector"
	"malevade/internal/evaluation"
	"malevade/internal/experiments"
	"malevade/internal/gateway"
	"malevade/internal/harden"
	"malevade/internal/obs"
	"malevade/internal/registry"
	"malevade/internal/serve"
	"malevade/internal/server"
	"malevade/internal/store"
	"malevade/internal/tensor"
	"malevade/internal/wire"
)

// Re-exported core types. These are aliases, so values flow freely between
// the facade and the internal packages.
type (
	// Matrix is a dense row-major float64 matrix.
	Matrix = tensor.Matrix
	// Matrix32 is the dense row-major float32 matrix behind the binary
	// scoring hot path; convert with ToFloat32 and Matrix32.Float64.
	Matrix32 = tensor.Matrix32
	// Corpus bundles the train/validation/test splits.
	Corpus = dataset.Corpus
	// Dataset is one labelled split.
	Dataset = dataset.Dataset
	// DatasetConfig sizes a generated corpus.
	DatasetConfig = dataset.Config
	// Detector scores feature vectors (0 = clean, 1 = malware).
	Detector = detector.Detector
	// DNN is a neural-network-backed Detector.
	DNN = detector.DNN
	// Attack crafts adversarial examples.
	Attack = attack.Attack
	// AttackResult is the outcome for one sample.
	AttackResult = attack.Result
	// AttackStats aggregates a batch of results.
	AttackStats = attack.Stats
	// ConfusionMatrix holds TPR/TNR/FPR/FNR.
	ConfusionMatrix = evaluation.ConfusionMatrix
	// SecurityCurve is detection rate vs attack strength.
	SecurityCurve = evaluation.Curve
	// Profile scales experiment runs (small / medium / paper).
	Profile = experiments.Profile
	// Lab caches the corpora and models an experiment run shares.
	Lab = experiments.Lab
	// MetricsRegistry is the stdlib-only observability registry behind
	// GET /metrics on both serving tiers: concurrency-safe counters,
	// gauges and fixed-bucket histograms (labeled and callback
	// variants) with Prometheus text exposition. Pass one shared
	// registry via ServerOptions.Obs / GatewayOptions.Obs to embed a
	// daemon's metrics in a larger process's exposition; nil makes each
	// tier create its own. See docs/OBSERVABILITY.md.
	MetricsRegistry = obs.Registry
	// Scorer is the scoring engine: each call scores its whole batch on
	// the caller's goroutine, with at most Workers forward passes running
	// at once. It implements Detector and is safe for any number of
	// concurrent callers.
	Scorer = serve.Scorer
	// ScorerOptions tunes a Scorer's concurrency bound (Workers) and
	// metrics registry; the zero value picks defaults.
	ScorerOptions = serve.Options
	// Server is the HTTP scoring daemon: POST /v1/score and /v1/label,
	// GET /healthz and /v1/stats, atomic model hot-reload via POST
	// /v1/reload (or Reload), and — with ServerOptions.RegistryDir set —
	// the model registry behind /v1/models. It implements http.Handler.
	Server = server.Server
	// ServerOptions configures a Server; ModelPath is required.
	ServerOptions = server.Options
	// Registry is the disk-backed model registry: named detectors with
	// append-only version histories, JSON manifests (checksum, defense
	// chain, generation), atomic live promotion behind the shared
	// refcounted-drain machinery, and GC of unpinned old versions. The
	// HTTP daemon exposes one as /v1/models; OpenRegistry embeds one
	// in-process. Contents survive restarts.
	Registry = registry.Registry
	// RegistryOptions configures OpenRegistry; Dir is required.
	RegistryOptions = registry.Options
	// RegistryModelInfo is one registry model's state: live version,
	// serving generation, defense chain and retained version history.
	RegistryModelInfo = registry.Info
	// RegistryVersionInfo is one entry of a model's append-only version
	// history (file, checksum, generation, pin, defense chain).
	RegistryVersionInfo = registry.VersionInfo
	// RegistryInstance is one pinned, servable build of a model version,
	// returned by Registry.Acquire; callers must Release it.
	RegistryInstance = registry.Instance
	// ModelInfo is a registry model's state as a remote daemon reports it
	// (Client.Models / Client.Model / Client.RegisterModel).
	ModelInfo = client.ModelInfo
	// ModelVersionInfo is one remote model's version-history entry.
	ModelVersionInfo = client.ModelVersionInfo
	// RegisterModelRequest parameterizes Client.RegisterModel: daemon-side
	// model file, optional defense chain, promote/pin flags.
	RegisterModelRequest = client.RegisterModelRequest
	// Oracle is the attacker's label-only view of a target detector.
	Oracle = blackbox.Oracle
	// HTTPOracle queries a remote Server's /v1/label endpoint — the
	// paper's black-box setting over a real network boundary.
	HTTPOracle = blackbox.HTTPOracle
	// SubstituteConfig parameterizes black-box substitute training.
	SubstituteConfig = blackbox.SubstituteConfig
	// SubstituteResult is the outcome of substitute training.
	SubstituteResult = blackbox.SubstituteResult
	// AttackConfig is the declarative, serializable attack description
	// (kind + strength parameters) campaigns, the CLI and drivers share;
	// Build instantiates it against a crafting model.
	AttackConfig = attack.Config
	// CampaignSpec describes one asynchronous evasion campaign: attack,
	// crafting model, population and target.
	CampaignSpec = campaign.Spec
	// CampaignSnapshot is a point-in-time view of a campaign: status,
	// progress, rates and incremental per-sample results.
	CampaignSnapshot = campaign.Snapshot
	// CampaignStatus is a campaign's lifecycle state (queued, running,
	// done, failed, cancelled).
	CampaignStatus = campaign.Status
	// CampaignResult is one attacked sample's outcome inside a campaign.
	CampaignResult = campaign.SampleResult
	// CampaignEngine is the asynchronous campaign orchestrator: a bounded
	// worker pool running queued, cancellable evasion campaigns. The HTTP
	// daemon embeds one behind /v1/campaigns; standalone engines come
	// from NewCampaignEngine.
	CampaignEngine = campaign.Engine
	// CampaignOptions tunes a CampaignEngine (workers, queue depth,
	// sample caps, targets); the zero value picks defaults.
	CampaignOptions = campaign.Options
	// CampaignTarget is the label-only view of the detector a campaign
	// evades; one LabelBatch call is always answered wholly by one model
	// generation, and the call honors its context.
	CampaignTarget = campaign.Target
	// HardenSpec describes one closed-loop hardening job: attack a named
	// registry model, retrain on the harvested evasions, promote the
	// hardened version, re-attack — until a target evasion rate or the
	// round budget.
	HardenSpec = harden.Spec
	// HardenSnapshot is a point-in-time view of a hardening job: status,
	// per-round metrics and the versions it promoted. It doubles as the
	// job's durable on-disk state, which is what makes jobs resumable
	// across daemon restarts.
	HardenSnapshot = harden.Snapshot
	// HardenRound records one completed attack→retrain→promote round's
	// metrics (evasion rate before/after, rows harvested, version and
	// generation promoted).
	HardenRound = harden.Round
	// HardenStatus is a hardening job's lifecycle state — the same state
	// machine as campaigns.
	HardenStatus = harden.Status
	// HardenEngine is the closed-loop hardening controller: a bounded
	// worker pool running queued, cancellable, resumable hardening jobs.
	// The HTTP daemon embeds one behind /v1/harden when a registry is
	// configured; standalone engines come from NewHardenEngine.
	HardenEngine = harden.Engine
	// HardenOptions tunes a HardenEngine (state dir, campaign engine,
	// model registry, workers, round cap); Dir, Campaigns and Models are
	// required for standalone engines.
	HardenOptions = harden.Options
	// ResultsStore is the durable campaign-results store: an append-only,
	// checksummed record log rooted at a directory (the daemon keeps its
	// own under RegistryDir/.results) holding per-campaign results and
	// opt-in sampled live traffic. Reopening a store recovers crash-torn
	// tails and serves every committed record bit-identically; it
	// implements CampaignSink, so a CampaignEngine streams results into it
	// as they land. Create with OpenResultsStore.
	ResultsStore = store.Store
	// ResultsStoreOptions configures OpenResultsStore; Dir is required.
	ResultsStoreOptions = store.Options
	// StoredCampaign summarizes one stored campaign (id, status, sample
	// count) as GET /v1/results lists them.
	StoredCampaign = store.CampaignSummary
	// StoredCampaignHistory is one campaign's full durable record — spec,
	// terminal status and per-sample results — as GET /v1/results/{id}
	// serves it.
	StoredCampaignHistory = store.CampaignHistory
	// TrafficRow is one recorded live-traffic row: the served feature
	// vector plus the verdict, model, generation and timestamp it was
	// answered with. The daemon records every Nth row behind `serve
	// -record N`; the miner sweeps these.
	TrafficRow = store.TrafficRow
	// CampaignSink receives campaign lifecycle events (started, sample
	// batches, finished) from a CampaignEngine; a ResultsStore is one.
	// Wire it through CampaignOptions.Sink.
	CampaignSink = campaign.Sink
	// Miner runs queued historical-attack mining sweeps over a
	// ResultsStore's recorded traffic — the engine behind the daemon's
	// /v1/mine and `malevade mine`. Create with NewResultsMiner.
	Miner = store.Miner
	// MinerOptions tunes a Miner (workers, queue depth, history cap,
	// default score band); the zero value picks defaults.
	MinerOptions = store.MinerOptions
	// MineSpec parameterizes one mining sweep: optional label, model
	// filter, near-boundary score band and findings cap.
	MineSpec = store.MineSpec
	// MineSnapshot is a point-in-time view of one mining sweep; terminal
	// snapshots carry the full ranked findings report.
	MineSnapshot = store.MineSnapshot
	// MineFinding is one ranked suspected in-the-wild evasion attempt:
	// suspicion score, the signals that fired (generation_flip,
	// low_confidence_clean, near_boundary), and the stored feature row.
	MineFinding = store.Finding
	// ResultsSummary mirrors GET /v1/results from Client.Results.
	ResultsSummary = client.ResultsSummary
	// ResultsPage mirrors GET /v1/results/{id} from
	// Client.CampaignResults: a cursor-paginated window of one stored
	// campaign's per-sample results.
	ResultsPage = client.ResultsPage
	// TrafficPage mirrors GET /v1/results/traffic from Client.Traffic.
	TrafficPage = client.TrafficPage
	// ResultsQuery filters Client.CampaignResults (cursor, limit,
	// generation, verdict flips only).
	ResultsQuery = client.ResultsQuery
	// TrafficQuery filters Client.Traffic (cursor, limit, model,
	// generation, probability band).
	TrafficQuery = client.TrafficQuery
	// ReplayRequest asks Client.Replay to re-score one stored
	// perturbation against the daemon's current default model or any
	// retained registry version.
	ReplayRequest = client.ReplayRequest
	// ReplayResponse reports a replayed verdict next to the stored one.
	ReplayResponse = client.ReplayResponse
	// MineWaitOptions tunes Client.WaitMine (poll interval, snapshot
	// callback).
	MineWaitOptions = client.MineWaitOptions
	// Client is the typed SDK for a remote scoring daemon: every
	// endpoint — scoring, labels, health, stats, hot-reload and the
	// campaign API — behind one type with shared connection pooling, a
	// context.Context on every call, bounded jittered retries for
	// idempotent calls, and typed wire errors. Everything in this module
	// that crosses the daemon's network boundary is a veneer over it.
	Client = client.Client
	// Verdict is one row's /v1/score outcome from Client.Score.
	Verdict = client.Verdict
	// ClientHealth is a daemon's /healthz report from Client.Health.
	ClientHealth = client.Health
	// ClientStats is a daemon's /v1/stats counters from Client.Stats.
	ClientStats = client.Stats
	// ReloadResult reports the model generation Client.Reload swapped in.
	ReloadResult = client.ReloadResult
	// RawResult is one unretried verbatim HTTP exchange from Client.Raw —
	// the relay primitive the gateway's proxy tier is built on.
	RawResult = client.RawResult
	// Gateway is the replica-fleet front tier: one HTTP process serving
	// the daemon's wire API across N scoring replicas, with health
	// probing, round-robin failover, per-model routing, fleet-sharded
	// campaigns and aggregated stats. Create with NewGateway, serve like
	// a Server (it is an http.Handler), Close when done.
	Gateway = gateway.Gateway
	// GatewayOptions configures a Gateway (replica URLs, probe cadence,
	// up/down thresholds, retry budget); the zero value of everything but
	// Replicas picks defaults.
	GatewayOptions = gateway.Options
	// GatewayHealth is the gateway's /healthz payload: fleet status plus
	// a per-replica breakdown.
	GatewayHealth = gateway.HealthResponse
	// GatewayStats is the gateway's /v1/stats payload: fleet-wide sums,
	// the gateway's own routing counters and the per-replica breakdown.
	GatewayStats = gateway.StatsResponse
	// WaitOptions tunes Client.WaitCampaign (poll interval, incremental
	// snapshot callback).
	WaitOptions = client.WaitOptions
	// HardenWaitOptions tunes Client.WaitHarden (poll interval, snapshot
	// callback).
	HardenWaitOptions = client.HardenWaitOptions
	// WireError is the typed form of a refused daemon call: HTTP status,
	// machine-readable taxonomy code and message, round-tripping the
	// server's JSON error envelope. It matches the Err* sentinels
	// through errors.Is; docs/ERRORS.md tabulates the taxonomy.
	WireError = wire.Error
	// DefenseSpec is the declarative, serializable defense description
	// (kind + parameters) the facade, the daemon and drivers share — the
	// defense-side mirror of AttackConfig. Validate checks it without a
	// model; chains are built with ApplyDefenses.
	DefenseSpec = defense.Spec
	// DefenseChain is an ordered defense pipeline: model-producing
	// defenses (advtrain, distill, pca) replace the current model,
	// wrapping defenses (squeeze) wrap it.
	DefenseChain = defense.Chain
	// DefenseEnv supplies the materials a defense build consumes: the
	// undefended base model, the training split and clean calibration
	// rows. ApplyDefenses assembles one from a Corpus.
	DefenseEnv = defense.Env
)

// Class labels, matching the paper's convention.
const (
	LabelClean   = dataset.LabelClean
	LabelMalware = dataset.LabelMalware
)

// NumFeatures is the width of the feature vector (491 API features).
const NumFeatures = 491

// Inference precisions for Scorer.EnsurePlan and Scorer.Verdicts32.
// Float64 is the accuracy reference float32 is parity-tested against;
// float32 is the register-tiled hot path a daemon scores binary frames
// on, except for defended models and models whose weights do not compile
// to float32, which stay on float64.
const (
	PrecisionFloat64 = serve.PrecisionFloat64
	PrecisionFloat32 = serve.PrecisionFloat32
)

// Scoring request codecs for Client.Codec.
const (
	// CodecJSON sends {"rows": [[...]]} bodies (the default).
	CodecJSON = client.CodecJSON
	// CodecBinary sends zero-copy float32 rows frames
	// (ContentTypeRowsF32); see docs/http-api.md.
	CodecBinary = client.CodecBinary
)

// Content types the scoring endpoints negotiate.
const (
	ContentTypeJSON    = wire.ContentTypeJSON
	ContentTypeRowsF32 = wire.ContentTypeRowsF32
)

// ToFloat32 converts a float64 matrix to the float32 layout the binary
// scoring path consumes. The conversion rounds to nearest; values beyond
// float32 range become ±Inf, which scoring rejects as non-finite.
func ToFloat32(m *Matrix) *Matrix32 { return tensor.ToFloat32(m) }

// Experiment profiles.
var (
	// ProfileSmall runs in seconds (CI and benchmarks).
	ProfileSmall = experiments.Small
	// ProfileMedium is the default reproduction scale.
	ProfileMedium = experiments.Medium
	// ProfilePaper uses the paper's full sizes (hours on one core).
	ProfilePaper = experiments.PaperScale
)

// The wire-error taxonomy: every error-bearing HTTP status of the daemon
// API maps to exactly one machine-readable code and one of these
// sentinels, and a WireError matches its sentinel through errors.Is —
// callers branch on semantics, never on message strings. See
// docs/ERRORS.md for the full table.
var (
	// ErrBadRequest: 400 — malformed JSON, ragged/non-finite rows,
	// oversized batches.
	ErrBadRequest = wire.ErrBadRequest
	// ErrNotFound: 404 — unknown campaign id.
	ErrNotFound = wire.ErrNotFound
	// ErrMethodNotAllowed: 405 — wrong HTTP method.
	ErrMethodNotAllowed = wire.ErrMethodNotAllowed
	// ErrTooLarge: 413 — request body (model, population) over the
	// daemon's byte cap.
	ErrTooLarge = wire.ErrTooLarge
	// ErrUnsupportedMedia: 415 unsupported_media_type — the scoring
	// request's Content-Type is neither JSON nor the binary rows frame.
	ErrUnsupportedMedia = wire.ErrUnsupportedMedia
	// ErrInvalidSpec: 422 — semantically invalid submission (unknown
	// attack kind, unloadable reload path, bad campaign spec).
	ErrInvalidSpec = wire.ErrInvalidSpec
	// ErrVersionConflict: 409 — a registry operation named a version the
	// model does not hold, or the model has no live version to serve.
	ErrVersionConflict = wire.ErrVersionConflict
	// ErrQueueFull: 429 — campaign backpressure; retry later.
	ErrQueueFull = wire.ErrQueueFull
	// ErrRegistryFull: 507 — the model registry is at capacity; GC or
	// delete before registering more.
	ErrRegistryFull = wire.ErrRegistryFull
	// ErrUnknownModel: 404 unknown_model — the request addressed a
	// registry model name the daemon does not know.
	ErrUnknownModel = wire.ErrUnknownModel
	// ErrInternal: 500 — server-side fault.
	ErrInternal = wire.ErrInternal
	// ErrUnavailable: 503 — daemon shut down or shutting down.
	ErrUnavailable = wire.ErrUnavailable
	// ErrBadGateway: 502 — every healthy replica behind a gateway failed
	// to answer the relayed call.
	ErrBadGateway = wire.ErrBadGateway
	// ErrNoReplicas: 503 no_replicas — the gateway's fleet has no
	// healthy member (refines ErrUnavailable's status).
	ErrNoReplicas = wire.ErrNoReplicas
	// ErrNoStore: 422 no_store — a /v1/results or /v1/mine call reached a
	// daemon running without a results store (start it with -registry);
	// refines ErrInvalidSpec's status.
	ErrNoStore = wire.ErrNoStore
	// ErrStoreCorrupt: 500 store_corrupt — the results store refused a
	// record log whose committed region fails its checksums (torn tails
	// from crashes are recovered, checksum damage is not); refines
	// ErrInternal's status.
	ErrStoreCorrupt = wire.ErrStoreCorrupt
	// ErrMixedGenerations: client-side — a version-pinned batch spanned
	// a hot-reload even after retries.
	ErrMixedGenerations = wire.ErrMixedGenerations
	// ErrProtocol: client-side — a response violated the documented wire
	// contract.
	ErrProtocol = wire.ErrProtocol
	// ErrResponseTooLarge: client-side — a response body exceeded the
	// Client's MaxResponseBytes cap; the call is not retried (a bigger
	// response would fail the same way).
	ErrResponseTooLarge = wire.ErrResponseTooLarge
)

// NewClient returns the typed SDK for the scoring daemon at baseURL,
// using a shared pooled transport. Adjust the Client's fields (MaxBatch,
// Retries, HTTPClient) before first use; all methods take a
// context.Context and are safe for concurrent use.
func NewClient(baseURL string) *Client { return client.New(baseURL) }

// ApplyDefenses hardens a detector with a declarative defense chain — the
// defense-side mirror of building an attack from AttackConfig. The corpus
// supplies training data for model-producing defenses (advtrain, distill,
// pca) and clean calibration rows for threshold calibration; it may be
// nil for chains that need neither (squeezing with an explicit
// threshold). The result is a Detector servable through NewScorer's
// engine when it is a plain DNN, or directly; the HTTP daemon
// applies data-free chains itself via ServerOptions.Defenses.
func ApplyDefenses(base *DNN, corpus *Corpus, chain DefenseChain) (Detector, error) {
	env := defense.Env{Base: base}
	if corpus != nil {
		env.Train = corpus.Train
		env.Clean = corpus.Val.FilterLabel(dataset.LabelClean).X
	}
	return chain.Build(env)
}

// DetectorConfig parameterizes detector training (architecture, width
// scale, epochs, batch size, learning rate, seed).
type DetectorConfig = detector.TrainConfig

// Architectures from the paper.
const (
	// ArchTarget is the simulated proprietary 4-layer target.
	ArchTarget = detector.ArchTarget
	// ArchSubstitute is Table IV's 5-layer substitute.
	ArchSubstitute = detector.ArchSubstitute
)

// TableIConfig returns the paper's exact Table I dataset sizes; call
// Scaled(n) for a 1/n-scale corpus with identical structure.
func TableIConfig(seed uint64) DatasetConfig { return dataset.TableIConfig(seed) }

// TrainDetector trains a detector with explicit hyper-parameters; use
// TrainTarget/TrainSubstitute for the defaults.
func TrainDetector(train *Dataset, cfg DetectorConfig) (*DNN, error) {
	return detector.Train(train, cfg)
}

// GenerateCorpus synthesizes a corpus from the family-mixture model.
func GenerateCorpus(cfg DatasetConfig) (*Corpus, error) { return dataset.Generate(cfg) }

// TrainTarget trains the simulated proprietary target model (4-layer FC
// DNN) with the repository's default hyper-parameters at full width.
func TrainTarget(train *Dataset, epochs int, seed uint64) (*DNN, error) {
	return detector.Train(train, detector.TrainConfig{
		Arch:   detector.ArchTarget,
		Epochs: epochs,
		Seed:   seed,
	})
}

// TrainSubstitute trains the paper's Table IV substitute model
// (491-1200-1500-1300-2, Adam lr=0.001, batch 256).
func TrainSubstitute(train *Dataset, epochs int, seed uint64) (*DNN, error) {
	return detector.Train(train, detector.TrainConfig{
		Arch:   detector.ArchSubstitute,
		Epochs: epochs,
		Seed:   seed,
	})
}

// NewScorer builds a slot-bounded scoring engine over d's network,
// preserving d's softmax temperature. Scoring through the engine is
// bit-identical to scoring through d directly; it starts no goroutine,
// Close marks it unusable, and callers must not train d's network while
// the scorer is live.
func NewScorer(d *DNN, opts ScorerOptions) *Scorer {
	return serve.New(d.Net, d.Temperature, opts)
}

// NewServer starts the HTTP scoring daemon over the model saved at
// opts.ModelPath (see DNN.Net.SaveFile). Serve it with any http.Server and
// Close it when done; Reload (or POST /v1/reload, or SIGHUP under
// `malevade serve`) hot-swaps the model without dropping in-flight requests.
func NewServer(opts ServerOptions) (*Server, error) { return server.New(opts) }

// NewGateway starts the replica-fleet front tier over the scoring daemons
// listed in opts.Replicas: it health-probes the fleet (one synchronous
// round before returning), load-balances /v1/score and /v1/label across
// healthy replicas with bounded failover, routes model-addressed requests
// to replicas advertising the model, runs fleet-sharded campaigns, and
// aggregates /v1/stats. Serve it like a Server; Close releases the prober
// and campaign workers.
func NewGateway(opts GatewayOptions) (*Gateway, error) { return gateway.New(opts) }

// OpenRegistry loads (or initializes) a disk-backed model registry rooted
// at opts.Dir, rebuilding every model's live serving instance from its
// manifest — the in-process shape of the daemon's /v1/models API. Close it
// to drain and release the serving engines; the on-disk store survives and
// a subsequent OpenRegistry resumes the same serving state.
func OpenRegistry(opts RegistryOptions) (*Registry, error) { return registry.Open(opts) }

// NewHTTPOracle points a label oracle at a remote scoring daemon, so
// TrainSubstitute can attack a detector it reaches only over the network.
func NewHTTPOracle(baseURL string) *HTTPOracle { return blackbox.NewHTTPOracle(baseURL) }

// NewDetectorOracle wraps an in-process detector as a query-counting label
// oracle (the reference for wire-driven attacks).
func NewDetectorOracle(target Detector) Oracle { return blackbox.NewDetectorOracle(target) }

// TrainSubstituteViaOracle runs the paper's Figure 2 substitute-training
// loop against any label oracle — in-process or HTTP — using Jacobian-based
// dataset augmentation from the attacker's seed set. (TrainSubstitute, by
// contrast, trains the Table IV architecture directly on labelled data.)
// Cancelling ctx aborts the loop promptly, including a wire query already
// in flight against a remote oracle.
func TrainSubstituteViaOracle(ctx context.Context, oracle Oracle, seed *Matrix, cfg SubstituteConfig) (*SubstituteResult, error) {
	return blackbox.TrainSubstitute(ctx, oracle, seed, cfg)
}

// SeedSet draws the attacker's small per-class sample set from a dataset —
// the "attacker data" box of the paper's Figure 2 framework.
func SeedSet(d *Dataset, perClass int, seed uint64) *Matrix {
	return blackbox.SeedSet(d, perClass, seed)
}

// NewCampaignEngine starts a standalone asynchronous campaign orchestrator
// — the same engine the HTTP daemon exposes as /v1/campaigns, for embedders
// that drive campaigns in-process. Close it to cancel outstanding campaigns
// and release the workers. Specs naming a TargetURL are judged through the
// client SDK unless opts wires its own RemoteTarget factory.
func NewCampaignEngine(opts CampaignOptions) *CampaignEngine {
	if opts.RemoteTarget == nil {
		opts.RemoteTarget = func(baseURL string) (CampaignTarget, error) {
			return client.NewRemoteTarget(baseURL), nil
		}
	}
	return campaign.NewEngine(opts)
}

// NewHardenEngine starts a standalone closed-loop hardening controller —
// the same engine the HTTP daemon exposes as /v1/harden, for embedders
// that drive hardening in-process against their own campaign engine and
// registry. Close it to stop the workers; in-flight jobs keep their
// durable state under opts.Dir and resume when an engine is reopened on
// the same directory.
func NewHardenEngine(opts HardenOptions) (*HardenEngine, error) {
	return harden.NewEngine(opts)
}

// OpenResultsStore opens (or initializes) a durable results store rooted
// at opts.Dir. Reopening a directory recovers it: crash-torn record tails
// are truncated, campaigns interrupted mid-stream gain a durable failed
// terminal record, and every committed sample is served back
// bit-identically; a log whose committed region fails its checksums
// refuses to open with an error matching ErrStoreCorrupt. Close flushes
// buffered traffic and releases the log files. Wire the store into a
// CampaignEngine via CampaignOptions.Sink so campaign results survive
// restarts.
func OpenResultsStore(opts ResultsStoreOptions) (*ResultsStore, error) {
	return store.Open(opts)
}

// NewResultsMiner starts a historical-attack mining engine over st's
// recorded traffic — the same engine the HTTP daemon exposes as /v1/mine.
// Close it to stop the workers (queued sweeps end cancelled); terminal
// snapshots survive in memory up to opts.MaxHistory.
func NewResultsMiner(st *ResultsStore, opts MinerOptions) *Miner {
	return store.NewMiner(st, opts)
}

// SweepTraffic runs one synchronous mining sweep over recorded traffic
// rows, ranking suspected in-the-wild evasion attempts by suspicion:
// verdict flips across model generations, low-confidence clean calls
// inside the near-boundary band, and boundary-probing score sequences.
// The Miner runs this same sweep asynchronously.
func SweepTraffic(rows []TrafficRow, sp MineSpec) []MineFinding {
	return store.SweepTraffic(rows, sp)
}

// HarvestMineFindings packs mined findings' stored feature rows into a
// matrix aligned with the findings — ready to feed adversarial retraining
// the same way harvested campaign evasions are (ApplyDefenses with an
// advtrain chain, or defense.BuildAdvTrainingSet in-process).
func HarvestMineFindings(findings []MineFinding) (*Matrix, error) {
	return store.HarvestFindings(findings)
}

// NewDetectorCampaignTarget wraps an in-process detector as a campaign
// target with a fixed model generation.
func NewDetectorCampaignTarget(d Detector) CampaignTarget {
	return &campaign.DetectorTarget{Det: d}
}

// NewRemoteCampaignTarget points a campaign target at a remote scoring
// daemon's /v1/label endpoint through the client SDK.
func NewRemoteCampaignTarget(baseURL string) CampaignTarget {
	return client.NewRemoteTarget(baseURL)
}

// NewMetricsRegistry creates an empty metrics registry; share one across
// embedded servers to merge their expositions.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// RequestIDHeader is the trace header both serving tiers mint, propagate
// and echo; the client SDK forwards the ID from WithRequestID contexts.
const RequestIDHeader = obs.RequestIDHeader

// WithRequestID attaches a trace ID to ctx so every SDK call made with it
// carries the ID to the daemon's (and gateway's) access logs.
func WithRequestID(ctx context.Context, id string) context.Context {
	return obs.WithRequestID(ctx, id)
}

// LintMetrics checks a Prometheus text-exposition scrape against the
// conventions the registry enforces (tools/metriclint is the CLI over
// this). One human-readable problem per violation; empty means clean.
func LintMetrics(raw []byte) []string { return obs.Lint(raw) }

// NewJSMA builds the paper's attack: add-only JSMA with per-step magnitude
// theta and iteration budget gamma·491.
func NewJSMA(model *DNN, theta, gamma float64) *attack.JSMA {
	return &attack.JSMA{Model: model.Net, Theta: theta, Gamma: gamma}
}

// NewRandomAdd builds the Figure 3 control attack (random feature
// additions).
func NewRandomAdd(model *DNN, theta, gamma float64, seed uint64) *attack.RandomAdd {
	return &attack.RandomAdd{Model: model.Net, Theta: theta, Gamma: gamma, Seed: seed}
}

// SummarizeAttack aggregates attack results.
func SummarizeAttack(results []AttackResult) AttackStats { return attack.Summarize(results) }

// AdvExamples packs attack results into a feature matrix aligned with the
// attacked batch.
func AdvExamples(results []AttackResult) *Matrix { return attack.AdvMatrix(results) }

// DetectionRate is the fraction of rows the detector classifies as malware.
func DetectionRate(d Detector, x *Matrix) float64 { return detector.DetectionRate(d, x) }

// TransferRate is 1 − DetectionRate on adversarial examples: the paper's
// grey/black-box headline metric.
func TransferRate(target Detector, adv *Matrix) float64 {
	return evaluation.TransferRate(target, adv)
}

// Evaluate builds a confusion matrix for a detector over a labelled split.
func Evaluate(d Detector, ds *Dataset) ConfusionMatrix { return evaluation.Evaluate(d, ds) }

// NewLab creates an experiment lab (cached corpora and models) for a
// profile.
func NewLab(p Profile) *Lab { return experiments.NewLab(p) }

// RunExperiment regenerates one of the paper's tables/figures by id
// ("table1".."table6", "fig1".."fig5", "fig3a", ..., "live"), writing the
// artifact to w.
func RunExperiment(l *Lab, id string, w io.Writer) error {
	e, err := experiments.ByID(id)
	if err != nil {
		return err
	}
	return e.Run(l, w)
}

// RunAllExperiments regenerates every table and figure in paper order.
func RunAllExperiments(l *Lab, w io.Writer) error { return experiments.RunAll(l, w) }

// ExperimentIDs lists the available experiment identifiers in paper order.
func ExperimentIDs() []string {
	all := experiments.All()
	out := make([]string, 0, len(all))
	for _, e := range all {
		out = append(out, e.ID)
	}
	return out
}

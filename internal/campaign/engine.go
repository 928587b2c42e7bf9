package campaign

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"time"

	"malevade/internal/attack"
	"malevade/internal/experiments"
	"malevade/internal/jobs"
	"malevade/internal/nn"
	"malevade/internal/obs"
	"malevade/internal/tensor"
)

// JobSecondsBuckets are the duration histogram bounds of the campaign
// engine (malevade_campaign_seconds) and the hardening engine
// (malevade_harden_round_seconds): 10ms (a tiny smoke-test campaign)
// through 10 minutes (a full hardening round).
var JobSecondsBuckets = []float64{
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600,
}

// Options configures an Engine. The zero value picks defaults; LocalTarget
// and CraftModel are only required for specs that actually use them (a spec
// with TargetURL and CraftModelPath set needs neither).
type Options struct {
	// Workers is the number of campaigns that run concurrently
	// (default 2). Queued campaigns wait for a free worker.
	Workers int
	// QueueDepth bounds campaigns waiting beyond the running ones
	// (default 16); Submit fails with ErrQueueFull past it.
	QueueDepth int
	// MaxSamples caps any campaign's population (default 4096).
	MaxSamples int
	// DefaultBatch is the per-batch sample count when a spec does not
	// set one (default 64).
	DefaultBatch int
	// Retries is how many times a failed target evaluation is retried
	// before the campaign fails (default 2).
	Retries int
	// MaxHistory bounds how many campaigns the engine remembers (default
	// 256). When a submission would exceed it, the oldest terminal
	// campaigns are evicted — their ids then answer "unknown" — so a
	// long-lived daemon's memory stays bounded; live campaigns are never
	// evicted.
	MaxHistory int
	// LocalTarget serves specs with no TargetURL — the host's own model.
	LocalTarget Target
	// RemoteTarget builds the Target for specs that name a TargetURL.
	// The engine itself has no wire client; hosts inject one (the facade
	// and the HTTP daemon wire in the client SDK's CampaignTarget). A nil
	// factory rejects TargetURL specs at execution time.
	RemoteTarget func(baseURL string) (Target, error)
	// NamedTarget builds the Target for specs that name a TargetModel —
	// the host's model registry (the HTTP daemon wires a generation-pinned
	// registry target). Submit invokes the factory synchronously to
	// validate the name, so an unknown model is a 422 at the API layer
	// rather than an asynchronous job failure. A nil factory rejects
	// TargetModel specs at submit time.
	NamedTarget func(model string) (Target, error)
	// CraftModel loads the default crafting model for specs with no
	// CraftModelPath. Each call must return a network private to the
	// caller (gradient crafting mutates per-network caches).
	CraftModel func() (*nn.Network, error)
	// NamedCraftModel loads the default crafting model for specs that
	// name a TargetModel and no CraftModelPath — white-box on the named
	// model's live version. Falls back to CraftModel when nil.
	NamedCraftModel func(model string) (*nn.Network, error)
	// Sink, when non-nil, receives every campaign's durable event stream
	// (accepted spec, judged batches, terminal snapshot) — the results
	// store. Sink errors are logged, never fatal to the campaign.
	Sink Sink
	// BaseSeq seeds the id counter so engine-assigned c%06d ids stay
	// unique across daemon restarts (the store's MaxCampaignSeq).
	BaseSeq int64
	// Logger, when non-nil, receives a structured event per campaign
	// transition (queued, running, terminal, cancelled, evicted).
	Logger *slog.Logger
	// Obs, when set, receives engine metrics: terminal campaigns by
	// status (malevade_campaign_jobs_total) and a wall-clock duration
	// histogram (malevade_campaign_seconds).
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.MaxSamples <= 0 {
		o.MaxSamples = 4096
	}
	if o.DefaultBatch <= 0 {
		o.DefaultBatch = 64
	}
	if o.Retries <= 0 {
		o.Retries = 2
	}
	if o.MaxHistory <= 0 {
		o.MaxHistory = 256
	}
	return o
}

// Submission errors an API layer maps to status codes; aliases of the job
// runner's, so every engine refuses with the same values.
var (
	// ErrQueueFull rejects a Submit when every worker is busy and the
	// backlog is at QueueDepth.
	ErrQueueFull = jobs.ErrQueueFull
	// ErrClosed rejects operations on a closed engine.
	ErrClosed = jobs.ErrClosed
)

// progress is one campaign's own state, guarded by its job's lock.
type progress struct {
	spec Spec
	// sink is set only when the engine's sink accepted CampaignStarted,
	// so a log that failed to open is not streamed into.
	sink        Sink
	total       int
	batches     int
	retries     int
	generations []int64
	detected    int // baseline detections among judged samples
	evaded      int // adversarial evasions among judged samples
	results     []SampleResult
}

type job = jobs.Job[progress]

// Engine is the asynchronous campaign orchestrator: campaigns run on the
// shared job runner (internal/jobs) — a bounded worker pool draining a
// submission queue, every campaign addressable by id for polling,
// cancellation and waiting. Create with NewEngine, Close when done; all
// methods are safe for concurrent use.
type Engine struct {
	opts Options
	log  *slog.Logger
	jobs *jobs.Runner[progress, Snapshot]
}

// NewEngine starts an engine with opts.Workers campaign workers.
func NewEngine(opts Options) *Engine {
	e := &Engine{opts: opts.withDefaults()}
	e.log = obs.Or(e.opts.Logger)
	cfg := jobs.Config[progress, Snapshot]{
		Kind:       "campaign",
		Workers:    e.opts.Workers,
		QueueDepth: e.opts.QueueDepth,
		MaxHistory: e.opts.MaxHistory,
		BaseSeq:    e.opts.BaseSeq,
		Execute:    e.execute,
		Snapshot:   func(j *job) Snapshot { return snapshotLocked(j, 0, false) },
		Attrs: func(j *job) []any {
			return []any{slog.String("attack", j.Data.spec.Attack.String()),
				slog.String("model", j.Data.spec.TargetModel),
				slog.Int("samples", len(j.Data.results)), slog.Int("total", j.Data.total)}
		},
		Finish: e.finishSink,
		Logger: e.opts.Logger,
	}
	if e.opts.Obs != nil {
		cfg.Terminal = e.opts.Obs.CounterVec("malevade_campaign_jobs_total",
			"Campaigns reaching a terminal status.", "status")
		cfg.Seconds = e.opts.Obs.Histogram("malevade_campaign_seconds",
			"Campaign wall-clock duration from start to terminal, in seconds.",
			JobSecondsBuckets)
	}
	e.jobs = jobs.New(cfg)
	return e
}

// Submit validates a spec, enqueues it and returns the queued snapshot.
// The engine never blocks the caller: a full queue is ErrQueueFull.
func (e *Engine) Submit(spec Spec) (Snapshot, error) {
	if err := spec.Validate(e.opts.MaxSamples); err != nil {
		return Snapshot{}, err
	}
	if len(spec.Rows) == 0 {
		// Profile-populated specs must name a real profile; resolving it
		// here keeps the rejection synchronous (422 at the API layer)
		// instead of failing inside the asynchronous job.
		if _, err := experiments.ProfileByName(spec.Profile); err != nil {
			return Snapshot{}, err
		}
	}
	if spec.TargetModel != "" {
		// Resolve the named registry target synchronously too: an unknown
		// model (or a host with no registry) rejects at submit time.
		if e.opts.NamedTarget == nil {
			return Snapshot{}, fmt.Errorf("campaign: spec names target_model %q but the engine has no model registry", spec.TargetModel)
		}
		if _, err := e.opts.NamedTarget(spec.TargetModel); err != nil {
			return Snapshot{}, err
		}
	}
	return e.jobs.Submit(progress{spec: spec, total: len(spec.Rows)}, func(j *job) {
		if e.opts.Sink == nil {
			return
		}
		// Open the durable log before the job can produce a result, so
		// the sink's event stream always begins with Started. A sink
		// failure downgrades this campaign to in-memory only.
		if err := e.opts.Sink.CampaignStarted(j.ID, spec, j.State.SubmittedAt); err != nil {
			e.log.Warn("results sink rejected campaign start",
				slog.String("campaign", j.ID), slog.String("error", err.Error()))
		} else {
			j.Data.sink = e.opts.Sink
		}
	})
}

// Get returns a snapshot with per-sample results from offset on, or false
// for an unknown id.
func (e *Engine) Get(id string, offset int) (Snapshot, bool) {
	j, ok := e.jobs.Job(id)
	if !ok {
		return Snapshot{}, false
	}
	j.Lock()
	defer j.Unlock()
	return snapshotLocked(j, offset, true), true
}

// List returns summary snapshots (no per-sample results) in submission
// order.
func (e *Engine) List() []Snapshot { return e.jobs.List() }

// Cancel requests cancellation and returns the resulting snapshot, or false
// for an unknown id. A queued campaign is marked cancelled immediately; a
// running one stops at its next batch boundary; a terminal one is
// unchanged. Cancel returns as soon as the request is registered — Wait or
// poll Get for the terminal state.
func (e *Engine) Cancel(id string) (Snapshot, bool) { return e.jobs.Cancel(id) }

// Wait blocks until the campaign is terminal, with its results sealed in
// the Sink, or until ctx ends.
func (e *Engine) Wait(ctx context.Context, id string) error { return e.jobs.Wait(ctx, id) }

// Submitted counts campaigns accepted since the engine started.
func (e *Engine) Submitted() int64 { return e.jobs.Submitted() }

// Evicted counts terminal campaigns dropped from in-memory history by the
// MaxHistory cap. With a Sink attached their results remain durably stored
// and queryable; without one they are gone — either way the eviction is
// counted and logged, never silent.
func (e *Engine) Evicted() int64 { return e.jobs.Evicted() }

// Close cancels every campaign, stops the workers and waits for them.
// Idempotent; subsequent Submits fail with ErrClosed while Get/List keep
// answering from the final snapshots.
func (e *Engine) Close() { e.jobs.Close() }

// finishSink seals the job's durable log with its terminal snapshot; the
// runner calls it once per job, after its terminal transition.
func (e *Engine) finishSink(j *job) {
	j.Lock()
	sink, snap := j.Data.sink, snapshotLocked(j, 0, false)
	j.Unlock()
	if sink == nil {
		return
	}
	if err := sink.CampaignFinished(j.ID, snap); err != nil {
		e.log.Warn("results sink rejected campaign finish",
			slog.String("campaign", j.ID), slog.String("error", err.Error()))
	}
}

// execute runs the campaign body: resolve crafting model, population and
// target, then craft and judge batch by batch. Panics from the attack layer
// (width mismatches on hostile specs) surface as job failures, never as a
// crashed worker.
func (e *Engine) execute(j *job) error {
	sp := j.Data.spec // only this worker writes it, and only its Rows below
	craft, err := e.craftModel(sp)
	if err != nil {
		return err
	}
	x, err := e.population(sp, craft.InDim())
	if err != nil {
		return err
	}
	j.Lock()
	j.Data.total = x.Rows
	// The population matrix owns the rows now; dropping the submitted
	// slices keeps a retained terminal job at snapshot size (explicit-rows
	// specs can be tens of megabytes).
	j.Data.spec.Rows = nil
	j.Unlock()

	target, err := e.target(sp)
	if err != nil {
		return err
	}

	batch := sp.BatchSize
	if batch <= 0 {
		batch = e.opts.DefaultBatch
	}
	for start := 0; start < x.Rows; start += batch {
		if err := j.Ctx.Err(); err != nil {
			return err
		}
		end := start + batch
		if end > x.Rows {
			end = x.Rows
		}
		if err := e.runBatch(j, craft, target, x, start, end); err != nil {
			return err
		}
	}
	return nil
}

// runBatch crafts adversarial examples for rows [start,end) and judges the
// whole batch — originals and adversarials — in one generation-pinned
// target call.
func (e *Engine) runBatch(j *job, craft *nn.Network, target Target, x *tensor.Matrix, start, end int) error {
	n := end - start
	bx := tensor.FromSlice(n, x.Cols, x.Data[start*x.Cols:end*x.Cols])

	cfg := j.Data.spec.Attack
	if !cfg.BatchInvariant() {
		// Seed-stream attacks are re-seeded per batch so every batch is
		// reproducible in isolation (results then depend on BatchSize,
		// which the spec records).
		cfg.Seed += uint64(start)
	}
	atk, err := cfg.Build(craft, nil)
	if err != nil {
		return err
	}
	results := atk.Run(bx)
	adv := attack.AdvMatrix(results)

	// One pinned evaluation judges the batch's originals and adversarials
	// together, so both verdicts of every sample come from one generation.
	combined := tensor.New(2*n, x.Cols)
	copy(combined.Data[:n*x.Cols], bx.Data)
	copy(combined.Data[n*x.Cols:], adv.Data)
	labels, gen, err := e.judge(j, target, combined)
	if err != nil {
		return err
	}

	batchResults := make([]SampleResult, n)
	for i := 0; i < n; i++ {
		sr := SampleResult{
			Index:            start + i,
			Generation:       gen,
			BaselineDetected: labels[i] == 1,
			Evaded:           labels[n+i] == 0,
			CraftEvaded:      results[i].Evaded,
			L2:               results[i].L2,
			ModifiedFeatures: len(results[i].ModifiedFeatures),
		}
		if j.Data.spec.KeepRows {
			sr.Adversarial = append([]float64(nil), adv.Row(i)...)
		}
		batchResults[i] = sr
	}

	j.Lock()
	p := &j.Data
	p.batches++
	if !slices.Contains(p.generations, gen) {
		p.generations = append(p.generations, gen)
	}
	for _, sr := range batchResults {
		if sr.BaselineDetected {
			p.detected++
		}
		if sr.Evaded {
			p.evaded++
		}
	}
	p.results = append(p.results, batchResults...)
	sink := p.sink
	j.Unlock()

	// Stream the batch durably outside the lock: the fsync must not stall
	// status polls. Only this job's worker calls the sink with samples,
	// so batches arrive in judged order.
	if sink != nil {
		if err := sink.CampaignSamples(j.ID, batchResults); err != nil {
			e.log.Warn("results sink rejected batch",
				slog.String("campaign", j.ID), slog.String("error", err.Error()))
		}
	}
	return nil
}

// judge evaluates one batch against the target, retrying transient failures
// (remote blips, mid-batch reloads) up to Options.Retries times.
func (e *Engine) judge(j *job, target Target, x *tensor.Matrix) ([]int, int64, error) {
	var lastErr error
	for attempt := 0; attempt <= e.opts.Retries; attempt++ {
		if err := j.Ctx.Err(); err != nil {
			return nil, 0, err
		}
		labels, gen, err := target.LabelBatch(j.Ctx, x)
		if err == nil {
			if len(labels) != x.Rows {
				return nil, 0, fmt.Errorf("campaign: target returned %d labels for %d rows", len(labels), x.Rows)
			}
			return labels, gen, nil
		}
		// A failure once the job's context has ended (a target may return
		// its cause, such as jobs.ErrClosed) or a cancellation surfaced by
		// the target is the job ending, not a target blip worth a retry.
		if j.Ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, 0, err
		}
		lastErr = err
		j.Lock()
		j.Data.retries++
		j.Unlock()
		select {
		case <-j.Ctx.Done():
			return nil, 0, j.Ctx.Err()
		case <-time.After(time.Duration(attempt+1) * 10 * time.Millisecond):
		}
	}
	return nil, 0, fmt.Errorf("campaign: target evaluation failed after %d retries: %w", e.opts.Retries, lastErr)
}

// craftModel resolves the spec's crafting model to a network private to
// this job.
func (e *Engine) craftModel(spec Spec) (*nn.Network, error) {
	var net *nn.Network
	var err error
	switch {
	case spec.CraftModelPath != "":
		net, err = nn.LoadFile(spec.CraftModelPath)
	case spec.TargetModel != "" && e.opts.NamedCraftModel != nil:
		// White-box on the named registry model: craft on a private copy
		// of its live version.
		net, err = e.opts.NamedCraftModel(spec.TargetModel)
	case e.opts.CraftModel != nil:
		net, err = e.opts.CraftModel()
	default:
		return nil, fmt.Errorf("campaign: spec names no craft_model_path and the engine has no default crafting model")
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: load crafting model: %w", err)
	}
	if net.OutDim() != 2 {
		return nil, fmt.Errorf("campaign: crafting model has %d output classes, want 2", net.OutDim())
	}
	return net, nil
}

// population resolves the spec's attacked rows, capped at the engine and
// spec limits.
func (e *Engine) population(spec Spec, inDim int) (*tensor.Matrix, error) {
	cap := e.opts.MaxSamples
	if spec.MaxSamples > 0 && spec.MaxSamples < cap {
		cap = spec.MaxSamples
	}
	if len(spec.Rows) > 0 {
		if len(spec.Rows[0]) != inDim {
			return nil, fmt.Errorf("campaign: rows have %d features, crafting model expects %d", len(spec.Rows[0]), inDim)
		}
		n := len(spec.Rows)
		if n > cap {
			n = cap
		}
		x := tensor.New(n, inDim)
		for i := 0; i < n; i++ {
			copy(x.Row(i), spec.Rows[i])
		}
		return x, nil
	}
	p, err := experiments.ProfileByName(spec.Profile)
	if err != nil {
		return nil, err
	}
	mal, err := experiments.MalwarePopulation(p)
	if err != nil {
		return nil, err
	}
	if mal.X.Cols != inDim {
		return nil, fmt.Errorf("campaign: profile population has %d features, crafting model expects %d", mal.X.Cols, inDim)
	}
	if mal.X.Rows > cap {
		return tensor.FromSlice(cap, mal.X.Cols, mal.X.Data[:cap*mal.X.Cols]), nil
	}
	return mal.X, nil
}

// target resolves the spec's evasion judge.
func (e *Engine) target(spec Spec) (Target, error) {
	if spec.TargetURL != "" {
		if e.opts.RemoteTarget == nil {
			return nil, fmt.Errorf("campaign: spec names a target_url but the engine has no remote-target factory")
		}
		return e.opts.RemoteTarget(spec.TargetURL)
	}
	if spec.TargetModel != "" {
		if e.opts.NamedTarget == nil {
			return nil, fmt.Errorf("campaign: spec names target_model %q but the engine has no model registry", spec.TargetModel)
		}
		return e.opts.NamedTarget(spec.TargetModel)
	}
	if e.opts.LocalTarget == nil {
		return nil, fmt.Errorf("campaign: spec names no target_url and the engine has no local target")
	}
	return e.opts.LocalTarget, nil
}

// snapshotLocked copies the job state. offset windows the per-sample
// results when includeResults is set; Spec.Rows is always elided
// (TotalSamples carries the population size, and explicit rows can be
// megabytes). Callers hold j's lock.
func snapshotLocked(j *job, offset int, includeResults bool) Snapshot {
	p := &j.Data
	s := Snapshot{
		ID:           j.ID,
		Spec:         p.spec,
		Status:       j.State.Status,
		Error:        j.State.Error,
		SubmittedAt:  j.State.SubmittedAt,
		StartedAt:    j.State.StartedAt,
		FinishedAt:   j.State.FinishedAt,
		TotalSamples: p.total,
		DoneSamples:  len(p.results),
		Batches:      p.batches,
		Retries:      p.retries,
		Generations:  append([]int64(nil), p.generations...),
	}
	s.Spec.Rows = nil
	if n := len(p.results); n > 0 {
		s.BaselineDetectionRate = float64(p.detected) / float64(n)
		s.EvasionRate = float64(p.evaded) / float64(n)
	}
	if includeResults {
		offset = min(max(offset, 0), len(p.results))
		s.ResultsOffset = offset
		s.Results = append([]SampleResult(nil), p.results[offset:]...)
	}
	return s
}

package campaign

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"malevade/internal/attack"
	"malevade/internal/experiments"
	"malevade/internal/nn"
	"malevade/internal/obs"
	"malevade/internal/tensor"
)

// JobSecondsBuckets are the job-duration histogram bounds shared by the
// campaign, harden and mine engines: 10ms (a tiny smoke-test campaign)
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

// Submission and lookup errors an API layer maps to status codes.
var (
	// ErrQueueFull rejects a Submit when every worker is busy and the
	// backlog is at QueueDepth.
	ErrQueueFull = errors.New("campaign: queue is full")
	// ErrClosed rejects operations on a closed engine.
	ErrClosed = errors.New("campaign: engine is closed")
)

// job is one campaign's mutable state. The engine's map owns the pointer;
// all fields past the immutable head are guarded by mu so status polls and
// the runner never race.
type job struct {
	id     string
	spec   Spec
	ctx    context.Context
	cancel context.CancelFunc
	// sink is set only when the engine's sink accepted CampaignStarted,
	// so a log that failed to open is not streamed into.
	sink Sink

	mu          sync.Mutex
	status      Status
	errMsg      string
	submitted   time.Time
	started     time.Time
	finished    time.Time
	total       int
	batches     int
	retries     int
	generations []int64
	detected    int // baseline detections among judged samples
	evaded      int // adversarial evasions among judged samples
	results     []SampleResult
}

// Engine is the asynchronous campaign orchestrator: a bounded worker pool
// draining a submission queue, with every campaign addressable by id for
// polling and cancellation. Create with NewEngine, Close when done; all
// methods are safe for concurrent use.
type Engine struct {
	opts  Options
	queue chan *job
	wg    sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string
	closed bool
	seq    int64

	submitted atomic.Int64
	evicted   atomic.Int64

	log      *slog.Logger
	jobsDone *obs.CounterVec // nil without Options.Obs
	duration *obs.Histogram  // nil without Options.Obs
}

// NewEngine starts an engine with opts.Workers campaign workers.
func NewEngine(opts Options) *Engine {
	e := &Engine{opts: opts.withDefaults(), jobs: make(map[string]*job)}
	e.log = obs.Or(e.opts.Logger)
	if e.opts.Obs != nil {
		e.jobsDone = e.opts.Obs.CounterVec("malevade_campaign_jobs_total",
			"Campaigns reaching a terminal status.", "status")
		e.duration = e.opts.Obs.Histogram("malevade_campaign_seconds",
			"Campaign wall-clock duration from start to terminal, in seconds.",
			JobSecondsBuckets)
	}
	e.seq = e.opts.BaseSeq
	e.queue = make(chan *job, e.opts.QueueDepth)
	e.wg.Add(e.opts.Workers)
	for i := 0; i < e.opts.Workers; i++ {
		go func() {
			defer e.wg.Done()
			for j := range e.queue {
				e.run(j)
			}
		}()
	}
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
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return Snapshot{}, ErrClosed
	}
	if len(e.queue) == cap(e.queue) {
		e.mu.Unlock()
		return Snapshot{}, ErrQueueFull
	}
	e.seq++
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:        fmt.Sprintf("c%06d", e.seq),
		spec:      spec,
		ctx:       ctx,
		cancel:    cancel,
		status:    StatusQueued,
		submitted: time.Now(),
		total:     len(spec.Rows),
	}
	if e.opts.Sink != nil {
		// Open the durable log before the job can produce a result, so
		// the sink's event stream always begins with Started. A sink
		// failure downgrades this campaign to in-memory only.
		if err := e.opts.Sink.CampaignStarted(j.id, spec, j.submitted); err != nil {
			e.log.Warn("results sink rejected campaign start",
				slog.String("campaign", j.id), slog.String("error", err.Error()))
		} else {
			j.sink = e.opts.Sink
		}
	}
	// Snapshot before the enqueue: once a worker holds the job it may
	// finish before Submit returns, and the caller must see it queued.
	snap := j.snapshot(0, false)
	// Cannot block: only Submit sends, only under e.mu, workers only
	// drain, and capacity was checked above.
	e.queue <- j
	e.jobs[j.id] = j
	e.order = append(e.order, j.id)
	e.evictLocked()
	e.mu.Unlock()
	e.submitted.Add(1)
	e.log.Info("campaign queued",
		slog.String("campaign", j.id),
		slog.String("attack", spec.Attack.String()),
		slog.String("model", spec.TargetModel))
	return snap, nil
}

// Get returns a snapshot with per-sample results from offset on, or false
// for an unknown id.
func (e *Engine) Get(id string, offset int) (Snapshot, bool) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return Snapshot{}, false
	}
	return j.snapshot(offset, true), true
}

// List returns summary snapshots (no per-sample results) in submission
// order.
func (e *Engine) List() []Snapshot {
	e.mu.Lock()
	ids := append([]string(nil), e.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, e.jobs[id])
	}
	e.mu.Unlock()
	out := make([]Snapshot, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.snapshot(0, false))
	}
	return out
}

// Cancel requests cancellation and returns the resulting snapshot, or false
// for an unknown id. A queued campaign is marked cancelled immediately; a
// running one stops at its next batch boundary; a terminal one is
// unchanged. Cancel returns as soon as the request is registered — poll Get
// for the terminal state.
func (e *Engine) Cancel(id string) (Snapshot, bool) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return Snapshot{}, false
	}
	j.cancel()
	j.mu.Lock()
	if j.status == StatusQueued {
		j.markCancelledLocked()
	}
	j.mu.Unlock()
	e.log.Info("campaign cancel requested", slog.String("campaign", id))
	return j.snapshot(0, false), true
}

// Submitted counts campaigns accepted since the engine started.
func (e *Engine) Submitted() int64 { return e.submitted.Load() }

// Evicted counts terminal campaigns dropped from in-memory history by the
// MaxHistory cap. With a Sink attached their results remain durably stored
// and queryable; without one they are gone — either way the eviction is
// counted and logged, never silent.
func (e *Engine) Evicted() int64 { return e.evicted.Load() }

// evictLocked drops the oldest terminal campaigns beyond MaxHistory so a
// long-lived engine's memory stays bounded. Live (queued/running) campaigns
// are never evicted; the map can therefore briefly exceed the cap when
// everything retained is still live. Evicted campaigns' ids answer
// "unknown" from the engine afterwards, but their results were already
// streamed to the Sink (when one is attached), so eviction archives rather
// than destroys. Callers hold e.mu.
func (e *Engine) evictLocked() {
	if len(e.order) <= e.opts.MaxHistory {
		return
	}
	kept := e.order[:0]
	excess := len(e.order) - e.opts.MaxHistory
	for _, id := range e.order {
		j := e.jobs[id]
		if excess > 0 && j.snapshotStatus().Terminal() {
			delete(e.jobs, id)
			excess--
			e.evicted.Add(1)
			e.log.Info("campaign evicted from history",
				slog.String("campaign", id),
				slog.Bool("archived", j.sink != nil))
			continue
		}
		kept = append(kept, id)
	}
	e.order = kept
}

// Close cancels every campaign, stops the workers and waits for them.
// Idempotent; subsequent Submits fail with ErrClosed while Get/List keep
// answering from the final snapshots.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	jobs := make([]*job, 0, len(e.jobs))
	for _, j := range e.jobs {
		jobs = append(jobs, j)
	}
	e.mu.Unlock()
	for _, j := range jobs {
		j.cancel()
	}
	close(e.queue)
	e.wg.Wait()
}

// run executes one campaign on a worker goroutine.
func (e *Engine) run(j *job) {
	j.mu.Lock()
	if j.ctx.Err() != nil || j.status != StatusQueued {
		// Cancelled while queued (or Close raced the queue drain):
		// never start.
		j.markCancelledLocked()
		j.mu.Unlock()
		j.finishSink(e)
		return
	}
	j.status = StatusRunning
	j.started = time.Now()
	j.mu.Unlock()
	e.log.Info("campaign running", slog.String("campaign", j.id))

	err := e.execute(j)

	j.mu.Lock()
	j.finished = time.Now()
	switch {
	case err == nil:
		j.status = StatusDone
	case errors.Is(err, context.Canceled):
		j.status = StatusCancelled
		j.errMsg = "cancelled"
	default:
		j.status = StatusFailed
		j.errMsg = err.Error()
	}
	status, done, total := j.status, len(j.results), j.total
	elapsed := j.finished.Sub(j.started)
	j.mu.Unlock()
	if e.jobsDone != nil {
		e.jobsDone.With(string(status)).Inc()
		e.duration.Observe(elapsed.Seconds())
	}
	e.log.Info("campaign finished",
		slog.String("campaign", j.id),
		slog.String("status", string(status)),
		slog.Int("samples", done),
		slog.Int("total", total),
		slog.Duration("elapsed", elapsed))
	j.finishSink(e)
}

// finishSink seals the job's durable log with its terminal snapshot. Every
// job that entered the queue passes through run exactly once (Close drains
// the queue), so this is the single Finished call site.
func (j *job) finishSink(e *Engine) {
	if j.sink == nil {
		return
	}
	if err := j.sink.CampaignFinished(j.id, j.snapshot(0, false)); err != nil {
		e.log.Warn("results sink rejected campaign finish",
			slog.String("campaign", j.id), slog.String("error", err.Error()))
	}
}

// execute runs the campaign body: resolve crafting model, population and
// target, then craft and judge batch by batch. Panics from the attack layer
// (width mismatches on hostile specs) surface as job failures, never as a
// crashed worker.
func (e *Engine) execute(j *job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("campaign: attack panicked: %v", r)
		}
	}()

	craft, err := e.craftModel(j.spec)
	if err != nil {
		return err
	}
	x, err := e.population(j.spec, craft.InDim())
	if err != nil {
		return err
	}
	j.mu.Lock()
	j.total = x.Rows
	// The population matrix owns the rows now; dropping the submitted
	// slices keeps a retained terminal job at snapshot size (explicit-rows
	// specs can be tens of megabytes).
	j.spec.Rows = nil
	j.mu.Unlock()

	target, err := e.target(j.spec)
	if err != nil {
		return err
	}

	batch := j.spec.BatchSize
	if batch <= 0 {
		batch = e.opts.DefaultBatch
	}
	for start := 0; start < x.Rows; start += batch {
		if err := j.ctx.Err(); err != nil {
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

	cfg := j.spec.Attack
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
		if j.spec.KeepRows {
			sr.Adversarial = append([]float64(nil), adv.Row(i)...)
		}
		batchResults[i] = sr
	}

	j.mu.Lock()
	j.batches++
	if !containsGen(j.generations, gen) {
		j.generations = append(j.generations, gen)
	}
	for _, sr := range batchResults {
		if sr.BaselineDetected {
			j.detected++
		}
		if sr.Evaded {
			j.evaded++
		}
	}
	j.results = append(j.results, batchResults...)
	j.mu.Unlock()

	// Stream the batch durably outside j.mu: the fsync must not stall
	// status polls. Only this job's worker calls the sink with samples,
	// so batches arrive in judged order.
	if j.sink != nil {
		if err := j.sink.CampaignSamples(j.id, batchResults); err != nil {
			e.log.Warn("results sink rejected batch",
				slog.String("campaign", j.id), slog.String("error", err.Error()))
		}
	}
	return nil
}

// judge evaluates one batch against the target, retrying transient failures
// (remote blips, mid-batch reloads) up to Options.Retries times.
func (e *Engine) judge(j *job, target Target, x *tensor.Matrix) ([]int, int64, error) {
	var lastErr error
	for attempt := 0; attempt <= e.opts.Retries; attempt++ {
		if err := j.ctx.Err(); err != nil {
			return nil, 0, err
		}
		labels, gen, err := target.LabelBatch(j.ctx, x)
		if err == nil {
			if len(labels) != x.Rows {
				return nil, 0, fmt.Errorf("campaign: target returned %d labels for %d rows", len(labels), x.Rows)
			}
			return labels, gen, nil
		}
		// A cancellation surfaced by the target is the job's own context
		// ending, not a target blip worth a retry.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, 0, err
		}
		lastErr = err
		j.mu.Lock()
		j.retries++
		j.mu.Unlock()
		select {
		case <-j.ctx.Done():
			return nil, 0, j.ctx.Err()
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

func containsGen(gens []int64, g int64) bool {
	for _, have := range gens {
		if have == g {
			return true
		}
	}
	return false
}

// snapshotStatus reads the job status under its lock.
func (j *job) snapshotStatus() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// markCancelledLocked finalizes a job that never ran. Callers hold j.mu.
func (j *job) markCancelledLocked() {
	if j.status.Terminal() {
		return
	}
	j.status = StatusCancelled
	j.errMsg = "cancelled"
	j.finished = time.Now()
}

// snapshot copies the job state. offset windows the per-sample results when
// includeResults is set; Spec.Rows is always elided (TotalSamples carries
// the population size, and explicit rows can be megabytes).
func (j *job) snapshot(offset int, includeResults bool) Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Snapshot{
		ID:          j.id,
		Spec:        j.spec,
		Status:      j.status,
		Error:       j.errMsg,
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
		TotalSamples: func() int {
			if j.total > 0 {
				return j.total
			}
			return len(j.spec.Rows)
		}(),
		DoneSamples: len(j.results),
		Batches:     j.batches,
		Retries:     j.retries,
		Generations: append([]int64(nil), j.generations...),
	}
	s.Spec.Rows = nil
	if n := len(j.results); n > 0 {
		s.BaselineDetectionRate = float64(j.detected) / float64(n)
		s.EvasionRate = float64(j.evaded) / float64(n)
	}
	if includeResults {
		if offset < 0 {
			offset = 0
		}
		if offset > len(j.results) {
			offset = len(j.results)
		}
		s.ResultsOffset = offset
		s.Results = append([]SampleResult(nil), j.results[offset:]...)
	}
	return s
}

package harden

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"malevade/internal/campaign"
	"malevade/internal/dataset"
	"malevade/internal/defense"
	"malevade/internal/detector"
	"malevade/internal/experiments"
	"malevade/internal/harden/spec"
	"malevade/internal/jobs"
	"malevade/internal/nn"
	"malevade/internal/obs"
	"malevade/internal/registry"
	"malevade/internal/tensor"
)

// Campaigns is the slice of the campaign engine the controller drives: it
// submits one evasion campaign per round, waits for it to finish, and
// cancels it when the job's own context ends. *campaign.Engine satisfies
// it.
type Campaigns interface {
	// Submit enqueues a campaign.
	Submit(sp campaign.Spec) (campaign.Snapshot, error)
	// Wait blocks until a campaign is terminal or ctx ends.
	Wait(ctx context.Context, id string) error
	// Get reads a campaign, windowing per-sample results from offset on.
	Get(id string, offset int) (campaign.Snapshot, bool)
	// Cancel requests a campaign's cancellation.
	Cancel(id string) (campaign.Snapshot, bool)
}

// Models is the slice of the model registry the controller hardens
// through: resolve the target at submit time, snapshot its live version for
// crafting, register + promote each hardened version, and GC history when
// the version cap is hit. *registry.Registry satisfies it.
type Models interface {
	// Get resolves a model name to its registry info.
	Get(name string) (registry.Info, error)
	// Register ingests (and optionally promotes) a model file.
	Register(req registry.RegisterRequest) (registry.Info, error)
	// LoadLive returns a private copy of the model's live network.
	LoadLive(name string) (*nn.Network, error)
	// GC drops unpinned, non-live versions of the model.
	GC(name string) (registry.Info, int, error)
}

// Options configures an Engine. Dir, Campaigns and Models are required;
// everything else defaults.
type Options struct {
	// Dir is the durable job-state directory (created if missing). The
	// daemon places it next to the registry dir so job state shares the
	// registry's lifecycle and backup story.
	Dir string
	// Campaigns drives each round's evasion campaigns (required).
	Campaigns Campaigns
	// Models is the registry the hardened versions promote through
	// (required).
	Models Models
	// Workers is the number of hardening jobs that run concurrently
	// (default 1 — each job already fans out through campaign workers
	// and a full retraining fit, so more is rarely useful).
	Workers int
	// QueueDepth bounds jobs waiting beyond the running ones (default 8);
	// Submit fails with ErrQueueFull past it. Jobs resumed from durable
	// state never count against it.
	QueueDepth int
	// MaxRounds caps any job's round budget (default 16).
	MaxRounds int
	// MaxHistory bounds how many jobs the engine remembers, in memory and
	// on disk (default 64). Oldest terminal jobs are evicted first; live
	// jobs are never evicted.
	MaxHistory int
	// Logger, when non-nil, receives a structured event per job
	// transition and per completed round.
	Logger *slog.Logger
	// Obs, when set, receives engine metrics: terminal jobs by status
	// (malevade_harden_jobs_total) and a per-round duration histogram
	// (malevade_harden_round_seconds).
	Obs *obs.Registry

	// roundHook, when non-nil, runs after each round is recorded and
	// persisted — a test seam for restart-mid-job coverage.
	roundHook func(id string, round int)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 8
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 16
	}
	if o.MaxHistory <= 0 {
		o.MaxHistory = 64
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

// queueFullBackoff spaces a round's campaign submissions while the
// campaign queue is full.
const queueFullBackoff = 15 * time.Millisecond

// progress is one hardening job's own state, guarded by its job's lock:
// the snapshot (whose lifecycle fields the runner's State overrides) and
// the crafting-model file the job pinned.
type progress struct {
	snap      spec.Snapshot
	craftFile string
}

type job = jobs.Job[progress]

// Engine is the hardening-job orchestrator: jobs run on the shared job
// runner (internal/jobs), every job addressable by id for polling and
// cancellation, and every job's state mirrored to disk so a restarted
// engine resumes in-flight work. Create with NewEngine, Close when done;
// all methods are safe for concurrent use.
type Engine struct {
	opts   Options
	log    *slog.Logger
	rounds *obs.Histogram // nil without Options.Obs
	jobs   *jobs.Runner[progress, spec.Snapshot]
}

// NewEngine opens (or creates) the state directory, reloads every recorded
// job — terminal ones as history, in-flight ones re-enqueued to resume from
// their last persisted round — and starts the workers.
func NewEngine(opts Options) (*Engine, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("harden: Options.Dir is required")
	}
	if opts.Campaigns == nil || opts.Models == nil {
		return nil, fmt.Errorf("harden: Options.Campaigns and Options.Models are required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("harden: create state dir: %w", err)
	}
	e := &Engine{opts: opts.withDefaults()}
	e.log = obs.Or(e.opts.Logger)
	cfg := jobs.Config[progress, spec.Snapshot]{
		Kind:       "harden",
		Workers:    e.opts.Workers,
		QueueDepth: e.opts.QueueDepth,
		MaxHistory: e.opts.MaxHistory,
		Resumable:  true,
		Execute:    e.execute,
		Snapshot:   snapshotLocked,
		Attrs: func(j *job) []any {
			return []any{slog.String("model", j.Data.snap.Spec.Model),
				slog.Int("rounds", len(j.Data.snap.Rounds)), slog.String("stop", j.Data.snap.StopReason)}
		},
		Finish: e.persist,
		Evict: func(j *job) {
			// Terminal jobs' crafting snapshots are already gone, except
			// when that removal failed.
			os.Remove(filepath.Join(e.opts.Dir, j.ID+".json"))
			if cf := j.Data.craftFile; cf != "" {
				os.Remove(filepath.Join(e.opts.Dir, cf))
			}
		},
		Logger: e.opts.Logger,
	}
	if e.opts.Obs != nil {
		cfg.Terminal = e.opts.Obs.CounterVec("malevade_harden_jobs_total",
			"Hardening jobs reaching a terminal status.", "status")
		e.rounds = e.opts.Obs.Histogram("malevade_harden_round_seconds",
			"Duration of each completed hardening round (campaign, harvest, retrain, promote), in seconds.",
			campaign.JobSecondsBuckets)
	}

	states, skipped := loadStates(e.opts.Dir)
	for _, name := range skipped {
		e.log.Warn("skipping unreadable harden state file", slog.String("file", name))
	}
	for _, st := range states {
		snap := st.Snapshot
		if n, ok := seqOf(snap.ID); ok && n > cfg.BaseSeq {
			cfg.BaseSeq = n
		}
		if !snap.Status.Terminal() {
			// The daemon died (or closed) mid-job: requeue it from the
			// recorded rounds. The in-flight campaign id was never
			// persisted, so the interrupted round simply re-runs.
			snap.Resumed = true
			snap.CurrentCampaign = ""
			e.log.Info("harden job resumed", slog.String("job", snap.ID), slog.Int("rounds", len(snap.Rounds)))
		}
		cfg.Restored = append(cfg.Restored, jobs.Restored[progress]{
			ID:   snap.ID,
			Data: progress{snap: snap, craftFile: st.CraftFile},
			State: jobs.State{Status: snap.Status, Error: snap.Error,
				SubmittedAt: snap.SubmittedAt, StartedAt: snap.StartedAt, FinishedAt: snap.FinishedAt},
		})
	}
	e.jobs = jobs.New(cfg)
	return e, nil
}

// Submit validates a spec, resolves its profile and target model
// synchronously (so a doomed job is a 4xx at the API layer, never an
// asynchronous failure), persists the queued job and enqueues it. The
// engine never blocks the caller: a full queue is ErrQueueFull.
func (e *Engine) Submit(sp spec.Spec) (spec.Snapshot, error) {
	if err := sp.Validate(e.opts.MaxRounds); err != nil {
		return spec.Snapshot{}, err
	}
	if _, err := experiments.ProfileByName(sp.Profile); err != nil {
		return spec.Snapshot{}, err
	}
	info, err := e.opts.Models.Get(sp.Model)
	if err != nil {
		return spec.Snapshot{}, err
	}
	if info.Live == 0 {
		return spec.Snapshot{}, fmt.Errorf("%w: model %q has no live version to harden", registry.ErrVersionConflict, sp.Model)
	}
	// The first persist runs before any worker or Cancel can reach the
	// job, so the job's state file only ever has one writer at a time.
	return e.jobs.Submit(progress{snap: spec.Snapshot{Spec: sp}}, e.persist)
}

// Get returns a job snapshot, or false for an unknown id.
func (e *Engine) Get(id string) (spec.Snapshot, bool) { return e.jobs.Get(id) }

// List returns job snapshots in submission order.
func (e *Engine) List() []spec.Snapshot { return e.jobs.List() }

// Cancel requests cancellation and returns the resulting snapshot, or
// false for an unknown id. A queued job is marked cancelled immediately; a
// running one stops at its next cancellation point (batch boundary,
// retraining epoch) and converges to cancelled — poll Get for the terminal
// state. Unlike an engine shutdown, an explicit Cancel is persisted: the
// job will not resume on restart.
func (e *Engine) Cancel(id string) (spec.Snapshot, bool) { return e.jobs.Cancel(id) }

// Submitted counts jobs accepted since the engine started (resumed jobs
// excluded).
func (e *Engine) Submitted() int64 { return e.jobs.Submitted() }

// Close cancels every job, stops the workers and waits for them. In-flight
// jobs keep their last persisted state on disk — a reopened engine resumes
// them — which is exactly how a daemon shutdown differs from an operator's
// Cancel. Idempotent; subsequent Submits fail with ErrClosed while
// Get/List keep answering from the final in-memory snapshots.
func (e *Engine) Close() { e.jobs.Close() }

// persist mirrors the job's current state to disk. Persistence failures
// are logged, not fatal: the job keeps running, it just loses restart
// coverage from this point.
func (e *Engine) persist(j *job) {
	j.Lock()
	st := state{Format: stateFormat, Snapshot: snapshotLocked(j), CraftFile: j.Data.craftFile}
	j.Unlock()
	// The in-flight campaign never survives a restart; resumed jobs re-run
	// the interrupted round from scratch.
	st.Snapshot.CurrentCampaign = ""
	if err := writeState(e.opts.Dir, st); err != nil {
		e.log.Error("harden state persist failed",
			slog.String("job", j.ID), slog.String("error", err.Error()))
	}
}

// execute runs one job on a worker: it records the job as running, runs
// the hardening loop, and deletes the crafting snapshot before the runner
// publishes the terminal status — once the status reads terminal any
// observer may check that the file is gone. A job interrupted by engine
// shutdown keeps its snapshot (and, as the runner skips its final persist,
// its "running" state file) for the resumed run. The state file itself
// stays: job history survives restarts.
func (e *Engine) execute(j *job) (err error) {
	defer func() {
		if err != nil && j.Interrupted() {
			return
		}
		j.Lock()
		cf := j.Data.craftFile
		j.Data.craftFile = ""
		j.Unlock()
		if cf != "" {
			os.Remove(filepath.Join(e.opts.Dir, cf))
		}
	}()
	e.persist(j)
	return e.harden(j)
}

// harden runs the attack → harvest → retrain → promote loop until the
// round budget, the target rate, or a campaign with nothing to harvest.
func (e *Engine) harden(j *job) error {
	sp := j.Data.snap.Spec // immutable after Submit
	p, err := experiments.ProfileByName(sp.Profile)
	if err != nil {
		return err
	}
	craftPath, err := e.ensureCraftModel(j, sp)
	if err != nil {
		return err
	}

	// The clean+malware base corpus each round's retraining augments.
	// Generated lazily: a job whose first campaign already meets the
	// target never pays for it.
	var base *dataset.Dataset

	for {
		if err := j.Ctx.Err(); err != nil {
			return err
		}
		camp, err := e.runCampaign(j, sp, craftPath)
		if err != nil {
			return err
		}
		rate := camp.EvasionRate

		j.Lock()
		done := len(j.Data.snap.Rounds)
		if done > 0 && j.Data.snap.Rounds[done-1].ReattackID == "" {
			// This campaign doubles as the previous round's re-attack:
			// its rate measures the hardened model.
			j.Data.snap.Rounds[done-1].EvasionAfter = rate
			j.Data.snap.Rounds[done-1].ReattackID = camp.ID
		}
		j.Data.snap.Campaigns++
		j.Data.snap.EvasionRate = rate
		j.Unlock()
		e.persist(j)
		e.log.Info("harden campaign judged",
			slog.String("job", j.ID),
			slog.String("campaign", camp.ID),
			slog.Float64("evasion_rate", rate))

		if done >= sp.RoundBudget() {
			e.stop(j, spec.StopRoundBudget)
			return nil
		}
		if sp.TargetEvasionRate > 0 && rate <= sp.TargetEvasionRate {
			e.stop(j, spec.StopTargetReached)
			return nil
		}
		adv := HarvestEvasions(camp)
		if adv == nil {
			e.stop(j, spec.StopNoEvasions)
			return nil
		}

		if base == nil {
			corpus, err := dataset.Generate(dataset.TableIConfig(p.Seed).Scaled(p.ScaleDivisor))
			if err != nil {
				return err
			}
			base = corpus.Train
		}
		round := done + 1
		sets, err := defense.BuildAdvTrainingSet(base, adv)
		if err != nil {
			return err
		}
		cfg := RoundTrainConfig(sp, p, round)
		cfg.OnEpoch = func(int, float64) error { return j.Ctx.Err() }
		hardened, err := defense.AdversarialTraining(sets, cfg)
		if err != nil {
			return err
		}
		info, err := e.registerPromote(j, sp.Model, hardened.Net)
		if err != nil {
			return err
		}

		rec := spec.Round{
			Round:             round,
			CampaignID:        camp.ID,
			EvasionBefore:     rate,
			BaselineDetection: camp.BaselineDetectionRate,
			RowsHarvested:     adv.Rows,
			Duplicates:        sets.Duplicates,
			TrainSeed:         cfg.Seed,
			Version:           info.Live,
			Generation:        info.Generation,
			Generations:       camp.Generations,
			StartedAt:         camp.StartedAt,
			FinishedAt:        time.Now(),
		}
		j.Lock()
		j.Data.snap.Rounds = append(j.Data.snap.Rounds, rec)
		j.Data.snap.Versions = append(j.Data.snap.Versions, info.Live)
		j.Unlock()
		e.persist(j)
		if e.rounds != nil {
			e.rounds.Observe(rec.FinishedAt.Sub(rec.StartedAt).Seconds())
		}
		e.log.Info("harden round complete",
			slog.String("job", j.ID),
			slog.Int("round", round),
			slog.Int("rows_harvested", rec.RowsHarvested),
			slog.Int("version", rec.Version),
			slog.Int64("generation", rec.Generation))
		if e.opts.roundHook != nil {
			e.opts.roundHook(j.ID, round)
		}
	}
}

// stop records why a job finished successfully.
func (e *Engine) stop(j *job, reason string) {
	j.Lock()
	j.Data.snap.StopReason = reason
	j.Unlock()
}

// ensureCraftModel resolves the fixed crafting model the job attacks with
// every round: the spec's explicit path, the file a previous run of this
// job already snapshotted (resume), or a fresh snapshot of the target's
// live version.
func (e *Engine) ensureCraftModel(j *job, sp spec.Spec) (string, error) {
	if sp.CraftModelPath != "" {
		return sp.CraftModelPath, nil
	}
	j.Lock()
	cf := j.Data.craftFile
	j.Unlock()
	if cf != "" {
		path := filepath.Join(e.opts.Dir, cf)
		if _, err := os.Stat(path); err == nil {
			return path, nil
		}
	}
	net, err := e.opts.Models.LoadLive(sp.Model)
	if err != nil {
		return "", fmt.Errorf("harden: snapshot crafting model: %w", err)
	}
	name := j.ID + "-craft.gob"
	path := filepath.Join(e.opts.Dir, name)
	if err := net.SaveFile(path); err != nil {
		return "", fmt.Errorf("harden: save crafting snapshot: %w", err)
	}
	j.Lock()
	j.Data.craftFile = name
	j.Unlock()
	e.persist(j)
	return path, nil
}

// runCampaign submits one round's evasion campaign and waits for it,
// returning the full terminal snapshot (per-sample results included). On
// job cancellation it cancels the campaign and waits for it to release its
// worker before returning, so a cancelled hardening job never leaves a
// campaign running behind it.
func (e *Engine) runCampaign(j *job, sp spec.Spec, craftPath string) (campaign.Snapshot, error) {
	cs := sp.CampaignSpec(craftPath)
	j.Lock()
	round := len(j.Data.snap.Rounds) + 1
	j.Unlock()
	cs.Name = fmt.Sprintf("harden %s round %d", j.ID, round)

	camp, err := e.opts.Campaigns.Submit(cs)
	for errors.Is(err, campaign.ErrQueueFull) {
		select {
		case <-j.Ctx.Done():
			return campaign.Snapshot{}, j.Ctx.Err()
		case <-time.After(queueFullBackoff):
		}
		camp, err = e.opts.Campaigns.Submit(cs)
	}
	if err != nil {
		return campaign.Snapshot{}, err
	}
	j.Lock()
	j.Data.snap.CurrentCampaign = camp.ID
	j.Unlock()
	defer func() {
		j.Lock()
		j.Data.snap.CurrentCampaign = ""
		j.Unlock()
	}()

	if err := e.opts.Campaigns.Wait(j.Ctx, camp.ID); err != nil && j.Ctx.Err() != nil {
		e.opts.Campaigns.Cancel(camp.ID)
		// A cancelled campaign stops at its next batch boundary; Wait
		// cannot fail on a known id without a context to end it.
		_ = e.opts.Campaigns.Wait(context.WithoutCancel(j.Ctx), camp.ID)
		return campaign.Snapshot{}, j.Ctx.Err()
	}
	full, ok := e.opts.Campaigns.Get(camp.ID, 0)
	switch {
	case !ok:
		return campaign.Snapshot{}, fmt.Errorf("harden: campaign %s evicted mid-round", camp.ID)
	case full.Status == campaign.StatusDone:
		return full, nil
	case full.Status == campaign.StatusCancelled:
		return campaign.Snapshot{}, fmt.Errorf("harden: campaign %s was cancelled externally", camp.ID)
	default:
		return campaign.Snapshot{}, fmt.Errorf("harden: campaign %s failed: %s", camp.ID, full.Error)
	}
}

// registerPromote registers the hardened network as a new version of the
// model and promotes it live. A registry at its version cap is GC'd
// (unpinned history dropped) and retried once — hardening churns versions
// by design, and the round metrics preserve what the history loses.
func (e *Engine) registerPromote(j *job, model string, net *nn.Network) (registry.Info, error) {
	tmp := filepath.Join(e.opts.Dir, j.ID+"-retrain.gob")
	if err := net.SaveFile(tmp); err != nil {
		return registry.Info{}, fmt.Errorf("harden: save hardened model: %w", err)
	}
	defer os.Remove(tmp)
	req := registry.RegisterRequest{Name: model, Path: tmp, Promote: true}
	info, err := e.opts.Models.Register(req)
	if errors.Is(err, registry.ErrFull) {
		if _, _, gcErr := e.opts.Models.GC(model); gcErr == nil {
			info, err = e.opts.Models.Register(req)
		}
	}
	if err != nil {
		return registry.Info{}, fmt.Errorf("harden: register hardened version: %w", err)
	}
	return info, nil
}

// snapshotLocked copies the job state for a reader, the runner's
// lifecycle over the job's own snapshot. Callers hold j's lock.
func snapshotLocked(j *job) spec.Snapshot {
	s := cloneSnapshot(j.Data.snap)
	s.ID = j.ID
	s.Status, s.Error = j.State.Status, j.State.Error
	s.SubmittedAt, s.StartedAt, s.FinishedAt = j.State.SubmittedAt, j.State.StartedAt, j.State.FinishedAt
	return s
}

// cloneSnapshot deep-copies a snapshot so readers never share slices with
// the job.
func cloneSnapshot(s spec.Snapshot) spec.Snapshot {
	out := s
	out.Rounds = append([]spec.Round(nil), s.Rounds...)
	for i := range out.Rounds {
		out.Rounds[i].Generations = append([]int64(nil), out.Rounds[i].Generations...)
	}
	out.Versions = append([]int(nil), s.Versions...)
	return out
}

// HarvestEvasions extracts the successful evasions' adversarial feature
// vectors from a completed KeepRows campaign, as the matrix adversarial
// retraining ingests (nil when the campaign produced none). Exported so the
// golden-loop test can hand-glue the exact sequence the controller runs.
func HarvestEvasions(camp campaign.Snapshot) *tensor.Matrix {
	var rows [][]float64
	for _, r := range camp.Results {
		if r.Evaded && len(r.Adversarial) > 0 {
			rows = append(rows, r.Adversarial)
		}
	}
	if len(rows) == 0 {
		return nil
	}
	m := tensor.New(len(rows), len(rows[0]))
	for i, row := range rows {
		copy(m.Row(i), row)
	}
	return m
}

// RoundTrainConfig is the retraining configuration the controller uses for
// the 1-based round: the profile's target architecture and batch size, the
// spec's (or profile's) epoch count, seeded with Spec.TrainSeed(round).
// Exported so the golden-loop test can hand-glue the exact sequence the
// controller runs.
func RoundTrainConfig(s spec.Spec, p experiments.Profile, round int) detector.TrainConfig {
	epochs := s.Epochs
	if epochs == 0 {
		epochs = p.TargetEpochs
	}
	return detector.TrainConfig{
		Arch:       detector.ArchTarget,
		WidthScale: p.TargetWidthScale,
		Epochs:     epochs,
		BatchSize:  p.BatchSize,
		Seed:       s.TrainSeed(round),
	}
}

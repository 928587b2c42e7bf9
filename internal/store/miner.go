package store

import (
	"fmt"
	"hash/fnv"
	"log/slog"
	"math"
	"sort"
	"time"

	"malevade/internal/campaign/spec"
	"malevade/internal/jobs"
	"malevade/internal/tensor"
)

// Miner lifecycle errors: aliases of the job runner's, so the server maps
// them onto the same HTTP statuses as the campaign and hardening engines.
var (
	// ErrMineQueueFull rejects a submit when the job queue is at capacity.
	ErrMineQueueFull = jobs.ErrQueueFull
	// ErrMinerClosed rejects operations after Close.
	ErrMinerClosed = jobs.ErrClosed
	// ErrUnknownMineJob marks a lookup for a mine job id the miner does
	// not hold.
	ErrUnknownMineJob = jobs.ErrUnknown
)

// MineSpec parameterizes one traffic sweep.
type MineSpec struct {
	// Name is an optional human-readable label echoed in snapshots.
	Name string `json:"name,omitempty"`
	// Model restricts the sweep to traffic answered by one registry model
	// ("" sweeps everything, with the default slot recorded as "").
	Model string `json:"model,omitempty"`
	// Band is the probability half-width around the decision boundary
	// (0.5) that counts as suspicious: clean verdicts with
	// P(malware) ≥ 0.5−Band are low-confidence flips, and any verdict with
	// |P(malware)−0.5| ≤ Band is a near-boundary probe. 0 means the
	// miner's default (0.15); otherwise it must lie in (0, 0.5].
	Band float64 `json:"band,omitempty"`
	// MaxFindings truncates the ranked report (0 = the miner's default).
	MaxFindings int `json:"max_findings,omitempty"`
}

// Validate rejects semantically invalid sweeps at submit time.
func (sp MineSpec) Validate() error {
	if math.IsNaN(sp.Band) || sp.Band < 0 || sp.Band > 0.5 {
		return fmt.Errorf("store: mine band must lie in (0, 0.5], got %v", sp.Band)
	}
	if sp.MaxFindings < 0 {
		return fmt.Errorf("store: max_findings must be non-negative, got %d", sp.MaxFindings)
	}
	return nil
}

// Finding is one suspected in-the-wild evasion: a recorded traffic row (or
// a group of identical rows) whose verdicts look like an attacker probing
// or crossing the decision boundary.
type Finding struct {
	// Rank orders the report, 1 = most suspicious.
	Rank int `json:"rank"`
	// Suspicion is the summed signal score; higher is more suspicious.
	Suspicion float64 `json:"suspicion"`
	// Signals names the evidence: "generation_flip" (the same row drew
	// different verdicts from different model generations),
	// "low_confidence_clean" (a clean verdict within Band of the
	// boundary — the shape of a successful evasion), "near_boundary" (any
	// verdict within Band — the shape of an attacker's probe).
	Signals []string `json:"signals"`
	// Model is the registry model the row was scored against.
	Model string `json:"model,omitempty"`
	// Generations lists the distinct model generations that saw this row,
	// in first-seen order.
	Generations []int64 `json:"generations,omitempty"`
	// Count is the number of recorded occurrences of this exact row.
	Count int `json:"count"`
	// Prob is the most suspicious recorded P(malware) for the row (the
	// one closest to the boundary from the clean side, when any verdict
	// carried a probability).
	Prob float64 `json:"prob,omitempty"`
	// HasProb reports whether Prob is meaningful.
	HasProb bool `json:"has_prob"`
	// Class is the verdict attached to Prob.
	Class int `json:"class"`
	// FirstSeen is the earliest recorded occurrence.
	FirstSeen time.Time `json:"first_seen"`
	// Row is the feature vector — the harvestable artifact.
	Row []float64 `json:"row,omitempty"`

	// firstIdx is the row's first position in the swept traffic — the
	// deterministic tie-break for equal suspicion.
	firstIdx int
}

// MineSnapshot is a point-in-time view of one mine job.
type MineSnapshot struct {
	// ID is the miner-assigned job id.
	ID string `json:"id"`
	// Spec echoes the submitted sweep parameters (defaults resolved).
	Spec MineSpec `json:"spec"`
	// Status reuses the campaign lifecycle states.
	Status spec.Status `json:"status"`
	// Error holds the failure (or cancellation) reason for terminal
	// non-Done statuses.
	Error string `json:"error,omitempty"`
	// SubmittedAt / StartedAt / FinishedAt bound the job's lifecycle.
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
	// Swept counts the traffic rows the sweep examined.
	Swept int `json:"swept"`
	// Findings is the ranked report, most suspicious first.
	Findings []Finding `json:"findings,omitempty"`
}

// MinerOptions configures NewMiner. The zero value is usable.
type MinerOptions struct {
	// Workers is the sweep worker-pool size (default 1 — sweeps are
	// CPU-light; ordering beats parallelism here).
	Workers int
	// QueueDepth bounds queued jobs (default 8); a full queue rejects
	// with ErrMineQueueFull.
	QueueDepth int
	// MaxHistory bounds retained terminal jobs (default 64; oldest
	// terminal jobs are evicted first).
	MaxHistory int
	// DefaultBand is the Band applied when a spec leaves it zero
	// (default 0.15).
	DefaultBand float64
	// MaxFindings is the report cap applied when a spec leaves it zero
	// (default 256).
	MaxFindings int
	// Logger receives job lifecycle events. Nil discards them.
	Logger *slog.Logger
}

func (o MinerOptions) withDefaults() MinerOptions {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 8
	}
	if o.MaxHistory <= 0 {
		o.MaxHistory = 64
	}
	if o.DefaultBand <= 0 {
		o.DefaultBand = 0.15
	}
	if o.MaxFindings <= 0 {
		o.MaxFindings = 256
	}
	return o
}

// sweep is one mine job's own state, guarded by its job's lock.
type sweep struct {
	spec     MineSpec
	swept    int
	findings []Finding
}

type mineJob = jobs.Job[sweep]

// Miner runs queued traffic sweeps against a Store on the job runner
// (internal/jobs) the campaign and hardening engines share.
type Miner struct {
	store *Store
	opts  MinerOptions
	jobs  *jobs.Runner[sweep, MineSnapshot]
}

// NewMiner starts a miner over st with opts.Workers sweep workers.
func NewMiner(st *Store, opts MinerOptions) *Miner {
	m := &Miner{store: st, opts: opts.withDefaults()}
	m.jobs = jobs.New(jobs.Config[sweep, MineSnapshot]{
		Kind:       "mine",
		Workers:    m.opts.Workers,
		QueueDepth: m.opts.QueueDepth,
		MaxHistory: m.opts.MaxHistory,
		Execute:    m.execute,
		Snapshot:   func(j *mineJob) MineSnapshot { return mineSnapshotLocked(j, false) },
		Attrs: func(j *mineJob) []any {
			return []any{slog.String("model", j.Data.spec.Model), slog.Float64("band", j.Data.spec.Band),
				slog.Int("swept", j.Data.swept), slog.Int("findings", len(j.Data.findings))}
		},
		Logger: m.opts.Logger,
	})
	return m
}

// Submit validates and enqueues one sweep, returning its queued snapshot.
func (m *Miner) Submit(sp MineSpec) (MineSnapshot, error) {
	if err := sp.Validate(); err != nil {
		return MineSnapshot{}, err
	}
	if sp.Band == 0 {
		sp.Band = m.opts.DefaultBand
	}
	if sp.MaxFindings == 0 {
		sp.MaxFindings = m.opts.MaxFindings
	}
	return m.jobs.Submit(sweep{spec: sp}, nil)
}

// execute runs one sweep on a worker. Sweeps are short, so it never checks
// the job's context: cancelling a running sweep lets it finish.
func (m *Miner) execute(j *mineJob) error {
	rows, err := m.store.Traffic()
	if err != nil {
		return err
	}
	findings := SweepTraffic(rows, j.Data.spec) // spec is immutable after Submit
	j.Lock()
	j.Data.swept, j.Data.findings = len(rows), findings
	j.Unlock()
	return nil
}

// Get returns a snapshot of one job, findings included.
func (m *Miner) Get(id string) (MineSnapshot, error) {
	j, ok := m.jobs.Job(id)
	if !ok {
		return MineSnapshot{}, fmt.Errorf("%w: %s", ErrUnknownMineJob, id)
	}
	j.Lock()
	defer j.Unlock()
	return mineSnapshotLocked(j, true), nil
}

// List returns snapshots of every retained job in submission order, with
// findings elided (fetch one job for its report).
func (m *Miner) List() []MineSnapshot { return m.jobs.List() }

// Cancel cancels a queued job (running sweeps are too short to interrupt;
// cancelling one lets it finish) and returns its snapshot.
func (m *Miner) Cancel(id string) (MineSnapshot, error) {
	snap, ok := m.jobs.Cancel(id)
	if !ok {
		return MineSnapshot{}, fmt.Errorf("%w: %s", ErrUnknownMineJob, id)
	}
	return snap, nil
}

// Submitted counts jobs accepted since the miner started.
func (m *Miner) Submitted() int64 { return m.jobs.Submitted() }

// Close cancels queued sweeps, lets running ones finish and stops the
// workers. Submit after Close fails with ErrMinerClosed.
func (m *Miner) Close() { m.jobs.Close() }

// mineSnapshotLocked copies a job for a reader, its findings only when
// asked. Callers hold j's lock.
func mineSnapshotLocked(j *mineJob, withFindings bool) MineSnapshot {
	s := MineSnapshot{
		ID:          j.ID,
		Spec:        j.Data.spec,
		Status:      j.State.Status,
		Error:       j.State.Error,
		SubmittedAt: j.State.SubmittedAt,
		StartedAt:   j.State.StartedAt,
		FinishedAt:  j.State.FinishedAt,
		Swept:       j.Data.swept,
	}
	if withFindings {
		s.Findings = append([]Finding(nil), j.Data.findings...)
	}
	return s
}

// rowKey identifies one exact (model, feature-vector) pair: FNV-1a over the
// model name and the row's IEEE-754 bits, so bit-identical rows group and
// anything else doesn't.
func rowKey(model string, row []float64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(model))
	var b [8]byte
	for _, v := range row {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// SweepTraffic is the miner's core, exposed for direct use and
// benchmarking: group recorded rows by exact (model, features) identity,
// score each group's evasion signals, and return the ranked report.
//
// Signals (summed per group):
//
//   - generation_flip (+1.0): the same row drew different verdicts from
//     different model generations — the strongest in-the-wild signal, an
//     input whose classification a retrain changed.
//   - low_confidence_clean (+0.5 … +1.0): a clean verdict with P(malware)
//     within Band below the boundary — the closer to 0.5, the higher the
//     score. This is what a successful evasion looks like from the
//     defender's side.
//   - near_boundary (+0 … +0.25): any probability within Band of the
//     boundary — attackers binary-searching the surface leave these.
//
// Rows the sweep cannot use (no feature vector, or filtered out by
// sp.Model) are skipped. Ties rank deterministically (earliest first
// occurrence wins).
func SweepTraffic(rows []TrafficRow, sp MineSpec) []Finding {
	band := sp.Band
	if band <= 0 {
		band = 0.15
	}
	type group struct {
		finding  Finding
		firstIdx int
		classes  map[int]bool
		genSet   map[int64]bool
		lowConf  float64
		nearB    float64
	}
	groups := make(map[uint64]*group)
	var keys []uint64
	for i, row := range rows {
		if len(row.Row) == 0 {
			continue
		}
		if sp.Model != "" && row.Model != sp.Model {
			continue
		}
		key := rowKey(row.Model, row.Row)
		g, ok := groups[key]
		if !ok {
			g = &group{
				finding: Finding{
					Model:     row.Model,
					FirstSeen: row.Time,
					Row:       row.Row,
				},
				firstIdx: i,
				classes:  make(map[int]bool),
				genSet:   make(map[int64]bool),
			}
			groups[key] = g
			keys = append(keys, key)
		}
		g.finding.Count++
		g.classes[row.Class] = true
		if !g.genSet[row.Generation] {
			g.genSet[row.Generation] = true
			g.finding.Generations = append(g.finding.Generations, row.Generation)
		}
		if row.HasProb {
			if row.Class == 0 && row.Prob >= 0.5-band && row.Prob < 0.5 {
				if c := 0.5 + (row.Prob-(0.5-band))/band*0.5; c > g.lowConf {
					g.lowConf = c
					g.finding.Prob = row.Prob
					g.finding.HasProb = true
					g.finding.Class = row.Class
				}
			}
			if d := math.Abs(row.Prob - 0.5); d <= band {
				if c := (band - d) / band * 0.25; c > g.nearB {
					g.nearB = c
					if g.lowConf == 0 {
						g.finding.Prob = row.Prob
						g.finding.HasProb = true
						g.finding.Class = row.Class
					}
				}
			}
		}
	}
	findings := make([]Finding, 0, len(groups))
	for _, k := range keys {
		g := groups[k]
		f := g.finding
		if len(g.genSet) >= 2 && len(g.classes) >= 2 {
			f.Suspicion += 1.0
			f.Signals = append(f.Signals, "generation_flip")
		}
		if g.lowConf > 0 {
			f.Suspicion += g.lowConf
			f.Signals = append(f.Signals, "low_confidence_clean")
		}
		if g.nearB > 0 {
			f.Suspicion += g.nearB
			f.Signals = append(f.Signals, "near_boundary")
		}
		if f.Suspicion > 0 {
			f.firstIdx = g.firstIdx
			findings = append(findings, f)
		}
	}
	sort.SliceStable(findings, func(a, b int) bool {
		if findings[a].Suspicion != findings[b].Suspicion {
			return findings[a].Suspicion > findings[b].Suspicion
		}
		return findings[a].firstIdx < findings[b].firstIdx
	})
	maxF := sp.MaxFindings
	if maxF <= 0 {
		maxF = 256
	}
	if len(findings) > maxF {
		findings = findings[:maxF]
	}
	for i := range findings {
		findings[i].Rank = i + 1
	}
	return findings
}

// HarvestFindings stacks the findings' feature vectors into a matrix ready
// for defense.BuildAdvTrainingSet — the bridge from mined in-the-wild
// evasions to adversarial retraining. Every finding must carry a row, and
// all rows must share one width.
func HarvestFindings(findings []Finding) (*tensor.Matrix, error) {
	if len(findings) == 0 {
		return nil, fmt.Errorf("store: no findings to harvest")
	}
	width := len(findings[0].Row)
	if width == 0 {
		return nil, fmt.Errorf("store: finding 0 has no feature row")
	}
	rows := make([][]float64, len(findings))
	for i, f := range findings {
		if len(f.Row) != width {
			return nil, fmt.Errorf("store: finding %d row width %d != %d", i, len(f.Row), width)
		}
		rows[i] = f.Row
	}
	return tensor.FromRows(rows), nil
}

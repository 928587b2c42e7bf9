// Package jobs is the asynchronous job runner behind the campaign,
// hardening and mining engines: a bounded queue drained by a fixed pool of
// workers, every job addressable by id for polling, cancellation and
// waiting, and a bounded history. An engine supplies only what differs per
// kind — the job body, the job's own state T and its snapshot type S — and
// the runner owns the lifecycle the three kinds share:
//
//   - Submit assigns the id (the kind's initial and a six-digit sequence,
//     c000001) and returns a snapshot taken before any worker can see the
//     job, so the caller always sees it queued.
//   - Every job reaches exactly one terminal transition (done, failed or
//     cancelled), which is counted, logged and followed by the kind's
//     Finish hook on one code path, settle.
//   - Cancel ends a queued job at once and a running one through its
//     context. Close cancels every job with cause ErrClosed, so a body can
//     tell an engine shutdown from an operator's cancel with
//     context.Cause, and joins every worker.
//   - Past MaxHistory, the oldest finished jobs are evicted.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"malevade/internal/campaign/spec"
	"malevade/internal/obs"
)

// Status is a job's lifecycle state; every kind shares the campaign
// taxonomy.
type Status = spec.Status

// Errors every engine built on the runner returns; the engines' own
// sentinels are aliases of these.
var (
	// ErrQueueFull rejects a Submit when every worker is busy and the
	// backlog is at QueueDepth.
	ErrQueueFull = errors.New("jobs: queue is full")
	// ErrClosed rejects a Submit after Close. It is also the cancellation
	// cause of every job Close ends.
	ErrClosed = errors.New("jobs: engine is closed")
	// ErrUnknown marks an id the runner does not hold: never assigned, or
	// evicted from history.
	ErrUnknown = errors.New("jobs: unknown job")
)

// State is a job's lifecycle bookkeeping. Only the runner writes it.
type State struct {
	Status      Status
	Error       string
	SubmittedAt time.Time
	StartedAt   time.Time
	FinishedAt  time.Time
}

// Job is one submitted job: its id and context, the kind's state Data and
// the runner's lifecycle State. The embedded mutex guards Data and State.
type Job[T any] struct {
	// ID is the runner-assigned id.
	ID string
	// Ctx ends when the job is cancelled (cause context.Canceled) or its
	// engine closes (cause ErrClosed).
	Ctx context.Context

	sync.Mutex
	// Data is the kind's own per-job state.
	Data T
	// State is the lifecycle the runner maintains; read it under the lock.
	State State

	cancel context.CancelCauseFunc
	done   chan struct{}
}

// Interrupted reports whether the job's engine closed under it, as opposed
// to an operator cancelling it.
func (j *Job[T]) Interrupted() bool { return context.Cause(j.Ctx) == ErrClosed }

// finished reports whether the job's terminal transition, Finish hook
// included, is complete.
func (j *Job[T]) finished() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// Restored is a job recovered from durable state at boot.
type Restored[T any] struct {
	ID    string
	Data  T
	State State
}

// Config describes one kind of job to New. Execute and Snapshot are
// required; the engines resolve their own defaults for the sizes.
type Config[T, S any] struct {
	// Kind names the jobs in logs ("campaign", "harden", "mine"); its
	// initial prefixes their ids.
	Kind string
	// Workers is the number of jobs that run concurrently.
	Workers int
	// QueueDepth bounds jobs waiting beyond the running ones.
	QueueDepth int
	// MaxHistory bounds the jobs the runner remembers; live jobs are never
	// evicted, so the count can briefly exceed it.
	MaxHistory int
	// BaseSeq seeds the id counter, so ids stay unique across restarts.
	BaseSeq int64
	// Restored seeds the runner with recovered jobs, in id order. Terminal
	// ones become history; live ones are queued again, ahead of new
	// submissions and outside QueueDepth.
	Restored []Restored[T]
	// Resumable marks jobs that outlive their engine: a job Close
	// interrupts is neither counted nor passed to Finish, so its durable
	// state still reads live and the next engine resumes it.
	Resumable bool

	// Execute runs one job's body on a worker. A nil error is done; an
	// error after the job's context ended is cancelled; any other error,
	// or a panic, is failed.
	Execute func(*Job[T]) error
	// Snapshot renders a job for readers, with the job locked.
	Snapshot func(*Job[T]) S
	// Attrs, when set, adds attributes to a job's queued and terminal log
	// lines, with the job locked.
	Attrs func(*Job[T]) []any
	// Finish, when set, runs once after a job's terminal transition and
	// before Wait returns for it.
	Finish func(*Job[T])
	// Evict, when set, runs for each job dropped from history, with the
	// runner locked.
	Evict func(*Job[T])

	// Logger receives the lifecycle events; nil discards them.
	Logger *slog.Logger
	// Terminal, when set, counts terminal transitions by status.
	Terminal *obs.CounterVec
	// Seconds, when set, observes each started job's wall time from start
	// to terminal.
	Seconds *obs.Histogram
}

// Runner runs the jobs of one kind. Create with New, Close when done; all
// methods are safe for concurrent use.
type Runner[T, S any] struct {
	cfg   Config[T, S]
	log   *slog.Logger
	queue chan *Job[T]
	wg    sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*Job[T]
	order  []string
	closed bool
	seq    int64

	submitted atomic.Int64
	evicted   atomic.Int64
}

// New starts a runner with cfg.Workers workers, live restored jobs already
// queued.
func New[T, S any](cfg Config[T, S]) *Runner[T, S] {
	r := &Runner[T, S]{cfg: cfg, log: obs.Or(cfg.Logger), jobs: make(map[string]*Job[T]), seq: cfg.BaseSeq}
	var live []*Job[T]
	for _, rj := range cfg.Restored {
		j := newJob(rj.ID, rj.Data, rj.State)
		if rj.State.Status.Terminal() {
			j.cancel(nil)
			close(j.done)
		} else {
			j.State.Status = spec.StatusQueued
			live = append(live, j)
		}
		r.jobs[j.ID] = j
		r.order = append(r.order, j.ID)
	}
	r.cfg.Restored = nil
	// The buffer is the backlog: QueueDepth waiting submissions plus the
	// restored jobs queued ahead of them.
	r.queue = make(chan *Job[T], cfg.QueueDepth+len(live))
	for _, j := range live {
		r.queue <- j
	}
	r.wg.Add(cfg.Workers)
	for range cfg.Workers {
		go func() {
			defer r.wg.Done()
			for j := range r.queue {
				r.run(j)
			}
		}()
	}
	return r
}

func newJob[T any](id string, data T, st State) *Job[T] {
	ctx, cancel := context.WithCancelCause(context.Background())
	return &Job[T]{ID: id, Ctx: ctx, Data: data, State: st, cancel: cancel, done: make(chan struct{})}
}

// Submit enqueues a job holding data and returns its queued snapshot; it
// never blocks. accept, when set, runs before the job is visible to any
// other caller or worker — the place for a kind's first durable write.
func (r *Runner[T, S]) Submit(data T, accept func(*Job[T])) (S, error) {
	var snap S
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return snap, ErrClosed
	}
	if len(r.queue) == cap(r.queue) {
		r.mu.Unlock()
		return snap, ErrQueueFull
	}
	r.seq++
	j := newJob(fmt.Sprintf("%c%06d", r.cfg.Kind[0], r.seq), data,
		State{Status: spec.StatusQueued, SubmittedAt: time.Now()})
	if accept != nil {
		accept(j)
	}
	j.Lock()
	snap = r.cfg.Snapshot(j)
	attrs := r.attrs(j)
	j.Unlock()
	// Cannot block: only Submit sends, only under r.mu, workers only
	// drain, and capacity was checked above.
	r.queue <- j
	r.jobs[j.ID] = j
	r.order = append(r.order, j.ID)
	r.evictLocked()
	r.mu.Unlock()
	r.submitted.Add(1)
	r.log.Info(r.cfg.Kind+" queued", attrs...)
	return snap, nil
}

// Job returns the job with the given id.
func (r *Runner[T, S]) Job(id string) (*Job[T], bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// Get returns a job's snapshot, or false for an unknown id.
func (r *Runner[T, S]) Get(id string) (S, bool) {
	j, ok := r.Job(id)
	if !ok {
		var zero S
		return zero, false
	}
	return r.snapshot(j), true
}

// List returns every remembered job's snapshot in submission order.
func (r *Runner[T, S]) List() []S {
	r.mu.Lock()
	jobs := make([]*Job[T], len(r.order))
	for i, id := range r.order {
		jobs[i] = r.jobs[id]
	}
	r.mu.Unlock()
	out := make([]S, len(jobs))
	for i, j := range jobs {
		out[i] = r.snapshot(j)
	}
	return out
}

// Cancel cancels a job and returns its snapshot, or false for an unknown
// id. A queued job is cancelled at once — its Finish hook has run when
// Cancel returns; a running one stops when its body next checks its
// context; a terminal one is unchanged.
func (r *Runner[T, S]) Cancel(id string) (S, bool) {
	j, ok := r.Job(id)
	if !ok {
		var zero S
		return zero, false
	}
	r.log.Info(r.cfg.Kind+" cancel requested", slog.String("job", id))
	// Settle before cancelling the context, so a worker that has not yet
	// picked the job up finds it terminal and leaves it alone.
	r.settle(j, spec.StatusQueued, spec.StatusCancelled, "cancelled")
	j.cancel(nil)
	return r.snapshot(j), true
}

// Wait blocks until the job's terminal transition is complete or ctx
// ends. An unknown id is ErrUnknown.
func (r *Runner[T, S]) Wait(ctx context.Context, id string) error {
	j, ok := r.Job(id)
	if !ok {
		return fmt.Errorf("%w %q", ErrUnknown, id)
	}
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Submitted counts jobs accepted since the runner started (restored jobs
// excluded).
func (r *Runner[T, S]) Submitted() int64 { return r.submitted.Load() }

// Evicted counts jobs dropped from history by the MaxHistory cap.
func (r *Runner[T, S]) Evicted() int64 { return r.evicted.Load() }

// Close cancels every job with cause ErrClosed and returns once every
// worker has exited; queued jobs end cancelled without running.
// Idempotent; later Submits fail with ErrClosed while Get, List and Wait
// keep answering.
func (r *Runner[T, S]) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	for _, j := range r.jobs {
		j.cancel(ErrClosed)
	}
	close(r.queue)
	r.mu.Unlock()
	r.wg.Wait()
}

func (r *Runner[T, S]) snapshot(j *Job[T]) S {
	j.Lock()
	defer j.Unlock()
	return r.cfg.Snapshot(j)
}

// attrs renders a job's log attributes. Callers hold j's lock.
func (r *Runner[T, S]) attrs(j *Job[T]) []any {
	attrs := []any{slog.String("job", j.ID)}
	if r.cfg.Attrs != nil {
		attrs = append(attrs, r.cfg.Attrs(j)...)
	}
	return attrs
}

// run takes one job off the queue on a worker goroutine.
func (r *Runner[T, S]) run(j *Job[T]) {
	j.Lock()
	switch {
	case j.State.Status != spec.StatusQueued:
		// Cancelled while queued: Cancel already settled it.
		j.Unlock()
		return
	case j.Ctx.Err() != nil:
		// Close ended it before it started.
		j.Unlock()
		r.settle(j, spec.StatusQueued, spec.StatusCancelled, "cancelled")
		return
	}
	j.State.Status = spec.StatusRunning
	if j.State.StartedAt.IsZero() {
		j.State.StartedAt = time.Now()
	}
	j.Unlock()
	r.log.Info(r.cfg.Kind+" running", slog.String("job", j.ID))

	err := r.execute(j)
	switch {
	case err == nil:
		r.settle(j, spec.StatusRunning, spec.StatusDone, "")
	case j.Ctx.Err() != nil:
		r.settle(j, spec.StatusRunning, spec.StatusCancelled, "cancelled")
	default:
		r.settle(j, spec.StatusRunning, spec.StatusFailed, err.Error())
	}
}

// execute runs the kind's body; a panic (say, a width mismatch deep in a
// hostile spec's attack) fails the job instead of crashing the worker.
func (r *Runner[T, S]) execute(j *Job[T]) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s: job panicked: %v", r.cfg.Kind, p)
		}
	}()
	return r.cfg.Execute(j)
}

// settle is every job's one terminal transition: it moves j from status
// from to status, unless another caller already moved it, then counts,
// finishes and logs the transition and releases Wait.
func (r *Runner[T, S]) settle(j *Job[T], from, status Status, msg string) {
	j.Lock()
	if j.State.Status != from {
		j.Unlock()
		return
	}
	j.State.Status, j.State.Error, j.State.FinishedAt = status, msg, time.Now()
	started, finished := j.State.StartedAt, j.State.FinishedAt
	attrs := append(r.attrs(j), slog.String("status", string(status)))
	j.Unlock()
	defer close(j.done)

	if r.cfg.Resumable && status == spec.StatusCancelled && j.Interrupted() {
		r.log.Warn(r.cfg.Kind+" interrupted (resumable)", attrs...)
		return
	}
	if r.cfg.Terminal != nil {
		r.cfg.Terminal.With(string(status)).Inc()
	}
	if r.cfg.Seconds != nil && !started.IsZero() {
		r.cfg.Seconds.Observe(finished.Sub(started).Seconds())
	}
	if r.cfg.Finish != nil {
		r.cfg.Finish(j)
	}
	if !started.IsZero() {
		attrs = append(attrs, slog.Duration("elapsed", finished.Sub(started)))
	}
	r.log.Info(r.cfg.Kind+" finished", attrs...)
}

// evictLocked drops the oldest finished jobs beyond MaxHistory. A job is
// evictable only once its terminal transition, Finish hook included, is
// complete, so an Evict hook never races a Finish hook. Callers hold r.mu.
func (r *Runner[T, S]) evictLocked() {
	excess := len(r.order) - r.cfg.MaxHistory
	if excess <= 0 {
		return
	}
	kept := r.order[:0]
	for _, id := range r.order {
		j := r.jobs[id]
		if excess > 0 && j.finished() {
			delete(r.jobs, id)
			excess--
			r.evicted.Add(1)
			if r.cfg.Evict != nil {
				r.cfg.Evict(j)
			}
			r.log.Info(r.cfg.Kind+" evicted from history", slog.String("job", id))
			continue
		}
		kept = append(kept, id)
	}
	r.order = kept
}

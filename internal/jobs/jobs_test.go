package jobs

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"malevade/internal/campaign/spec"
	"malevade/internal/obs"
)

// snap is the test kind's snapshot: the id and lifecycle status.
type snap struct {
	ID     string
	Status Status
	Error  string
}

// testRunner builds a runner whose Execute is body, counting terminal
// transitions into reg.
func testRunner(t *testing.T, reg *obs.Registry, body func(*Job[int]) error, mutate func(*Config[int, snap])) *Runner[int, snap] {
	t.Helper()
	cfg := Config[int, snap]{
		Kind:       "test",
		Workers:    1,
		QueueDepth: 4,
		MaxHistory: 64,
		Execute:    body,
		Snapshot: func(j *Job[int]) snap {
			return snap{ID: j.ID, Status: j.State.Status, Error: j.State.Error}
		},
		Terminal: reg.CounterVec("test_jobs_total", "Test jobs reaching a terminal status.", "status"),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r := New(cfg)
	t.Cleanup(r.Close)
	return r
}

// counted reads one status's terminal count from the registry's text
// exposition.
func counted(t *testing.T, reg *obs.Registry, status string) int {
	t.Helper()
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText([]byte(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if s.Name == "test_jobs_total" && s.Labels["status"] == status {
			return int(s.Value)
		}
	}
	return 0
}

func wait(t *testing.T, r *Runner[int, snap], id string) snap {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.Wait(ctx, id); err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	s, _ := r.Get(id)
	return s
}

// TestSubmitSnapshotIsQueued pins the Submit contract: the snapshot it
// returns is always queued, even when a worker runs the job to completion
// before Submit returns. Run with -race -count to shake out interleavings.
func TestSubmitSnapshotIsQueued(t *testing.T) {
	r := testRunner(t, obs.NewRegistry(), func(*Job[int]) error { return nil }, func(c *Config[int, snap]) {
		c.Workers = 4
		c.QueueDepth = 256
	})
	for i := 0; i < 200; i++ {
		s, err := r.Submit(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		if s.Status != spec.StatusQueued {
			t.Fatalf("submit %d returned a %s snapshot, want queued", i, s.Status)
		}
	}
}

// TestTerminalTransitionsCounted: every terminal status — done, failed,
// cancelled while running, cancelled while queued — is counted exactly
// once, and a queued cancel never runs the body.
func TestTerminalTransitionsCounted(t *testing.T) {
	reg := obs.NewRegistry()
	release := make(chan struct{})
	started := make(chan struct{})
	var ran sync.Map
	r := testRunner(t, reg, func(j *Job[int]) error {
		ran.Store(j.ID, true)
		switch j.Data {
		case 1:
			return errors.New("boom")
		case 2:
			close(started)
			<-j.Ctx.Done()
			return j.Ctx.Err()
		case 3:
			<-release
		}
		return nil
	}, nil)

	done, _ := r.Submit(0, nil)
	failed, _ := r.Submit(1, nil)
	if s := wait(t, r, done.ID); s.Status != spec.StatusDone {
		t.Fatalf("job 0: %s, want done", s.Status)
	}
	if s := wait(t, r, failed.ID); s.Status != spec.StatusFailed || s.Error != "boom" {
		t.Fatalf("job 1: %s %q, want failed boom", s.Status, s.Error)
	}

	running, _ := r.Submit(2, nil)
	<-started
	queued, _ := r.Submit(3, nil)
	if s, _ := r.Cancel(queued.ID); s.Status != spec.StatusCancelled {
		t.Fatalf("queued cancel: %s, want cancelled at once", s.Status)
	}
	r.Cancel(running.ID)
	if s := wait(t, r, running.ID); s.Status != spec.StatusCancelled {
		t.Fatalf("running cancel: %s, want cancelled", s.Status)
	}
	close(release)
	if _, ok := ran.Load(queued.ID); ok {
		t.Error("a job cancelled while queued ran")
	}
	// Cancelling a terminal job changes nothing and counts nothing.
	if s, _ := r.Cancel(done.ID); s.Status != spec.StatusDone {
		t.Errorf("cancel of a done job: %s", s.Status)
	}
	for status, want := range map[string]int{"done": 1, "failed": 1, "cancelled": 2} {
		if got := counted(t, reg, status); got != want {
			t.Errorf("%s counted %d times, want %d", status, got, want)
		}
	}
}

// TestCloseCancelsQueuedAndJoins: Close ends running and queued jobs with
// cause ErrClosed, never runs the queued ones, and returns only after the
// workers exit; afterwards Submit is ErrClosed and Wait still answers.
func TestCloseCancelsQueuedAndJoins(t *testing.T) {
	started := make(chan struct{})
	var causes []error
	var mu sync.Mutex
	r := testRunner(t, obs.NewRegistry(), func(j *Job[int]) error {
		close(started)
		<-j.Ctx.Done()
		mu.Lock()
		causes = append(causes, context.Cause(j.Ctx))
		mu.Unlock()
		return j.Ctx.Err()
	}, nil)
	first, _ := r.Submit(0, nil)
	<-started
	second, _ := r.Submit(1, nil)
	r.Close()
	for _, id := range []string{first.ID, second.ID} {
		if s := wait(t, r, id); s.Status != spec.StatusCancelled {
			t.Errorf("%s after Close: %s, want cancelled", id, s.Status)
		}
	}
	if len(causes) != 1 || causes[0] != ErrClosed {
		t.Errorf("body ran %d times with causes %v, want once with ErrClosed", len(causes), causes)
	}
	if _, err := r.Submit(2, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after Close: %v, want ErrClosed", err)
	}
	if err := r.Wait(context.Background(), "t999999"); !errors.Is(err, ErrUnknown) {
		t.Errorf("wait for unknown id: %v, want ErrUnknown", err)
	}
}

// TestQueueFullAndIDs: a full queue refuses without spending an id, and
// ids carry the kind's initial after BaseSeq.
func TestQueueFullAndIDs(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 3)
	r := testRunner(t, obs.NewRegistry(), func(j *Job[int]) error {
		started <- struct{}{}
		<-release
		return nil
	}, func(c *Config[int, snap]) {
		c.QueueDepth = 1
		c.BaseSeq = 41
	})
	first, _ := r.Submit(0, nil)
	<-started
	if _, err := r.Submit(1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(2, nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: %v, want ErrQueueFull", err)
	}
	close(release)
	wait(t, r, "t000043")
	next, err := r.Submit(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.ID != "t000042" || next.ID != "t000044" {
		t.Errorf("ids %s, %s; want t000042, t000044", first.ID, next.ID)
	}
}

// TestEvictionAndRestore: restored terminal jobs are history, restored live
// jobs run first, and eviction drops the oldest finished jobs through the
// Evict hook while never touching a live one.
func TestEvictionAndRestore(t *testing.T) {
	var evicted []string
	release := make(chan struct{})
	r := testRunner(t, obs.NewRegistry(), func(j *Job[int]) error {
		if j.Data == 9 {
			<-release
		}
		return nil
	}, func(c *Config[int, snap]) {
		c.MaxHistory = 2
		c.Resumable = true
		c.Evict = func(j *Job[int]) { evicted = append(evicted, j.ID) }
		c.Restored = []Restored[int]{
			{ID: "t000001", State: State{Status: spec.StatusDone}},
			{ID: "t000002", Data: 9, State: State{Status: spec.StatusRunning}},
		}
		c.BaseSeq = 2
	})
	if s, _ := r.Get("t000001"); s.Status != spec.StatusDone {
		t.Fatalf("restored terminal job: %s", s.Status)
	}
	third, _ := r.Submit(0, nil) // evicts t000001: history is 3 > 2
	if _, ok := r.Get("t000001"); ok {
		t.Error("oldest finished job survived eviction")
	}
	fourth, _ := r.Submit(0, nil) // t000002 is live, t000003 still queued
	if got := len(r.List()); got != 3 {
		t.Errorf("history holds %d jobs, want 3 (live jobs are never evicted)", got)
	}
	close(release)
	wait(t, r, "t000002")
	wait(t, r, third.ID)
	wait(t, r, fourth.ID)
	r.Submit(0, nil)
	if strings.Join(evicted, ",") != "t000001,t000002,t000003" || r.Evicted() != 3 {
		t.Errorf("evicted %v (count %d), want t000001..t000003", evicted, r.Evicted())
	}
}

// TestResumableInterruptNotFinished: on a resumable kind, a job Close
// interrupts is neither counted nor passed to Finish, while an operator's
// cancel is both.
func TestResumableInterruptNotFinished(t *testing.T) {
	reg := obs.NewRegistry()
	var finished []string
	var mu sync.Mutex
	running := make(chan string, 2)
	r := testRunner(t, reg, func(j *Job[int]) error {
		running <- j.ID
		<-j.Ctx.Done()
		return j.Ctx.Err()
	}, func(c *Config[int, snap]) {
		c.Workers = 2
		c.Resumable = true
		c.Finish = func(j *Job[int]) {
			mu.Lock()
			finished = append(finished, j.ID)
			mu.Unlock()
		}
	})
	a, _ := r.Submit(0, nil)
	b, _ := r.Submit(0, nil)
	<-running
	<-running
	r.Cancel(a.ID)
	wait(t, r, a.ID)
	r.Close()
	if s := wait(t, r, b.ID); s.Status != spec.StatusCancelled {
		t.Fatalf("interrupted job: %s, want cancelled in memory", s.Status)
	}
	if len(finished) != 1 || finished[0] != a.ID {
		t.Errorf("Finish ran for %v, want only the operator-cancelled %s", finished, a.ID)
	}
	if got := counted(t, reg, "cancelled"); got != 1 {
		t.Errorf("cancelled counted %d times, want 1", got)
	}
}

// TestPanicFailsJob: a panicking body fails its job and the worker lives on.
func TestPanicFailsJob(t *testing.T) {
	r := testRunner(t, obs.NewRegistry(), func(j *Job[int]) error {
		if j.Data == 1 {
			panic("width mismatch")
		}
		return nil
	}, nil)
	bad, _ := r.Submit(1, nil)
	if s := wait(t, r, bad.ID); s.Status != spec.StatusFailed || !strings.Contains(s.Error, "width mismatch") {
		t.Fatalf("panicking job: %s %q, want failed", s.Status, s.Error)
	}
	good, _ := r.Submit(0, nil)
	if s := wait(t, r, good.ID); s.Status != spec.StatusDone {
		t.Fatalf("job after a panic: %s, want done", s.Status)
	}
}

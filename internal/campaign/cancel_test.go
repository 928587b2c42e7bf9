package campaign

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"malevade/internal/attack"
	"malevade/internal/obs"
	"malevade/internal/tensor"
)

// slowTarget is a Target whose every batch takes long enough that a cancel
// request always lands mid-campaign. It counts judged batches so tests can
// prove work actually stopped. The delay honors ctx, like a real remote
// target whose wire call aborts on cancellation.
type slowTarget struct {
	delay   time.Duration
	batches atomic.Int64
}

func (s *slowTarget) LabelBatch(ctx context.Context, x *tensor.Matrix) ([]int, int64, error) {
	t := time.NewTimer(s.delay)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	case <-t.C:
	}
	s.batches.Add(1)
	return make([]int, x.Rows), 1, nil
}

// TestCancelMidCampaign is the cancellation acceptance test: cancelling a
// running campaign must stop it at a batch boundary, mark it cancelled,
// release its worker for the next campaign, and leak no goroutines once the
// engine closes.
func TestCancelMidCampaign(t *testing.T) {
	baseline := stableGoroutines(t)

	dims := []int{6, 2}
	craftPath, _ := testNet(t, t.TempDir(), dims, 1)
	target := &slowTarget{delay: 20 * time.Millisecond}
	e := NewEngine(Options{Workers: 1, LocalTarget: target})

	// 100 one-sample batches × 20ms ≈ 2s of work: far longer than the
	// cancel below needs to land mid-run.
	snap, err := e.Submit(Spec{
		Attack:         attack.Config{Kind: attack.KindFGSM, Theta: 0.1},
		CraftModelPath: craftPath,
		Rows:           testRows(100, dims[0], 2),
		BatchSize:      1,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Wait until it is demonstrably mid-run, then cancel.
	waitFor(t, func() bool {
		s, _ := e.Get(snap.ID, 0)
		return s.Status == StatusRunning && s.DoneSamples > 0
	}, "campaign to start judging")
	if _, ok := e.Cancel(snap.ID); !ok {
		t.Fatal("Cancel did not find the campaign")
	}
	final := waitTerminal(t, e, snap.ID)
	if final.Status != StatusCancelled {
		t.Fatalf("status %s, want cancelled", final.Status)
	}
	if final.DoneSamples == 0 || final.DoneSamples >= final.TotalSamples {
		t.Fatalf("done %d of %d: cancel should land mid-campaign", final.DoneSamples, final.TotalSamples)
	}
	judgedAtCancel := target.batches.Load()

	// The worker must be free immediately: a follow-up campaign completes.
	fast, err := e.Submit(Spec{
		Attack:         attack.Config{Kind: attack.KindFGSM, Theta: 0.1},
		CraftModelPath: craftPath,
		Rows:           testRows(2, dims[0], 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, e, fast.ID); final.Status != StatusDone {
		t.Fatalf("post-cancel campaign: status %s (%s), want done", final.Status, final.Error)
	}
	// The cancelled job must have stopped judging (the follow-up added
	// exactly its own batch).
	if got := target.batches.Load(); got != judgedAtCancel+1 {
		t.Errorf("target judged %d batches after cancel, want %d — cancelled campaign kept running",
			got, judgedAtCancel+1)
	}

	// Cancelling a finished campaign is a no-op.
	if s, ok := e.Cancel(fast.ID); !ok || s.Status != StatusDone {
		t.Errorf("cancel of finished campaign: ok=%v status=%v, want done unchanged", ok, s.Status)
	}

	e.Close()
	assertNoGoroutineLeak(t, baseline)
}

// TestCancelQueuedCampaign: cancelling before a worker picks the job up
// must finalize it without ever running it.
func TestCancelQueuedCampaign(t *testing.T) {
	baseline := stableGoroutines(t)

	dims := []int{6, 2}
	craftPath, _ := testNet(t, t.TempDir(), dims, 1)
	target := &slowTarget{delay: 50 * time.Millisecond}
	e := NewEngine(Options{Workers: 1, LocalTarget: target})

	// Occupy the single worker, then queue a second campaign behind it.
	long, err := e.Submit(Spec{
		Attack:         attack.Config{Kind: attack.KindFGSM, Theta: 0.1},
		CraftModelPath: craftPath,
		Rows:           testRows(40, dims[0], 2),
		BatchSize:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := e.Submit(Spec{
		Attack:         attack.Config{Kind: attack.KindFGSM, Theta: 0.1},
		CraftModelPath: craftPath,
		Rows:           testRows(40, dims[0], 3),
		BatchSize:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := e.Get(queued.ID, 0); s.Status != StatusQueued {
		t.Fatalf("second campaign status %s, want queued behind the busy worker", s.Status)
	}
	if s, ok := e.Cancel(queued.ID); !ok || s.Status != StatusCancelled {
		t.Fatalf("cancel queued campaign: ok=%v status=%v, want cancelled immediately", ok, s.Status)
	}
	if s := waitTerminal(t, e, queued.ID); s.DoneSamples != 0 {
		t.Errorf("cancelled-while-queued campaign judged %d samples, want 0", s.DoneSamples)
	}
	e.Cancel(long.ID)
	waitTerminal(t, e, long.ID)

	e.Close()
	assertNoGoroutineLeak(t, baseline)
}

// TestCancelQueuedCampaignCounted: a campaign cancelled while queued is a
// terminal transition like any other, so malevade_campaign_jobs_total
// counts it next to its sibling that ran to completion.
func TestCancelQueuedCampaignCounted(t *testing.T) {
	dims := []int{6, 2}
	craftPath, _ := testNet(t, t.TempDir(), dims, 1)
	reg := obs.NewRegistry()
	e := NewEngine(Options{Workers: 1, LocalTarget: &slowTarget{delay: 5 * time.Millisecond}, Obs: reg})
	defer e.Close()
	sp := Spec{
		Attack:         attack.Config{Kind: attack.KindFGSM, Theta: 0.1},
		CraftModelPath: craftPath,
		Rows:           testRows(20, dims[0], 2),
		BatchSize:      1,
	}
	first, err := e.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := e.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := e.Cancel(queued.ID); s.Status != StatusCancelled {
		t.Fatalf("cancel queued campaign: status %s, want cancelled", s.Status)
	}
	if err := e.Wait(context.Background(), first.ID); err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`malevade_campaign_jobs_total{status="done"} 1`,
		`malevade_campaign_jobs_total{status="cancelled"} 1`,
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("metrics lack %s:\n%s", want, text.String())
		}
	}
}

// TestCloseCancelsEverything: Close on a busy engine must cancel running
// and queued campaigns and return only after the workers exit.
func TestCloseCancelsEverything(t *testing.T) {
	baseline := stableGoroutines(t)

	dims := []int{6, 2}
	craftPath, _ := testNet(t, t.TempDir(), dims, 1)
	target := &slowTarget{delay: 20 * time.Millisecond}
	e := NewEngine(Options{Workers: 2, LocalTarget: target})
	var submitted []string
	for i := 0; i < 4; i++ {
		snap, err := e.Submit(Spec{
			Attack:         attack.Config{Kind: attack.KindFGSM, Theta: 0.1},
			CraftModelPath: craftPath,
			Rows:           testRows(50, dims[0], uint64(i)),
			BatchSize:      1,
		})
		if err != nil {
			t.Fatal(err)
		}
		submitted = append(submitted, snap.ID)
	}
	waitFor(t, func() bool {
		for _, id := range submitted {
			if s, _ := e.Get(id, 0); s.Status == StatusRunning {
				return true
			}
		}
		return false
	}, "a campaign to start")

	e.Close()
	for _, id := range submitted {
		s, ok := e.Get(id, 0)
		if !ok || !s.Status.Terminal() {
			t.Errorf("campaign %s not terminal after Close: %v", id, s.Status)
		}
		if s.Status == StatusFailed {
			t.Errorf("campaign %s failed during Close: %s", id, s.Error)
		}
	}
	assertNoGoroutineLeak(t, baseline)
}

// waitFor polls cond with a deadline.
func waitFor(t testing.TB, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// stableGoroutines samples the goroutine count after a settle pause, so
// earlier tests' dying goroutines don't inflate the baseline.
func stableGoroutines(t testing.TB) int {
	t.Helper()
	var n int
	for i := 0; i < 50; i++ {
		runtime.GC()
		n = runtime.NumGoroutine()
		time.Sleep(2 * time.Millisecond)
		if runtime.NumGoroutine() == n {
			return n
		}
	}
	return n
}

// assertNoGoroutineLeak verifies the goroutine count returns to the
// baseline (with a little slack for runtime helpers) after engine Close —
// the "never leak goroutines" clause of the cancellation contract.
func assertNoGoroutineLeak(t testing.TB, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var last int
	for time.Now().Before(deadline) {
		runtime.GC()
		last = runtime.NumGoroutine()
		if last <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 64<<10)
	t.Fatalf("goroutine leak: %d live, baseline %d\n%s", last, baseline, buf[:runtime.Stack(buf, true)])
}

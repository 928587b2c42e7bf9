package harden

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"malevade/internal/attack"
	"malevade/internal/campaign"
	"malevade/internal/dataset"
	"malevade/internal/harden/spec"
	"malevade/internal/nn"
	"malevade/internal/registry"
	"malevade/internal/tensor"
)

// featureWidth is the corpus feature width every profile produces; the fake
// campaigns' adversarial rows must match it for the (real) retraining the
// controller runs between campaigns.
const featureWidth = 491

// fakeCamp is one simulated campaign's state inside fakeCampaigns.
type fakeCamp struct {
	rate      float64
	cancelled bool
	gated     bool
}

// fakeCampaigns simulates the campaign engine: every submitted campaign is
// immediately running, completes with the next scripted evasion rate the
// moment it is polled (unless gated), and honors Cancel. Rates past the end
// of the script repeat the last entry.
type fakeCampaigns struct {
	mu      sync.Mutex
	seq     int
	camps   map[string]*fakeCamp
	rates   []float64
	rows    *tensor.Matrix
	gate    chan struct{} // non-nil: campaigns stay running until closed
	submits int
	cancels int
}

func newFakeCampaigns(rates []float64, rows *tensor.Matrix) *fakeCampaigns {
	return &fakeCampaigns{camps: map[string]*fakeCamp{}, rates: rates, rows: rows}
}

func (f *fakeCampaigns) Submit(sp campaign.Spec) (campaign.Snapshot, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	idx := f.seq
	f.seq++
	f.submits++
	id := fmt.Sprintf("c%06d", f.seq)
	rate := f.rates[min(idx, len(f.rates)-1)]
	f.camps[id] = &fakeCamp{rate: rate, gated: f.gate != nil}
	return campaign.Snapshot{ID: id, Spec: sp, Status: campaign.StatusRunning, StartedAt: time.Now()}, nil
}

// submitted reads the submit count under the lock.
func (f *fakeCampaigns) submitted() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.submits
}

func (f *fakeCampaigns) Get(id string, offset int) (campaign.Snapshot, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.camps[id]
	if !ok {
		return campaign.Snapshot{}, false
	}
	snap := campaign.Snapshot{ID: id, StartedAt: time.Now(), Generations: []int64{1}, BaselineDetectionRate: 0.9}
	switch {
	case c.cancelled:
		snap.Status = campaign.StatusCancelled
		snap.Error = "cancelled"
	case c.gated:
		select {
		case <-f.gate:
			c.gated = false
			return f.doneLocked(snap, c, offset), true
		default:
			snap.Status = campaign.StatusRunning
		}
	default:
		return f.doneLocked(snap, c, offset), true
	}
	return snap, true
}

// doneLocked renders a completed campaign: the scripted evasion rate, and —
// when the rate is positive — every fake adversarial row marked evaded.
func (f *fakeCampaigns) doneLocked(snap campaign.Snapshot, c *fakeCamp, offset int) campaign.Snapshot {
	snap.Status = campaign.StatusDone
	snap.EvasionRate = c.rate
	if c.rate > 0 && f.rows != nil {
		snap.TotalSamples = f.rows.Rows
		snap.DoneSamples = f.rows.Rows
		if offset == 0 {
			for i := 0; i < f.rows.Rows; i++ {
				snap.Results = append(snap.Results, campaign.SampleResult{
					Index:       i,
					Evaded:      true,
					Generation:  1,
					Adversarial: append([]float64(nil), f.rows.Row(i)...),
				})
			}
		}
	}
	return snap
}

// Wait polls the fake until the campaign reads terminal (or is unknown).
func (f *fakeCampaigns) Wait(ctx context.Context, id string) error {
	for {
		if snap, ok := f.Get(id, 1<<30); !ok || snap.Status.Terminal() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

func (f *fakeCampaigns) Cancel(id string) (campaign.Snapshot, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.camps[id]
	if !ok {
		return campaign.Snapshot{}, false
	}
	c.cancelled = true
	f.cancels++
	return campaign.Snapshot{ID: id, Status: campaign.StatusCancelled}, true
}

// fakeModels simulates the registry: one known model ("prod"), versions
// bumped on every Register, a scripted one-shot ErrFull to exercise the
// GC-and-retry path.
type fakeModels struct {
	mu        sync.Mutex
	live      int
	gen       int64
	loadLives int
	registers int
	gcs       int
	failFull  bool // next Register fails with ErrFull (cleared by GC)
}

func (m *fakeModels) Get(name string) (registry.Info, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if name != "prod" {
		return registry.Info{}, fmt.Errorf("%w %q", registry.ErrUnknownModel, name)
	}
	return registry.Info{Name: name, Live: m.live, Generation: m.gen}, nil
}

func (m *fakeModels) LoadLive(name string) (*nn.Network, error) {
	m.mu.Lock()
	m.loadLives++
	m.mu.Unlock()
	return nn.NewMLP(nn.MLPConfig{Dims: []int{featureWidth, 8, 2}, Seed: 5})
}

func (m *fakeModels) Register(req registry.RegisterRequest) (registry.Info, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failFull && m.gcs == 0 {
		return registry.Info{}, registry.ErrFull
	}
	if _, err := os.Stat(req.Path); err != nil {
		return registry.Info{}, fmt.Errorf("fake registry: model file: %w", err)
	}
	m.registers++
	m.live++
	m.gen++
	return registry.Info{Name: req.Name, Live: m.live, Generation: m.gen}, nil
}

func (m *fakeModels) GC(name string) (registry.Info, int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gcs++
	return registry.Info{Name: name, Live: m.live, Generation: m.gen}, 1, nil
}

// advRows builds n deterministic, pairwise-distinct adversarial rows of the
// corpus feature width, none of which appear in any generated corpus (the
// 0.37 marker value never occurs in normalized call-count features).
func advRows(n int) *tensor.Matrix {
	m := tensor.New(n, featureWidth)
	for i := 0; i < n; i++ {
		row := m.Row(i)
		row[i%featureWidth] = 0.37
		row[(i*7+3)%featureWidth] = 1
	}
	return m
}

func validSpec() Spec {
	return Spec{
		Model:  "prod",
		Attack: attack.Config{Kind: attack.KindFGSM, Theta: 0.1},
		Epochs: 1,
		Seed:   43,
	}
}

func newTestEngine(t testing.TB, dir string, c Campaigns, m Models, mutate func(*Options)) *Engine {
	t.Helper()
	opts := Options{Dir: dir, Campaigns: c, Models: m}
	if mutate != nil {
		mutate(&opts)
	}
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func waitHardenStatus(t testing.TB, e *Engine, id string, cond func(spec.Snapshot) bool, what string) spec.Snapshot {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		if snap, ok := e.Get(id); ok && cond(snap) {
			return snap
		}
		time.Sleep(2 * time.Millisecond)
	}
	snap, _ := e.Get(id)
	t.Fatalf("timed out waiting for %s (job %s: %+v)", what, id, snap)
	return spec.Snapshot{}
}

func waitHardenTerminal(t testing.TB, e *Engine, id string) spec.Snapshot {
	t.Helper()
	return waitHardenStatus(t, e, id, func(s spec.Snapshot) bool { return s.Status.Terminal() }, "terminal status")
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

// assertNoGoroutineLeak verifies the goroutine count returns to the baseline
// (with a little slack for runtime helpers) after engine Close.
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

// TestHardenSpecValidate covers the submit-time spec contract: required
// model, the model/target_url conflict, budget and rate bounds, non-finite
// rejection.
func TestHardenSpecValidate(t *testing.T) {
	ok := validSpec()
	if err := ok.Validate(16); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"missing model", func(s *Spec) { s.Model = "" }},
		{"target url conflict", func(s *Spec) { s.TargetURL = "http://example.com" }},
		{"bad attack kind", func(s *Spec) { s.Attack.Kind = "nope" }},
		{"negative rounds", func(s *Spec) { s.Rounds = -1 }},
		{"rounds over cap", func(s *Spec) { s.Rounds = 17 }},
		{"NaN target rate", func(s *Spec) { s.TargetEvasionRate = math.NaN() }},
		{"Inf target rate", func(s *Spec) { s.TargetEvasionRate = math.Inf(1) }},
		{"negative target rate", func(s *Spec) { s.TargetEvasionRate = -0.1 }},
		{"target rate above one", func(s *Spec) { s.TargetEvasionRate = 1.5 }},
		{"negative max samples", func(s *Spec) { s.MaxSamples = -1 }},
		{"negative batch size", func(s *Spec) { s.BatchSize = -1 }},
		{"negative epochs", func(s *Spec) { s.Epochs = -1 }},
	}
	for _, tc := range cases {
		sp := validSpec()
		tc.mutate(&sp)
		if err := sp.Validate(16); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, sp)
		}
	}
	if got := (Spec{}).RoundBudget(); got != 1 {
		t.Errorf("zero-spec round budget %d, want 1", got)
	}
	if got := (Spec{Rounds: 3}).RoundBudget(); got != 3 {
		t.Errorf("round budget %d, want 3", got)
	}
	if got := (Spec{Seed: 40}).TrainSeed(2); got != 42 {
		t.Errorf("train seed %d, want 42", got)
	}
	// The derived campaign spec must pin crafting and keep rows: those two
	// fields are what make harvesting and bit-identical replay possible.
	cs := validSpec().CampaignSpec("/tmp/craft.gob")
	if cs.CraftModelPath != "/tmp/craft.gob" || !cs.KeepRows || cs.TargetModel != "prod" {
		t.Errorf("campaign spec %+v: want pinned crafting, KeepRows, target model prod", cs)
	}
}

// TestHardenSubmitErrors covers the synchronous submit failures: unknown
// model, no live version, unknown profile, queue backpressure, closed
// engine.
func TestHardenSubmitErrors(t *testing.T) {
	baseline := stableGoroutines(t)
	models := &fakeModels{live: 1}
	camps := newFakeCampaigns([]float64{0.5}, nil)
	camps.gate = make(chan struct{})
	e := newTestEngine(t, t.TempDir(), camps, models, func(o *Options) {
		o.Workers = 1
		o.QueueDepth = 1
	})

	sp := validSpec()
	sp.Model = "ghost"
	if _, err := e.Submit(sp); !errors.Is(err, registry.ErrUnknownModel) {
		t.Errorf("unknown model: err %v, want ErrUnknownModel", err)
	}
	sp = validSpec()
	sp.Profile = "mega"
	if _, err := e.Submit(sp); err == nil {
		t.Error("unknown profile accepted")
	}
	models.mu.Lock()
	models.live = 0
	models.mu.Unlock()
	if _, err := e.Submit(validSpec()); !errors.Is(err, registry.ErrVersionConflict) {
		t.Errorf("no live version: err %v, want ErrVersionConflict", err)
	}
	models.mu.Lock()
	models.live = 1
	models.mu.Unlock()

	// One job occupies the worker (its campaign is gated open), one fills
	// the queue; the third must bounce with ErrQueueFull.
	first, err := e.Submit(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitHardenStatus(t, e, first.ID, func(s spec.Snapshot) bool { return s.Status == spec.StatusRunning }, "first job to start")
	queued, err := e.Submit(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(validSpec()); !errors.Is(err, ErrQueueFull) {
		t.Errorf("third submit: err %v, want ErrQueueFull", err)
	}
	// Release the gate so both jobs drain (their campaigns produce no
	// harvestable rows, so neither retrains), then verify ids stayed
	// contiguous across the rejected submit.
	close(camps.gate)
	waitHardenTerminal(t, e, first.ID)
	waitHardenTerminal(t, e, queued.ID)
	next, err := e.Submit(validSpec())
	if err != nil {
		t.Fatalf("submit after queue drained: %v", err)
	}
	if want := "h000003"; next.ID != want {
		t.Errorf("id after rejected submit %s, want %s", next.ID, want)
	}
	waitHardenTerminal(t, e, next.ID)

	e.Close()
	if _, err := e.Submit(validSpec()); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: err %v, want ErrClosed", err)
	}
	assertNoGoroutineLeak(t, baseline)
}

// TestHardenSubmitSnapshotQueued: the snapshot Submit returns is always
// queued, even when the job runs to its terminal state before Submit
// returns (campaigns with nothing to harvest end a job at once).
func TestHardenSubmitSnapshotQueued(t *testing.T) {
	e := newTestEngine(t, t.TempDir(), newFakeCampaigns([]float64{0}, nil), &fakeModels{live: 1}, func(o *Options) {
		o.QueueDepth = 256
		o.MaxHistory = 256
	})
	defer e.Close()
	for i := 0; i < 200; i++ {
		snap, err := e.Submit(validSpec())
		if err != nil {
			t.Fatal(err)
		}
		if snap.Status != spec.StatusQueued {
			t.Fatalf("submit %d returned a %s snapshot, want queued", i, snap.Status)
		}
	}
}

// TestHardenStateRoundtrip covers the durable-state layer directly: atomic
// write, format validation, corrupt-file quarantine, id ordering.
func TestHardenStateRoundtrip(t *testing.T) {
	dir := t.TempDir()
	second := state{Format: stateFormat, Snapshot: spec.Snapshot{ID: "h000002", Status: spec.StatusRunning}, CraftFile: "h000002-craft.gob"}
	first := state{Format: stateFormat, Snapshot: spec.Snapshot{ID: "h000001", Status: spec.StatusDone}}
	for _, st := range []state{second, first} {
		if err := writeState(dir, st); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "h000003.json"), []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := readState(filepath.Join(dir, "h000002.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Snapshot.ID != "h000002" || got.CraftFile != "h000002-craft.gob" {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
	if _, err := readState(filepath.Join(dir, "h000003.json")); err == nil {
		t.Error("corrupt state file read without error")
	}
	bad := state{Format: stateFormat + 1, Snapshot: spec.Snapshot{ID: "h000009"}}
	if err := writeState(dir, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := readState(filepath.Join(dir, "h000009.json")); err == nil || !strings.Contains(err.Error(), "format") {
		t.Errorf("future-format file: err %v, want format mismatch", err)
	}

	states, skipped := loadStates(dir)
	if len(states) != 2 || states[0].Snapshot.ID != "h000001" || states[1].Snapshot.ID != "h000002" {
		t.Fatalf("loadStates returned %d states (%v), want h000001,h000002", len(states), states)
	}
	if len(skipped) != 2 {
		t.Errorf("skipped %v, want the corrupt and future-format files", skipped)
	}
	if n, ok := seqOf("h000042"); !ok || n != 42 {
		t.Errorf("seqOf(h000042) = %d,%v", n, ok)
	}
	if _, ok := seqOf("c000042"); ok {
		t.Error("seqOf accepted a campaign id")
	}
}

// TestHardenStopsWithoutRetraining: the two zero-round exits — a first
// campaign already at the target rate, and a campaign with nothing to
// harvest — must finish Done with the right stop reason, no registrations,
// and no crafting snapshot left behind.
func TestHardenStopsWithoutRetraining(t *testing.T) {
	cases := []struct {
		name   string
		rates  []float64
		target float64
		stop   string
	}{
		{"no evasions", []float64{0}, 0, spec.StopNoEvasions},
		{"target already met", []float64{0.05}, 0.1, spec.StopTargetReached},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			models := &fakeModels{live: 1}
			e := newTestEngine(t, dir, newFakeCampaigns(tc.rates, advRows(4)), models, nil)
			defer e.Close()
			sp := validSpec()
			sp.Rounds = 3
			sp.TargetEvasionRate = tc.target
			snap, err := e.Submit(sp)
			if err != nil {
				t.Fatal(err)
			}
			final := waitHardenTerminal(t, e, snap.ID)
			if final.Status != spec.StatusDone || final.StopReason != tc.stop {
				t.Fatalf("status %s stop %q (%s), want done/%s", final.Status, final.StopReason, final.Error, tc.stop)
			}
			if len(final.Rounds) != 0 || final.Campaigns != 1 || models.registers != 0 {
				t.Errorf("rounds %d campaigns %d registers %d, want 0/1/0", len(final.Rounds), final.Campaigns, models.registers)
			}
			if final.EvasionRate != tc.rates[0] {
				t.Errorf("evasion rate %v, want %v", final.EvasionRate, tc.rates[0])
			}
			// The crafting snapshot is deleted with the terminal state; the
			// job state file itself is history and stays.
			if _, err := os.Stat(filepath.Join(dir, snap.ID+"-craft.gob")); !os.IsNotExist(err) {
				t.Errorf("crafting snapshot still on disk after terminal job (err %v)", err)
			}
			if _, err := os.Stat(filepath.Join(dir, snap.ID+".json")); err != nil {
				t.Errorf("terminal job state missing: %v", err)
			}
		})
	}
}

// TestHardenRoundsAndResume is the controller's core contract in one run:
// scripted rates drop 0.8→0.6→0.4→0.2 over a 3-round budget, the engine is
// closed mid-job after round 1 (a daemon shutdown), and a reopened engine on
// the same directory must resume at the recorded round — reusing the
// persisted crafting snapshot, not re-pinning a fresh one — and complete all
// three rounds with the re-attack chain intact.
func TestHardenRoundsAndResume(t *testing.T) {
	baseline := stableGoroutines(t)
	dir := t.TempDir()
	rows := advRows(6)
	models := &fakeModels{live: 1, failFull: true} // first Register exercises GC-and-retry
	camps1 := newFakeCampaigns([]float64{0.8, 0.6}, rows)

	roundDone := make(chan struct{})
	hold := make(chan struct{})
	e1 := newTestEngine(t, dir, camps1, models, func(o *Options) {
		o.roundHook = func(id string, round int) {
			if round == 1 {
				close(roundDone)
				<-hold
			}
		}
	})
	sp := validSpec()
	sp.Rounds = 3
	snap, err := e1.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	<-roundDone
	// Gate the next campaign open so the shutdown deterministically lands
	// inside round 2, then release the hook and close the engine mid-job.
	camps1.mu.Lock()
	camps1.gate = make(chan struct{})
	camps1.mu.Unlock()
	close(hold)
	waitHardenStatus(t, e1, snap.ID, func(s spec.Snapshot) bool { return len(s.Rounds) == 1 && s.CurrentCampaign != "" },
		"round 2's campaign to be in flight")
	e1.Close()
	assertNoGoroutineLeak(t, baseline)
	if models.gcs != 1 || models.registers != 1 {
		t.Fatalf("round 1 registered %d times with %d GCs, want 1/1 (ErrFull retry)", models.registers, models.gcs)
	}

	// The durable state must still say "running": a shutdown is not a
	// cancellation, and that distinction is what makes the job resumable.
	st, err := readState(filepath.Join(dir, snap.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshot.Status != spec.StatusRunning || len(st.Snapshot.Rounds) != 1 {
		t.Fatalf("durable state after shutdown: status %s rounds %d, want running/1", st.Snapshot.Status, len(st.Snapshot.Rounds))
	}
	if st.CraftFile == "" {
		t.Fatal("durable state lost the crafting snapshot name")
	}

	// Reopen on the same directory: the job requeues itself, re-runs the
	// interrupted campaign (rates continue at 0.6) and completes the budget.
	camps2 := newFakeCampaigns([]float64{0.6, 0.4, 0.2}, rows)
	loadLivesBefore := models.loadLives
	e2 := newTestEngine(t, dir, camps2, models, nil)
	defer e2.Close()
	final := waitHardenTerminal(t, e2, snap.ID)
	if final.Status != spec.StatusDone || final.StopReason != spec.StopRoundBudget {
		t.Fatalf("resumed job: status %s stop %q (%s), want done/round_budget", final.Status, final.StopReason, final.Error)
	}
	if !final.Resumed {
		t.Error("resumed job does not report Resumed")
	}
	if len(final.Rounds) != 3 {
		t.Fatalf("resumed job completed %d rounds, want 3", len(final.Rounds))
	}
	wantBefore := []float64{0.8, 0.6, 0.4}
	wantAfter := []float64{0.6, 0.4, 0.2}
	for i, r := range final.Rounds {
		if r.Round != i+1 || r.EvasionBefore != wantBefore[i] || r.EvasionAfter != wantAfter[i] || r.ReattackID == "" {
			t.Errorf("round %d: %+v, want before %v after %v with a re-attack id", i+1, r, wantBefore[i], wantAfter[i])
		}
		if r.RowsHarvested != rows.Rows {
			t.Errorf("round %d harvested %d rows, want %d", i+1, r.RowsHarvested, rows.Rows)
		}
		if r.TrainSeed != sp.Seed+uint64(i+1) {
			t.Errorf("round %d trained with seed %d, want %d", i+1, r.TrainSeed, sp.Seed+uint64(i+1))
		}
	}
	if want := []int{2, 3, 4}; len(final.Versions) != 3 || final.Versions[0] != want[0] || final.Versions[1] != want[1] || final.Versions[2] != want[2] {
		t.Errorf("promoted versions %v, want %v", final.Versions, want)
	}
	if final.EvasionRate != 0.2 {
		t.Errorf("final evasion rate %v, want 0.2", final.EvasionRate)
	}
	if models.loadLives != loadLivesBefore {
		t.Errorf("resume re-pinned the crafting model (%d extra LoadLive calls); it must reuse the persisted snapshot",
			models.loadLives-loadLivesBefore)
	}
	if _, err := os.Stat(filepath.Join(dir, snap.ID+"-craft.gob")); !os.IsNotExist(err) {
		t.Errorf("crafting snapshot survives the terminal job (err %v)", err)
	}
	if models.registers != 3 {
		t.Errorf("registered %d hardened versions, want 3", models.registers)
	}
}

// TestHardenUserCancelPersists: an operator cancel is terminal on disk too —
// the campaign in flight is cancelled, the job converges to cancelled, and a
// reopened engine lists it as history instead of resuming it.
func TestHardenUserCancelPersists(t *testing.T) {
	baseline := stableGoroutines(t)
	dir := t.TempDir()
	models := &fakeModels{live: 1}
	camps := newFakeCampaigns([]float64{0.8}, advRows(4))
	camps.gate = make(chan struct{}) // campaigns never complete on their own
	e := newTestEngine(t, dir, camps, models, nil)

	snap, err := e.Submit(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitHardenStatus(t, e, snap.ID, func(s spec.Snapshot) bool { return s.CurrentCampaign != "" },
		"the round's campaign to be in flight")
	if _, ok := e.Cancel(snap.ID); !ok {
		t.Fatal("Cancel did not find the job")
	}
	final := waitHardenTerminal(t, e, snap.ID)
	if final.Status != spec.StatusCancelled {
		t.Fatalf("status %s, want cancelled", final.Status)
	}
	if camps.cancels == 0 {
		t.Error("job cancel did not cancel its in-flight campaign")
	}
	e.Close()
	assertNoGoroutineLeak(t, baseline)

	// Reopened engine: the cancel survives as history, nothing resumes.
	camps2 := newFakeCampaigns([]float64{0.8}, nil)
	e2 := newTestEngine(t, dir, camps2, models, nil)
	defer e2.Close()
	got, ok := e2.Get(snap.ID)
	if !ok || got.Status != spec.StatusCancelled {
		t.Fatalf("after restart: ok=%v status=%v, want cancelled history", ok, got.Status)
	}
	time.Sleep(20 * time.Millisecond)
	if n := camps2.submitted(); n != 0 {
		t.Errorf("cancelled job resumed after restart (%d campaigns submitted)", n)
	}
	if _, err := os.Stat(filepath.Join(dir, snap.ID+"-craft.gob")); !os.IsNotExist(err) {
		t.Errorf("cancelled job's crafting snapshot still on disk (err %v)", err)
	}
	assertNoGoroutineLeak(t, baseline)
}

// TestHardenCancelMidRetrain: a cancel that lands while the round's
// retraining fit is running must abort at the next epoch boundary (the
// OnEpoch hook), converge to cancelled without registering anything, and
// leak no goroutines.
func TestHardenCancelMidRetrain(t *testing.T) {
	baseline := stableGoroutines(t)
	models := &fakeModels{live: 1}
	e := newTestEngine(t, t.TempDir(), newFakeCampaigns([]float64{0.9}, advRows(4)), models, nil)

	sp := validSpec()
	sp.Rounds = 2
	sp.Epochs = 100000 // far beyond what could finish before the cancel
	snap, err := e.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	// The campaign completes instantly; once it is counted, the worker is
	// heading into (or already inside) the retraining fit.
	waitHardenStatus(t, e, snap.ID, func(s spec.Snapshot) bool { return s.Campaigns >= 1 }, "the first campaign to land")
	if _, ok := e.Cancel(snap.ID); !ok {
		t.Fatal("Cancel did not find the job")
	}
	final := waitHardenTerminal(t, e, snap.ID)
	if final.Status != spec.StatusCancelled {
		t.Fatalf("status %s (%s), want cancelled mid-retrain", final.Status, final.Error)
	}
	if len(final.Rounds) != 0 || models.registers != 0 {
		t.Errorf("cancelled mid-retrain but recorded %d rounds, %d registrations", len(final.Rounds), models.registers)
	}
	e.Close()
	assertNoGoroutineLeak(t, baseline)
}

// TestHardenQueuedCancelAndEviction: cancelling a queued job finalizes it
// without running it, and MaxHistory eviction removes terminal jobs' files
// from disk.
func TestHardenQueuedCancelAndEviction(t *testing.T) {
	dir := t.TempDir()
	models := &fakeModels{live: 1}
	camps := newFakeCampaigns([]float64{0}, nil)
	camps.gate = make(chan struct{})
	e := newTestEngine(t, dir, camps, models, func(o *Options) {
		o.Workers = 1
		o.QueueDepth = 4
		o.MaxHistory = 2
	})
	defer e.Close()

	running, err := e.Submit(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitHardenStatus(t, e, running.ID, func(s spec.Snapshot) bool { return s.Status == spec.StatusRunning }, "first job to start")
	// The running job turns "running" before it submits its (gated)
	// campaign; wait for that submit so the count below is settled.
	for deadline := time.Now().Add(120 * time.Second); camps.submitted() < 1; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the running job's campaign")
		}
	}
	queued, err := e.Submit(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := e.Cancel(queued.ID); !ok || got.Status != spec.StatusCancelled {
		t.Fatalf("cancel queued job: ok=%v status=%v, want cancelled immediately", ok, got.Status)
	}
	if st, err := readState(filepath.Join(dir, queued.ID+".json")); err != nil || st.Snapshot.Status != spec.StatusCancelled {
		t.Fatalf("queued cancel not persisted: %v / %+v", err, st.Snapshot.Status)
	}
	if n := camps.submitted(); n != 1 {
		t.Errorf("cancelled-while-queued job submitted a campaign (%d submits)", n)
	}

	// Two more terminal jobs push history past MaxHistory=2: the oldest
	// terminal job (the cancelled one) must vanish from memory and disk.
	close(camps.gate)
	waitHardenTerminal(t, e, running.ID)
	third, err := e.Submit(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitHardenTerminal(t, e, third.ID)
	fourth, err := e.Submit(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitHardenTerminal(t, e, fourth.ID)
	if _, ok := e.Get(queued.ID); ok {
		t.Errorf("evicted job %s still answers Get", queued.ID)
	}
	if _, err := os.Stat(filepath.Join(dir, queued.ID+".json")); !os.IsNotExist(err) {
		t.Errorf("evicted job's state file still on disk (err %v)", err)
	}
	if len(e.List()) > 3 {
		t.Errorf("history holds %d jobs with MaxHistory 2 (+1 live)", len(e.List()))
	}
}

// TestHarvestEvasions: only evaded samples carrying rows are harvested, in
// population order, and a row-free campaign harvests nil.
func TestHarvestEvasions(t *testing.T) {
	camp := campaign.Snapshot{Results: []campaign.SampleResult{
		{Index: 0, Evaded: true, Adversarial: []float64{1, 0}},
		{Index: 1, Evaded: false, Adversarial: []float64{9, 9}},
		{Index: 2, Evaded: true}, // evaded but KeepRows was off for it
		{Index: 3, Evaded: true, Adversarial: []float64{0, 1}},
	}}
	m := HarvestEvasions(camp)
	if m == nil || m.Rows != 2 || m.Cols != 2 {
		t.Fatalf("harvested %+v, want 2×2", m)
	}
	if m.At(0, 0) != 1 || m.At(1, 1) != 1 {
		t.Errorf("harvested rows out of order: %v %v", m.Row(0), m.Row(1))
	}
	if HarvestEvasions(campaign.Snapshot{}) != nil {
		t.Error("empty campaign harvested a non-nil matrix")
	}
	// dataset.Generate-backed sanity: the fake rows in this file really are
	// corpus-width, or every retraining test above would be vacuous.
	c, err := dataset.Generate(dataset.TableIConfig(3).Scaled(600))
	if err != nil {
		t.Fatal(err)
	}
	if c.Train.X.Cols != featureWidth {
		t.Fatalf("corpus width %d, featureWidth const %d", c.Train.X.Cols, featureWidth)
	}
}

package store

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"malevade/internal/campaign/spec"
	"malevade/internal/wire"
)

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func sampleFixture(n int) []spec.SampleResult {
	out := make([]spec.SampleResult, n)
	for i := range out {
		out[i] = spec.SampleResult{
			Index:            i,
			Generation:       int64(1 + i%2),
			BaselineDetected: true,
			Evaded:           i%3 == 0,
			CraftEvaded:      i%3 == 0,
			L2:               float64(i) * 0.25,
			ModifiedFeatures: i % 7,
			Adversarial:      []float64{float64(i), 0.5, -1.25},
		}
	}
	return out
}

// TestCampaignRoundTrip: a streamed campaign reads back — and survives a
// clean close/reopen — bit-identically: same verdicts, same generations,
// same ordering.
func TestCampaignRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	sp := spec.Spec{Name: "rt", TargetModel: "victim", KeepRows: true}
	submitted := time.Now().UTC().Truncate(time.Microsecond)
	if err := s.CampaignStarted("c000001", sp, submitted); err != nil {
		t.Fatal(err)
	}
	results := sampleFixture(10)
	if err := s.CampaignSamples("c000001", results[:6]); err != nil {
		t.Fatal(err)
	}
	if err := s.CampaignSamples("c000001", results[6:]); err != nil {
		t.Fatal(err)
	}
	finished := submitted.Add(3 * time.Second)
	snap := spec.Snapshot{
		Status: spec.StatusDone, FinishedAt: finished, Generations: []int64{1, 2},
	}
	if err := s.CampaignFinished("c000001", snap); err != nil {
		t.Fatal(err)
	}

	check := func(s *Store, recovered bool) CampaignHistory {
		t.Helper()
		h, err := s.Campaign("c000001")
		if err != nil {
			t.Fatal(err)
		}
		if h.Status != spec.StatusDone || h.Error != "" {
			t.Fatalf("status %s error %q, want done", h.Status, h.Error)
		}
		if !reflect.DeepEqual(h.Samples, results) {
			t.Fatalf("samples not bit-identical:\n got %+v\nwant %+v", h.Samples, results)
		}
		if !reflect.DeepEqual(h.Generations, []int64{1, 2}) {
			t.Fatalf("generations %v, want [1 2]", h.Generations)
		}
		if h.Recovered != recovered {
			t.Fatalf("recovered = %v, want %v", h.Recovered, recovered)
		}
		if !h.SubmittedAt.Equal(submitted) || !h.FinishedAt.Equal(finished) {
			t.Fatalf("timestamps drifted: %v/%v", h.SubmittedAt, h.FinishedAt)
		}
		if h.Spec.Name != "rt" || h.Spec.TargetModel != "victim" {
			t.Fatalf("spec drifted: %+v", h.Spec)
		}
		return h
	}
	before := check(s, false)
	if s.Records() < int64(len(results)+2) {
		t.Fatalf("records counter %d, want >= %d", s.Records(), len(results)+2)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	defer s2.Close()
	after := check(s2, true)
	if !reflect.DeepEqual(before.Samples, after.Samples) {
		t.Fatal("restart changed stored samples")
	}
	if got := s2.MaxCampaignSeq(); got != 1 {
		t.Fatalf("MaxCampaignSeq = %d, want 1", got)
	}
	if sum := s2.Campaigns(); len(sum) != 1 || sum[0].Samples != len(results) {
		t.Fatalf("summary %+v, want 1 campaign with %d samples", sum, len(results))
	}
}

// TestRecoveryMarksInterrupted: a campaign whose daemon died mid-stream
// reopens failed/interrupted with every committed sample intact, and the
// interruption itself is durable (a third open needs no repair).
func TestRecoveryMarksInterrupted(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.CampaignStarted("c000007", spec.Spec{Name: "doomed"}, time.Now()); err != nil {
		t.Fatal(err)
	}
	results := sampleFixture(5)
	if err := s.CampaignSamples("c000007", results); err != nil {
		t.Fatal(err)
	}
	// Simulate the kill: close the store without CampaignFinished.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	h, err := s2.Campaign("c000007")
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != spec.StatusFailed || h.Error != interruptedError {
		t.Fatalf("recovered as %s %q, want failed %q", h.Status, h.Error, interruptedError)
	}
	if !h.Recovered {
		t.Fatal("recovered flag not set")
	}
	if !reflect.DeepEqual(h.Samples, results) {
		t.Fatalf("recovery lost samples:\n got %+v\nwant %+v", h.Samples, results)
	}
	if got := s2.MaxCampaignSeq(); got != 7 {
		t.Fatalf("MaxCampaignSeq = %d, want 7", got)
	}
	s2.Close()

	// The repair appended a durable terminal record: a third open sees the
	// same state without writing anything.
	s3 := mustOpen(t, dir)
	defer s3.Close()
	h3, err := s3.Campaign("c000007")
	if err != nil {
		t.Fatal(err)
	}
	if h3.Status != spec.StatusFailed || !reflect.DeepEqual(h3.Samples, results) {
		t.Fatalf("third open drifted: %s, %d samples", h3.Status, len(h3.Samples))
	}
}

// TestRecoveryTruncatesTornTail: a partial append (the crash artifact) is
// cut off on open; every record wholly written before it survives.
func TestRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.CampaignStarted("c000001", spec.Spec{}, time.Now()); err != nil {
		t.Fatal(err)
	}
	results := sampleFixture(4)
	if err := s.CampaignSamples("c000001", results); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the log: a record header promising more bytes than follow.
	path := campaignPath(dir, "c000001")
	torn, err := wire.AppendRecord(nil, appendSample(nil, spec.SampleResult{Index: 99}))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := mustOpen(t, dir)
	defer s2.Close()
	h, err := s2.Campaign("c000001")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h.Samples, results) {
		t.Fatalf("torn-tail recovery kept %d samples, want %d intact", len(h.Samples), len(results))
	}
	// The truncate is durable: the partial bytes are gone from disk.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ScanRecords(raw[wire.RecordLogHeaderLen:]); err != nil {
		t.Fatalf("log still damaged after recovery: %v", err)
	}
}

// TestCorruptCampaignRefusesOpen: damage inside the committed region is
// ErrRecordCorrupt, not a silent truncation.
func TestCorruptCampaignRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.CampaignStarted("c000001", spec.Spec{}, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := s.CampaignSamples("c000001", sampleFixture(3)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	path := campaignPath(dir, "c000001")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte near the end — inside the last sample's payload, so the
	// damage is a CRC mismatch on a fully committed record, not a torn tail.
	raw[len(raw)-5] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); !errors.Is(err, wire.ErrRecordCorrupt) {
		t.Fatalf("corrupt log opened with err=%v, want ErrRecordCorrupt", err)
	}
}

// TestCampaignFinishedAutoBegins: sealing an unknown campaign stores its
// meta from the snapshot first, so late-attached sinks still capture
// outcomes.
func TestCampaignFinishedAutoBegins(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	snap := spec.Snapshot{
		Spec:        spec.Spec{Name: "late"},
		Status:      spec.StatusCancelled,
		Error:       "cancelled",
		SubmittedAt: time.Now(),
		FinishedAt:  time.Now(),
	}
	if err := s.CampaignFinished("c000042", snap); err != nil {
		t.Fatal(err)
	}
	h, err := s.Campaign("c000042")
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != spec.StatusCancelled || h.Spec.Name != "late" {
		t.Fatalf("auto-begun campaign stored as %s/%q", h.Status, h.Spec.Name)
	}
}

func TestUnknownCampaignAndSample(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	if _, err := s.Campaign("c999999"); !errors.Is(err, ErrUnknownCampaign) {
		t.Fatalf("unknown campaign err = %v", err)
	}
	if err := s.CampaignStarted("c000001", spec.Spec{}, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := s.CampaignSamples("c000001", sampleFixture(2)); err != nil {
		t.Fatal(err)
	}
	if sr, err := s.Sample("c000001", 1); err != nil || sr.Index != 1 {
		t.Fatalf("Sample(1) = %+v, %v", sr, err)
	}
	if _, err := s.Sample("c000001", 5); err == nil {
		t.Fatal("missing sample index did not error")
	}
	if err := s.CampaignStarted("c000001", spec.Spec{}, time.Now()); err == nil {
		t.Fatal("duplicate CampaignStarted did not error")
	}
}

func trafficFixture(n int) []TrafficRow {
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	rows := make([]TrafficRow, n)
	for i := range rows {
		rows[i] = TrafficRow{
			Time:       base.Add(time.Duration(i) * time.Second),
			Endpoint:   "score",
			Model:      "victim",
			Generation: 1,
			Prob:       0.9,
			HasProb:    true,
			Class:      1,
			Row:        []float64{float64(i), 1, 2},
		}
	}
	return rows
}

// TestTrafficRoundTrip: recorded rows buffer in memory, flush on read, and
// survive a close/reopen cycle with torn tails repaired.
func TestTrafficRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	rows := trafficFixture(8)
	rows[3].Endpoint = "label"
	rows[3].HasProb = false
	rows[3].Prob = 0
	for _, row := range rows {
		if err := s.RecordTraffic(row); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.TrafficRecords(); got != 8 {
		t.Fatalf("TrafficRecords = %d (buffered rows must count)", got)
	}
	back, err := s.Traffic()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rows) {
		t.Fatalf("traffic round trip drifted:\n got %+v\nwant %+v", back, rows)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the traffic log tail; reopen repairs it.
	path := filepath.Join(dir, "traffic.mrl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0x00, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := mustOpen(t, dir)
	defer s2.Close()
	back2, err := s2.Traffic()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back2, rows) {
		t.Fatal("reopen after torn tail lost traffic rows")
	}
	if got := s2.TrafficRecords(); got != 8 {
		t.Fatalf("TrafficRecords after reopen = %d, want 8", got)
	}
	// Appends continue cleanly after the repair.
	extra := trafficFixture(1)[0]
	if err := s2.RecordTraffic(extra); err != nil {
		t.Fatal(err)
	}
	back3, err := s2.Traffic()
	if err != nil {
		t.Fatal(err)
	}
	if len(back3) != 9 || !reflect.DeepEqual(back3[8], extra) {
		t.Fatalf("append after repair: %d rows", len(back3))
	}
}

// TestTrafficFlushThreshold: the buffer hits disk once it crosses
// TrafficFlushBytes, without an explicit Flush.
func TestTrafficFlushThreshold(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, TrafficFlushBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := s.Records()
	if err := s.RecordTraffic(trafficFixture(1)[0]); err != nil {
		t.Fatal(err)
	}
	if s.Records() == before {
		t.Fatal("a 64-byte threshold should have flushed the first row")
	}
}

func waitMine(t *testing.T, m *Miner, id string) MineSnapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		snap, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Status.Terminal() {
			return snap
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("mine job %s never finished", id)
	return MineSnapshot{}
}

// TestMinerRanksPlantedEvasions is the acceptance sweep: traffic with
// planted low-confidence verdict flips mixed into confident background
// noise must surface every planted evasion, ranked above the noise.
func TestMinerRanksPlantedEvasions(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer s.Close()

	base := time.Date(2026, 8, 7, 9, 0, 0, 0, time.UTC)
	record := func(gen int64, prob float64, class int, row []float64) {
		t.Helper()
		err := s.RecordTraffic(TrafficRow{
			Time: base, Endpoint: "score", Model: "victim",
			Generation: gen, Prob: prob, HasProb: true, Class: class, Row: row,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Background: confidently clean and confidently malicious rows.
	for i := 0; i < 30; i++ {
		record(1, 0.02, 0, []float64{float64(i), 0, 0})
		record(1, 0.99, 1, []float64{float64(i), 1, 1})
	}
	// Planted evasions: clean verdicts hugging the boundary from below —
	// the defender-side shape of a successful evasion.
	planted := [][]float64{
		{100, 1, 0}, {101, 1, 0}, {102, 1, 0},
	}
	for i, row := range planted {
		record(1, 0.47-0.01*float64(i), 0, row)
	}
	// A generation-straddling verdict change: the strongest signal.
	flipRow := []float64{200, 2, 2}
	record(1, 0.48, 0, flipRow)
	record(2, 0.93, 1, flipRow)

	m := NewMiner(s, MinerOptions{})
	defer m.Close()
	sub, err := m.Submit(MineSpec{Name: "acceptance"})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitMine(t, m, sub.ID)
	if snap.Status != spec.StatusDone {
		t.Fatalf("sweep ended %s (%s)", snap.Status, snap.Error)
	}
	if snap.Swept != 65 {
		t.Fatalf("swept %d rows, want 65", snap.Swept)
	}
	if len(snap.Findings) != 4 {
		t.Fatalf("found %d suspects, want exactly the 4 planted", len(snap.Findings))
	}
	// The generation flip outranks everything (flip + low-confidence +
	// near-boundary stack), then the planted flips by closeness to 0.5.
	if got := snap.Findings[0].Row; !reflect.DeepEqual(got, flipRow) {
		t.Fatalf("rank 1 = %v, want the generation flip %v", got, flipRow)
	}
	found := map[float64]bool{}
	for i, f := range snap.Findings {
		if f.Rank != i+1 {
			t.Fatalf("finding %d has rank %d", i, f.Rank)
		}
		found[f.Row[0]] = true
	}
	for _, row := range planted {
		if !found[row[0]] {
			t.Fatalf("planted evasion %v not mined", row)
		}
	}
	if !hasSignal(snap.Findings[0], "generation_flip") {
		t.Fatalf("rank 1 signals %v missing generation_flip", snap.Findings[0].Signals)
	}
	for _, f := range snap.Findings[1:] {
		if !hasSignal(f, "low_confidence_clean") {
			t.Fatalf("planted finding %v missing low_confidence_clean (%v)", f.Row, f.Signals)
		}
	}

	// Determinism: a second sweep over the same store ranks identically.
	sub2, err := m.Submit(MineSpec{})
	if err != nil {
		t.Fatal(err)
	}
	snap2 := waitMine(t, m, sub2.ID)
	if !reflect.DeepEqual(stripTimes(snap.Findings), stripTimes(snap2.Findings)) {
		t.Fatal("two sweeps over identical traffic disagreed")
	}
}

func hasSignal(f Finding, sig string) bool {
	for _, s := range f.Signals {
		if s == sig {
			return true
		}
	}
	return false
}

func stripTimes(fs []Finding) []Finding {
	out := make([]Finding, len(fs))
	copy(out, fs)
	for i := range out {
		out[i].FirstSeen = time.Time{}
	}
	return out
}

// TestSweepModelFilterAndCap: MineSpec.Model restricts the sweep;
// MaxFindings truncates the ranked report.
func TestSweepModelFilterAndCap(t *testing.T) {
	rows := []TrafficRow{
		{Endpoint: "score", Model: "a", Generation: 1, Prob: 0.49, HasProb: true, Class: 0, Row: []float64{1}},
		{Endpoint: "score", Model: "b", Generation: 1, Prob: 0.48, HasProb: true, Class: 0, Row: []float64{2}},
		{Endpoint: "score", Model: "b", Generation: 1, Prob: 0.47, HasProb: true, Class: 0, Row: []float64{3}},
	}
	if got := SweepTraffic(rows, MineSpec{Model: "b", Band: 0.15}); len(got) != 2 {
		t.Fatalf("model filter kept %d findings, want 2", len(got))
	}
	if got := SweepTraffic(rows, MineSpec{Band: 0.15, MaxFindings: 1}); len(got) != 1 {
		t.Fatalf("cap kept %d findings, want 1", len(got))
	}
	// Rows without feature vectors cannot be harvested and are skipped.
	if got := SweepTraffic([]TrafficRow{{Endpoint: "score", Prob: 0.5, HasProb: true}}, MineSpec{}); len(got) != 0 {
		t.Fatalf("vectorless row produced %d findings", len(got))
	}
}

func TestMineSpecValidate(t *testing.T) {
	for _, sp := range []MineSpec{{Band: -0.1}, {Band: 0.6}, {Band: math.NaN()}, {MaxFindings: -1}} {
		if err := sp.Validate(); err == nil {
			t.Fatalf("spec %+v validated", sp)
		}
	}
	if err := (MineSpec{Band: 0.5}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMinerLifecycle(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	m := NewMiner(s, MinerOptions{})
	sub, err := m.Submit(MineSpec{})
	if err != nil {
		t.Fatal(err)
	}
	id := sub.ID
	waitMine(t, m, id)
	if _, err := m.Get("m999999"); !errors.Is(err, ErrUnknownMineJob) {
		t.Fatalf("unknown job err = %v", err)
	}
	if list := m.List(); len(list) != 1 || list[0].ID != id {
		t.Fatalf("List = %+v", list)
	}
	if m.Submitted() != 1 {
		t.Fatalf("Submitted = %d", m.Submitted())
	}
	// Cancelling a terminal job reports its status without flapping it.
	snap, err := m.Cancel(id)
	if err != nil || snap.Status != spec.StatusDone {
		t.Fatalf("Cancel(done) = %s, %v", snap.Status, err)
	}
	m.Close()
	if _, err := m.Submit(MineSpec{}); !errors.Is(err, ErrMinerClosed) {
		t.Fatalf("Submit after Close = %v", err)
	}
	m.Close() // idempotent
}

// TestMinerSubmitSnapshotQueued: the snapshot Submit returns is always
// queued, even when the sweep finishes before Submit returns.
func TestMinerSubmitSnapshotQueued(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	m := NewMiner(s, MinerOptions{QueueDepth: 256, MaxHistory: 256})
	defer m.Close()
	for i := 0; i < 200; i++ {
		snap, err := m.Submit(MineSpec{})
		if err != nil {
			t.Fatal(err)
		}
		if snap.Status != spec.StatusQueued {
			t.Fatalf("submit %d returned a %s snapshot, want queued", i, snap.Status)
		}
	}
}

// TestCodecRoundTrips: the binary payload codecs are bit-exact, including
// non-finite floats.
func TestCodecRoundTrips(t *testing.T) {
	srIn := spec.SampleResult{
		Index: 7, Generation: -3, BaselineDetected: true, CraftEvaded: true,
		L2: math.Inf(1), ModifiedFeatures: 12,
		Adversarial: []float64{0, math.SmallestNonzeroFloat64, -math.MaxFloat64},
	}
	srOut, err := decodeSample(appendSample(nil, srIn))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(srIn, srOut) {
		t.Fatalf("sample drifted: %+v vs %+v", srIn, srOut)
	}
	// No-adversarial samples must distinguish nil from empty.
	bare := spec.SampleResult{Index: 1}
	if out, err := decodeSample(appendSample(nil, bare)); err != nil || out.Adversarial != nil {
		t.Fatalf("bare sample: %+v, %v", out, err)
	}

	rowIn := TrafficRow{
		Time: time.Unix(0, 1754560000000000001).UTC(), Endpoint: "label",
		Model: "m", Generation: 9, Class: 1, Row: []float64{1.5},
	}
	payload, err := appendTraffic(nil, rowIn)
	if err != nil {
		t.Fatal(err)
	}
	rowOut, err := decodeTraffic(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rowIn, rowOut) {
		t.Fatalf("traffic drifted: %+v vs %+v", rowIn, rowOut)
	}
	if _, err := appendTraffic(nil, TrafficRow{Endpoint: "nope"}); err == nil {
		t.Fatal("bad endpoint encoded")
	}
}

// TestDecodeHostilePayloads: truncated and lying payloads decode into
// errors, never panics or giant allocations.
func TestDecodeHostilePayloads(t *testing.T) {
	good := appendSample(nil, sampleFixture(1)[0])
	for cut := 0; cut < len(good); cut++ {
		if _, err := decodeSample(good[:cut]); err == nil {
			t.Fatalf("sample truncated to %d bytes decoded", cut)
		}
	}
	tr, err := appendTraffic(nil, trafficFixture(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(tr); cut++ {
		if _, err := decodeTraffic(tr[:cut]); err == nil {
			t.Fatalf("traffic truncated to %d bytes decoded", cut)
		}
	}
	// A length field promising a 4 GiB vector must be rejected up front.
	lying := appendSample(nil, spec.SampleResult{Adversarial: []float64{1}})
	lying[len(lying)-12] = 0xFF // low byte of the u32 length
	lying[len(lying)-11] = 0xFF
	lying[len(lying)-10] = 0xFF
	lying[len(lying)-9] = 0xFF
	if _, err := decodeSample(lying[:len(lying)-8]); err == nil {
		t.Fatal("hostile vector length decoded")
	}
}

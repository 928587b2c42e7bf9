package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"malevade/internal/campaign"
	"malevade/internal/client"
	"malevade/internal/experiments"
	"malevade/internal/gateway"
	"malevade/internal/harden"
	"malevade/internal/obs"
	"malevade/internal/serve"
	"malevade/internal/server"
	"malevade/internal/tensor"
)

// system is one workload's deployment, set up and ready for load.
type system interface {
	// callers is how many closed-loop callers drive it.
	callers() int
	// op runs operation i of caller c and reports the rows it processed
	// and its latency. A wrong answer is an error.
	op(ctx context.Context, c, i int) (rows int, lat time.Duration, err error)
	// counters scrapes the daemons' /metrics, summed over replicas.
	counters(ctx context.Context) (map[string]float64, error)
	// layerMetrics derives the per-layer figures only the live system
	// gives, from counter deltas and what op recorded.
	layerMetrics(before, after map[string]float64) map[string]float64
	close()
}

// workload builds a system; expect holds the reference answers computed
// in process before any set-up is timed.
type workload struct {
	expect func(in *inputs) (any, error)
	setup  func(in *inputs, want any, dir string, tr *tracer) (system, error)
}

var workloads = map[string]workload{
	"frames": {expect: expectFrames, setup: setupFrames},
	"oracle": {expect: expectOracle, setup: setupOracle},
	"harden": {expect: func(*inputs) (any, error) { return nil, nil }, setup: setupHarden},
}

// scrape sums every sample of each metric family over the given daemons.
func scrape(ctx context.Context, urls ...string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, u := range urls {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		samples, err := obs.ParseText(raw)
		if err != nil {
			return nil, err
		}
		for _, s := range samples {
			out[s.Name] += s.Value
		}
	}
	return out, nil
}

// ratio is a/b, or 0 when nothing happened.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// --- frames: bulk scanning over the binary float32 path -------------------

type frameVerdicts struct {
	probs   []float64
	classes []int
}

// expectFrames scores every frame in process through the engine the
// daemon's binary path uses.
func expectFrames(in *inputs) (any, error) {
	sc := serve.New(in.net, 1, serve.Options{})
	defer sc.Close()
	var want []frameVerdicts
	for _, f := range in.frames {
		probs, classes, err := sc.Verdicts32(tensor.ToFloat32(f), serve.PrecisionFloat32)
		if err != nil {
			return nil, err
		}
		want = append(want, frameVerdicts{probs, classes})
	}
	return want, nil
}

type framesSystem struct {
	in      *inputs
	want    []frameVerdicts
	tr      *tracer
	srv     *server.Server
	ts      *httptest.Server
	clients []*client.Client
}

func setupFrames(in *inputs, want any, dir string, tr *tracer) (system, error) {
	path := filepath.Join(dir, "model.gob")
	if err := in.net.SaveFile(path); err != nil {
		return nil, err
	}
	srv, err := server.New(server.Options{ModelPath: path})
	if err != nil {
		return nil, err
	}
	s := &framesSystem{in: in, want: want.([]frameVerdicts), tr: tr, srv: srv}
	s.ts = httptest.NewServer(tr.wrap("server", "client", srv))
	for c := 0; c < 2; c++ {
		cl := client.New(s.ts.URL)
		cl.Codec = client.CodecBinary
		s.clients = append(s.clients, cl)
	}
	// First use compiles the float32 plan and opens the connections.
	for c := range s.clients {
		if _, _, err := s.op(context.Background(), c, 0); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func (s *framesSystem) callers() int { return len(s.clients) }

func (s *framesSystem) op(ctx context.Context, c, i int) (int, time.Duration, error) {
	k := (c*numFrames/2 + i) % numFrames
	frame := s.in.frames[k]
	start := time.Now()
	var got []client.Verdict
	err := s.tr.call(ctx, "/v1/score", func(ctx context.Context) error {
		var err error
		got, _, err = s.clients[c].Score(ctx, frame)
		return err
	})
	lat := time.Since(start)
	if err != nil {
		return 0, lat, err
	}
	want := s.want[k]
	if len(got) != len(want.classes) {
		return 0, lat, fmt.Errorf("frame %d: %d verdicts, want %d", k, len(got), len(want.classes))
	}
	for r, v := range got {
		if v.Prob != want.probs[r] || v.Class != want.classes[r] {
			return 0, lat, fmt.Errorf("frame %d row %d: verdict %+v, in process %v/%d", k, r, v, want.probs[r], want.classes[r])
		}
	}
	return frame.Rows, lat, nil
}

func (s *framesSystem) counters(ctx context.Context) (map[string]float64, error) {
	return scrape(ctx, s.ts.URL)
}

func (s *framesSystem) layerMetrics(before, after map[string]float64) map[string]float64 {
	return map[string]float64{"serve.batch_rows_mean": batchRowsMean(before, after)}
}

func (s *framesSystem) close() {
	s.ts.Close()
	s.srv.Close()
}

func batchRowsMean(before, after map[string]float64) float64 {
	return ratio(after["malevade_serve_batch_rows_sum"]-before["malevade_serve_batch_rows_sum"],
		after["malevade_serve_batch_rows_count"]-before["malevade_serve_batch_rows_count"])
}

// --- oracle: black-box label queries through the gateway ------------------

// recordEvery is the replicas' traffic sampling rate (serve -record 4).
const recordEvery = 4

// expectOracle labels every query with the in-process float64 network.
func expectOracle(in *inputs) (any, error) {
	var want [][]int
	for _, q := range in.queries {
		want = append(want, in.net.PredictClass(q))
	}
	return want, nil
}

type oracleSystem struct {
	in       *inputs
	want     [][]int
	tr       *tracer
	replicas []*server.Server
	rts      []*httptest.Server
	gw       *gateway.Gateway
	gts      *httptest.Server
	clients  []*client.Client
}

func setupOracle(in *inputs, want any, dir string, tr *tracer) (system, error) {
	path := filepath.Join(dir, "model.gob")
	if err := in.net.SaveFile(path); err != nil {
		return nil, err
	}
	s := &oracleSystem{in: in, want: want.([][]int), tr: tr}
	ctx := context.Background()
	var urls []string
	for r := 0; r < 2; r++ {
		srv, err := server.New(server.Options{
			ModelPath:     path,
			RegistryDir:   filepath.Join(dir, fmt.Sprintf("replica%d", r)),
			RecordTraffic: recordEvery,
		})
		if err != nil {
			s.close()
			return nil, err
		}
		s.replicas = append(s.replicas, srv)
		ts := httptest.NewServer(tr.wrap("server", "gateway", srv))
		s.rts = append(s.rts, ts)
		urls = append(urls, ts.URL)
		if _, err := client.New(ts.URL).RegisterModel(ctx, client.RegisterModelRequest{Name: oracleModel, Path: path}); err != nil {
			s.close()
			return nil, err
		}
	}
	gw, err := gateway.New(gateway.Options{Replicas: urls})
	if err != nil {
		s.close()
		return nil, err
	}
	s.gw = gw
	// One probe round marks both replicas up and learns their models.
	gw.Probe()
	s.gts = httptest.NewServer(tr.wrap("gateway", "client", gw))
	for c := 0; c < 2; c++ {
		s.clients = append(s.clients, client.New(s.gts.URL))
	}
	for c := range s.clients {
		if _, _, err := s.op(ctx, c, 0); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func (s *oracleSystem) callers() int { return len(s.clients) }

func (s *oracleSystem) op(ctx context.Context, c, i int) (int, time.Duration, error) {
	k := (c*numQueries/2 + i) % numQueries
	q := s.in.queries[k]
	start := time.Now()
	var got []int
	err := s.tr.call(ctx, "/v1/label", func(ctx context.Context) error {
		var err error
		got, err = s.clients[c].LabelModel(ctx, oracleModel, q)
		return err
	})
	lat := time.Since(start)
	if err != nil {
		return 0, lat, err
	}
	want := s.want[k]
	if len(got) != len(want) {
		return 0, lat, fmt.Errorf("query %d: %d labels, want %d", k, len(got), len(want))
	}
	for r := range got {
		if got[r] != want[r] {
			return 0, lat, fmt.Errorf("query %d row %d: label %d, in process %d", k, r, got[r], want[r])
		}
	}
	return q.Rows, lat, nil
}

func (s *oracleSystem) counters(ctx context.Context) (map[string]float64, error) {
	urls := make([]string, len(s.rts))
	for i, ts := range s.rts {
		urls[i] = ts.URL
	}
	return scrape(ctx, urls...)
}

func (s *oracleSystem) layerMetrics(before, after map[string]float64) map[string]float64 {
	reqs := after["malevade_scoring_requests_total"] - before["malevade_scoring_requests_total"]
	return map[string]float64{
		"serve.batch_rows_mean": batchRowsMean(before, after),
		"store.traffic_records_per_req": ratio(
			after["malevade_store_traffic_records"]-before["malevade_store_traffic_records"], reqs),
	}
}

func (s *oracleSystem) close() {
	if s.gts != nil {
		s.gts.Close()
	}
	if s.gw != nil {
		s.gw.Close()
	}
	for _, ts := range s.rts {
		ts.Close()
	}
	for _, srv := range s.replicas {
		srv.Close()
	}
}

// --- harden: the attack → adversarial-retraining loop ---------------------

// jobRecord is what one harden operation observed.
type jobRecord struct {
	job       harden.Snapshot
	campaigns []campaignTimes
}

type campaignTimes struct{ queue, run time.Duration }

// hardenHistory caps the campaigns the harden daemon keeps in memory. A
// long-lived daemon sits at its cap; a small one reaches that steady state
// within seconds, so peak RSS does not grow with the number of jobs a run
// happens to complete.
const hardenHistory = 16

type hardenSystem struct {
	in         *inputs
	tr         *tracer
	targetPath string
	srv        *server.Server
	ts         *httptest.Server
	cl         *client.Client
	jobs       []jobRecord
}

func setupHarden(in *inputs, _ any, dir string, tr *tracer) (system, error) {
	lab := experiments.NewLab(experiments.Small)
	target, err := lab.Target()
	lab.Close()
	if err != nil {
		return nil, err
	}
	s := &hardenSystem{in: in, tr: tr, targetPath: filepath.Join(dir, "target.gob")}
	if err := target.Net.SaveFile(s.targetPath); err != nil {
		return nil, err
	}
	s.srv, err = server.New(server.Options{
		ModelPath:   s.targetPath,
		RegistryDir: filepath.Join(dir, "registry"),
		Campaigns:   campaign.Options{MaxHistory: hardenHistory},
	})
	if err != nil {
		return nil, err
	}
	s.ts = httptest.NewServer(tr.wrap("server", "client", s.srv))
	s.cl = client.New(s.ts.URL)
	return s, nil
}

func (s *hardenSystem) callers() int { return 1 }

// op registers a fresh copy of the lab target, hardens it with one job and
// deletes it, so every job does identical work and the registry never
// fills. The latency is the job's, from submission to its terminal
// snapshot.
func (s *hardenSystem) op(ctx context.Context, _, i int) (int, time.Duration, error) {
	sp := s.in.hardenSpec
	sp.Model = fmt.Sprintf("target%06d", i)
	if err := s.tr.call(ctx, "/v1/models", func(ctx context.Context) error {
		_, err := s.cl.RegisterModel(ctx, client.RegisterModelRequest{Name: sp.Model, Path: s.targetPath})
		return err
	}); err != nil {
		return 0, 0, err
	}
	rows, lat, err := s.job(ctx, sp)
	if derr := s.tr.call(ctx, "/v1/models/"+sp.Model, func(ctx context.Context) error {
		return s.cl.DeleteModel(ctx, sp.Model)
	}); err == nil {
		err = derr
	}
	return rows, lat, err
}

// job runs one hardening job and checks it against the run's first job.
// Callers run one at a time, so jobs needs no lock.
func (s *hardenSystem) job(ctx context.Context, sp harden.Spec) (int, time.Duration, error) {
	start := time.Now()
	var snap harden.Snapshot
	err := s.tr.call(ctx, "/v1/harden", func(ctx context.Context) error {
		var err error
		snap, err = s.cl.SubmitHarden(ctx, sp)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	opts := client.HardenWaitOptions{Interval: 5 * time.Millisecond}
	err = s.tr.call(ctx, "/v1/harden/"+snap.ID, func(ctx context.Context) error {
		var err error
		snap, err = s.cl.WaitHarden(ctx, snap.ID, opts)
		return err
	})
	lat := time.Since(start)
	if err != nil {
		return 0, lat, err
	}
	if snap.Status != harden.StatusDone || snap.StopReason != harden.StopRoundBudget || len(snap.Rounds) != hardenRounds {
		return 0, lat, fmt.Errorf("job %s: status %s stop %q rounds %d: %s", snap.ID, snap.Status, snap.StopReason, len(snap.Rounds), snap.Error)
	}
	rec := jobRecord{job: snap}
	rows := 0
	for _, id := range []string{snap.Rounds[0].CampaignID, snap.Rounds[0].ReattackID} {
		// An offset past the population leaves the per-sample results out.
		camp, err := s.cl.CampaignSnapshot(ctx, id, 1<<30)
		if err != nil {
			return 0, lat, err
		}
		rows += camp.DoneSamples
		rec.campaigns = append(rec.campaigns, campaignTimes{
			queue: camp.StartedAt.Sub(camp.SubmittedAt),
			run:   camp.FinishedAt.Sub(camp.StartedAt),
		})
	}
	if len(s.jobs) > 0 {
		if err := sameOutcome(s.jobs[0].job, snap); err != nil {
			return 0, lat, err
		}
	}
	s.jobs = append(s.jobs, rec)
	return rows, lat, nil
}

// sameOutcome checks that a job reproduced the run's first job: identical
// work must give identical evasion rates and harvest.
func sameOutcome(ref, got harden.Snapshot) error {
	a, b := ref.Rounds[0], got.Rounds[0]
	if a.EvasionBefore != b.EvasionBefore || a.EvasionAfter != b.EvasionAfter ||
		a.RowsHarvested != b.RowsHarvested || a.Duplicates != b.Duplicates {
		return fmt.Errorf("job %s: evasion %v→%v harvested %d, first job %v→%v harvested %d",
			got.ID, b.EvasionBefore, b.EvasionAfter, b.RowsHarvested, a.EvasionBefore, a.EvasionAfter, a.RowsHarvested)
	}
	return nil
}

func (s *hardenSystem) counters(ctx context.Context) (map[string]float64, error) {
	return scrape(ctx, s.ts.URL)
}

func (s *hardenSystem) layerMetrics(before, after map[string]float64) map[string]float64 {
	m := map[string]float64{"serve.batch_rows_mean": batchRowsMean(before, after)}
	if len(s.jobs) == 0 {
		return m
	}
	var queue, run, self []float64
	for _, j := range s.jobs {
		jobTime := j.job.FinishedAt.Sub(j.job.SubmittedAt)
		for _, c := range j.campaigns {
			queue = append(queue, c.queue.Seconds())
			run = append(run, c.run.Seconds())
			jobTime -= c.queue + c.run
		}
		self = append(self, jobTime.Seconds())
	}
	r := s.jobs[0].job.Rounds[0]
	m["campaign.queue_s"] = mean(queue)
	m["campaign.run_s"] = mean(run)
	m["harden.self_s"] = mean(self)
	m["attack.evasion_before"] = r.EvasionBefore
	m["attack.evasion_after"] = r.EvasionAfter
	m["harden.rows_harvested"] = float64(r.RowsHarvested)
	return m
}

func (s *hardenSystem) close() {
	s.ts.Close()
	s.srv.Close()
}

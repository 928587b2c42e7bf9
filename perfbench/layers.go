package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"malevade/internal/attack"
	cspec "malevade/internal/campaign/spec"
	"malevade/internal/dataset"
	"malevade/internal/defense"
	"malevade/internal/experiments"
	"malevade/internal/harden"
	"malevade/internal/obs"
	"malevade/internal/registry"
	"malevade/internal/serve"
	"malevade/internal/server"
	"malevade/internal/store"
	"malevade/internal/tensor"
	"malevade/internal/wire"
)

// callBudget is how long each direct-call timing samples for.
const callBudget = 150 * time.Millisecond

// timeCalls runs fn in samples of n calls until budget is spent (at least
// minSamples samples) and returns the median time of one call.
func timeCalls(budget time.Duration, minSamples, n int, fn func() error) (time.Duration, error) {
	var samples []float64
	deadline := time.Now().Add(budget)
	for len(samples) < minSamples || time.Now().Before(deadline) {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		samples = append(samples, float64(time.Since(start))/float64(n))
	}
	return time.Duration(median(samples)), nil
}

// layerTimer times direct calls into each layer's public functions with
// the run's own inputs, outside any daemon.
type layerTimer struct {
	in  *inputs
	dir string
	out map[string]float64
	err error
}

// measure records one metric, in its unit, unless an earlier timing
// failed.
func (l *layerTimer) measure(name string, minSamples, n int, fn func() error) {
	if l.err != nil {
		return
	}
	d, err := timeCalls(callBudget, minSamples, n, fn)
	if err != nil {
		l.err = fmt.Errorf("%s: %w", name, err)
		return
	}
	l.out[name] = inUnit(d, perLayerUnits[name])
}

// cycle returns a call that steps through n inputs, one per call.
func cycle(n int, fn func(k int) error) func() error {
	k := 0
	return func() error {
		err := fn(k % n)
		k++
		return err
	}
}

func measureLayers(in *inputs, dir string) (map[string]float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &layerTimer{in: in, dir: dir, out: map[string]float64{}}
	l.scoring()
	l.hardening()
	return l.out, l.err
}

// scoring times the serving stack bottom up: kernels, compiled plan and
// network, engine, wire codec, handler (no TCP), middleware, registry pin
// and traffic recording.
func (l *layerTimer) scoring() {
	in := l.in
	frames32 := make([]*tensor.Matrix32, len(in.frames))
	for i, f := range in.frames {
		frames32[i] = tensor.ToFloat32(f)
	}
	w64 := in.net.Params()[0].Value // first dense layer, 491×512
	w32 := tensor.ToFloat32(w64)
	dst32 := tensor.New32(frameRows, w32.Cols)
	l.measure("tensor.matmul_f32_us", 5, 1, cycle(len(frames32), func(k int) error {
		tensor.MatMulF32(dst32, frames32[k], w32)
		return nil
	}))
	plan, err := in.net.CompileF32()
	if err != nil {
		l.err = err
		return
	}
	l.measure("nn.plan32_logits_us", 5, 1, cycle(len(frames32), func(k int) error {
		plan.Logits(frames32[k])
		return nil
	}))
	sc := serve.New(in.net, 1, serve.Options{})
	defer sc.Close()
	if err := sc.EnsurePlan(serve.PrecisionFloat32); err != nil {
		l.err = err
		return
	}
	l.measure("serve.verdicts32_us", 5, 1, cycle(len(frames32), func(k int) error {
		_, _, err := sc.Verdicts32(frames32[k], serve.PrecisionFloat32)
		return err
	}))
	var buf []byte
	l.measure("wire.frame_roundtrip_us", 5, 1, cycle(len(frames32), func(k int) error {
		var err error
		f := frames32[k]
		if buf, err = wire.AppendFrame(buf[:0], "", f.Rows, f.Cols, f.Data); err != nil {
			return err
		}
		parsed, err := wire.ParseFrame(buf)
		if err != nil {
			return err
		}
		parsed.Values()
		return nil
	}))

	// Oracle-sized float64 work: one call per query, cycling the list so
	// the samples together cover half the queries.
	nq := len(in.queries)
	const qSamples, qPerSample = 4, numQueries / 8
	l.measure("tensor.matmul_f64_us", qSamples, qPerSample, cycle(nq, func(k int) error {
		q := in.queries[k]
		tensor.MatMul(tensor.New(q.Rows, w64.Cols), q, w64)
		return nil
	}))
	l.measure("nn.network_logits_us", qSamples, qPerSample, cycle(nq, func(k int) error {
		in.net.Logits(in.queries[k])
		return nil
	}))
	l.measure("serve.logits_us", qSamples, qPerSample, cycle(nq, func(k int) error {
		sc.Logits(in.queries[k])
		return nil
	}))

	path := filepath.Join(l.dir, "model.gob")
	if err := in.net.SaveFile(path); err != nil {
		l.err = err
		return
	}
	srv, err := server.New(server.Options{ModelPath: path, RegistryDir: filepath.Join(l.dir, "registry")})
	if err != nil {
		l.err = err
		return
	}
	defer srv.Close()
	if _, err := srv.Registry().Register(registry.RegisterRequest{Name: oracleModel, Path: path}); err != nil {
		l.err = err
		return
	}
	frameBodies := make([][]byte, len(frames32))
	for i, f := range frames32 {
		if frameBodies[i], err = wire.AppendFrame(nil, "", f.Rows, f.Cols, f.Data); err != nil {
			l.err = err
			return
		}
	}
	l.measure("server.score_frame_us", 5, 1, cycle(len(frameBodies), func(k int) error {
		return serveOnce(srv, "/v1/score", wire.ContentTypeRowsF32, frameBodies[k])
	}))
	defaultBodies, namedBodies := make([][]byte, nq), make([][]byte, nq)
	for i, q := range in.queries {
		rows := make([][]float64, q.Rows)
		for r := range rows {
			rows[r] = q.Row(r)
		}
		if defaultBodies[i], err = json.Marshal(map[string]any{"rows": rows}); err != nil {
			l.err = err
			return
		}
		if namedBodies[i], err = json.Marshal(map[string]any{"model": oracleModel, "rows": rows}); err != nil {
			l.err = err
			return
		}
	}
	l.measure("server.label_json_default_us", qSamples, qPerSample, cycle(nq, func(k int) error {
		return serveOnce(srv, "/v1/label", wire.ContentTypeJSON, defaultBodies[k])
	}))
	l.measure("server.label_json_named_us", qSamples, qPerSample, cycle(nq, func(k int) error {
		return serveOnce(srv, "/v1/label", wire.ContentTypeJSON, namedBodies[k])
	}))

	// Middleware cost: an instrumented no-op handler minus a bare one.
	noop := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	wrapped := obs.NewHTTP(obs.NewRegistry(), nil, nil).Wrap(noop)
	req := httptest.NewRequest(http.MethodPost, "/v1/label", nil)
	serveNoop := func(h http.Handler) func() error {
		return func() error {
			h.ServeHTTP(httptest.NewRecorder(), req)
			return nil
		}
	}
	// A no-op handler never fails, so neither timing can.
	bare, _ := timeCalls(callBudget, 5, 1000, serveNoop(noop))
	instrumented, _ := timeCalls(callBudget, 5, 1000, serveNoop(wrapped))
	l.out["obs.middleware_us"] = inUnit(instrumented-bare, "us")

	reg := srv.Registry()
	l.measure("registry.acquire_us", 5, 1000, func() error {
		inst, err := reg.Acquire(oracleModel)
		if err != nil {
			return err
		}
		inst.Release()
		return nil
	})

	st, err := store.Open(store.Options{Dir: filepath.Join(l.dir, "store")})
	if err != nil {
		l.err = err
		return
	}
	defer st.Close()
	now := time.Now()
	l.measure("store.record_traffic_us", qSamples, qPerSample, cycle(nq, func(k int) error {
		q := in.queries[k]
		return st.RecordTraffic(store.TrafficRow{
			Time: now, Endpoint: "label", Model: oracleModel, Generation: 1,
			Class: k % 2, Row: q.Row(0),
		})
	}))
}

// hardening times the pieces one hardening round is built from: the JSMA
// attack on the profile population, corpus regeneration, adversarial
// retraining, registering and promoting a version, and appending campaign
// results to the store.
func (l *layerTimer) hardening() {
	if l.err != nil {
		return
	}
	p := experiments.Small
	lab := experiments.NewLab(p)
	target, err := lab.Target()
	lab.Close()
	if err != nil {
		l.err = err
		return
	}
	pop, err := experiments.MalwarePopulation(p)
	if err != nil {
		l.err = err
		return
	}
	sp := l.in.hardenSpec
	atk, err := sp.Attack.Build(target.Net, nil)
	if err != nil {
		l.err = err
		return
	}
	var results []attack.Result
	l.measure("attack.jsma_run_ms", 3, 1, func() error {
		results = atk.Run(pop.X)
		return nil
	})
	var base *dataset.Dataset
	l.measure("dataset.generate_ms", 3, 1, func() error {
		c, err := dataset.Generate(dataset.TableIConfig(p.Seed).Scaled(p.ScaleDivisor))
		base = c.Train
		return err
	})
	if l.err != nil {
		return
	}
	var evaded []attack.Result
	for _, r := range results {
		if r.Evaded {
			evaded = append(evaded, r)
		}
	}
	adv := attack.AdvMatrix(evaded)
	cfg := harden.RoundTrainConfig(sp, p, 1)
	l.measure("defense.adv_training_ms", 3, 1, func() error {
		sets, err := defense.BuildAdvTrainingSet(base, adv)
		if err != nil {
			return err
		}
		_, err = defense.AdversarialTraining(sets, cfg)
		return err
	})

	path := filepath.Join(l.dir, "target.gob")
	if err := target.Net.SaveFile(path); err != nil {
		l.err = err
		return
	}
	reg, err := registry.Open(registry.Options{Dir: filepath.Join(l.dir, "registry-rp")})
	if err != nil {
		l.err = err
		return
	}
	defer reg.Close()
	registered := 0
	l.measure("registry.register_promote_ms", 5, 1, func() error {
		// Stay under the version cap with untimed GCs: the harden loop
		// pays a GC only when a model's history is full.
		if registered > 0 && registered%16 == 0 {
			if _, _, err := reg.GC("rp"); err != nil {
				return err
			}
		}
		registered++
		_, err := reg.Register(registry.RegisterRequest{Name: "rp", Path: path, Promote: true})
		return err
	})

	st, err := store.Open(store.Options{Dir: filepath.Join(l.dir, "store-campaign")})
	if err != nil {
		l.err = err
		return
	}
	defer st.Close()
	if err := st.CampaignStarted("c000001", sp.CampaignSpec(path), time.Now()); err != nil {
		l.err = err
		return
	}
	batch := make([]cspec.SampleResult, 0, 16)
	for i, r := range results[:min(16, len(results))] {
		batch = append(batch, cspec.SampleResult{
			Index: i, Generation: 1, BaselineDetected: true, Evaded: r.Evaded,
			CraftEvaded: r.Evaded, L2: r.L2, ModifiedFeatures: len(r.ModifiedFeatures),
			Adversarial: r.Adversarial,
		})
	}
	l.measure("store.campaign_append_us", 5, 1, func() error {
		return st.CampaignSamples("c000001", batch)
	})
}

// serveOnce sends one request through the daemon's handler into a
// recorder, without TCP.
func serveOnce(h http.Handler, path, contentType string, body []byte) error {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	return nil
}

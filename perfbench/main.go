// Command perfbench is malevade's benchmark. It runs one workload as a
// closed loop from this process against daemons it starts on loopback,
// checks every answer, and prints one JSON result line.
//
//	perfbench --workload frames|oracle|harden --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics BENCHMARK.json lists;
// with --trace 1 it runs the workload once untraced and once with spans
// recorded at every handler it mounts, times direct calls into each layer,
// and reports the per-layer metrics plus the tracing overhead.
//
// The workloads, and the figure of each legacy BENCH_*.json file they
// measure again:
//
//   - frames: two SDK clients send 256-row float32 frames to one daemon's
//     default model (BENCH_wire.json and BENCH_client.json binary path;
//     serve.verdicts32_us re-measures BENCH_infer.json).
//   - oracle: two SDK clients send 1–16-row JSON label requests for a
//     named registry model through the gateway to two replicas that record
//     1 in 4 rows (BENCH_client.json JSON path; obs.middleware_us
//     re-measures BENCH_obs.json).
//   - harden: one client registers a fresh copy of the Small-profile lab
//     target, runs one /v1/harden job on it and deletes it
//     (store.campaign_append_us re-measures BENCH_store.json's append).
//
// On harden one request is one hardening job, timed from submission to
// its terminal snapshot.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// setupRuns is how many times a run sets its workload up; setup_s is the
// median.
const setupRuns = 11

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// workDir holds daemon state and span dumps; root is the checkout the
	// fingerprint digests.
	workDir, root string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: frames, oracle or harden")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "seconds of measured load")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement")
	flag.StringVar(&cfg.workDir, "work", ".bench_build", "directory for daemon state and spans")
	flag.Parse()
	cfg.trace = trace == 1
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.root = root
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		os.Exit(1)
	}
}

// phase is one measured closed loop.
type phase struct {
	start     time.Time
	done      []completion
	attempted int
	failed    int
	firstErr  error
	peakRSSMB float64
}

// completion is one successful operation: when it returned, the rows it
// did and its latency.
type completion struct {
	at   time.Time
	rows int
	lat  time.Duration
}

// maxGroups is how many consecutive groups of completions a figure's
// median is taken over, so a short stall of the host moves one group
// rather than the whole figure.
const maxGroups = 10

// groups splits the completions, in the order they returned, into at most
// maxGroups consecutive groups of at least minPer each (one group when
// there are fewer).
func (p phase) groups(minPer int) [][]completion {
	done := append([]completion(nil), p.done...)
	if len(done) == 0 {
		return nil
	}
	sort.Slice(done, func(i, j int) bool { return done[i].at.Before(done[j].at) })
	n := max(1, min(maxGroups, len(done)/minPer))
	out := make([][]completion, n)
	for g := range out {
		out[g] = done[g*len(done)/n : (g+1)*len(done)/n]
	}
	return out
}

// rowsPerSec is the median throughput over the groups.
func (p phase) rowsPerSec() float64 {
	var rates []float64
	prev := p.start
	for _, grp := range p.groups(2) {
		rows := 0
		for _, c := range grp {
			rows += c.rows
		}
		at := grp[len(grp)-1].at
		if d := at.Sub(prev).Seconds(); d > 0 {
			rates = append(rates, float64(rows)/d)
		}
		prev = at
	}
	return median(rates)
}

// latQuantile is the median over the groups of each group's q-quantile
// latency, with groups large enough that ten samples lie beyond q.
func (p phase) latQuantile(q float64, unit string) float64 {
	var qs []float64
	for _, grp := range p.groups(int(math.Ceil(10 / (1 - q)))) {
		lat := make([]float64, len(grp))
		for i, c := range grp {
			lat[i] = inUnit(c.lat, unit)
		}
		qs = append(qs, quantile(lat, q))
	}
	return median(qs)
}

// drive runs the system's callers as closed loops for d: each caller sends
// its next operation only after the previous one returned.
func drive(ctx context.Context, sys system, d time.Duration) phase {
	type callerResult struct {
		attempted, failed int
		done              []completion
		err               error
	}
	results := make([]callerResult, sys.callers())
	resetPeakRSS()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &results[c]
			for i := 0; time.Now().Before(deadline); i++ {
				r.attempted++
				rows, lat, err := sys.op(ctx, c, i)
				if err != nil {
					r.failed++
					if r.err == nil {
						r.err = err
					}
					continue
				}
				r.done = append(r.done, completion{time.Now(), rows, lat})
			}
		}()
	}
	wg.Wait()
	p := phase{start: start, peakRSSMB: peakRSSMB()}
	for _, r := range results {
		p.done = append(p.done, r.done...)
		p.attempted += r.attempted
		p.failed += r.failed
		if p.firstErr == nil {
			p.firstErr = r.err
		}
	}
	return p
}

// line prints one JSON object on its own line.
func line(w io.Writer, v any) {
	b, _ := json.Marshal(v)
	fmt.Fprintf(w, "%s\n", b)
}

func run(cfg config, stdout io.Writer) (*result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (frames, oracle or harden)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	in, err := newInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	line(stdout, map[string]any{"workload": cfg.workload, "seed": cfg.seed, "inputs_sha256": in.digest(cfg.workload)})
	want, err := w.expect(in)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	dur := time.Duration(cfg.seconds * float64(time.Second))
	ctx := context.Background()
	cpu0, _ := readCPUTimes()

	var res *result
	var phases []phase
	if !cfg.trace {
		res, phases, err = runEndToEnd(ctx, w, in, want, dir, dur)
	} else {
		res, phases, err = runTraced(ctx, cfg, w, in, want, dir, dur)
	}
	if err != nil {
		return nil, err
	}
	cpu1, _ := readCPUTimes()
	succeeded, samples := 0, 0
	for _, p := range phases {
		res.Attempted += p.attempted
		res.Failed += p.failed
		succeeded += p.attempted - p.failed
		samples += len(p.done)
		if p.firstErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: first failure:", p.firstErr)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	line(stdout, map[string]any{"host": hostFingerprint(cfg.root), "steal_pct": stealShare(cpu0, cpu1)})
	line(stdout, map[string]any{"attempted": res.Attempted, "succeeded": succeeded, "failed": res.Failed, "latency_samples": samples})
	return res, nil
}

// setupOnce sets the workload up in a fresh directory and reports how long
// it took.
func setupOnce(w workload, in *inputs, want any, dir string, tr *tracer) (system, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	sys, err := w.setup(in, want, dir, tr)
	return sys, time.Since(start), err
}

func runEndToEnd(ctx context.Context, w workload, in *inputs, want any, dir string, dur time.Duration) (*result, []phase, error) {
	var setups []float64
	var sys system
	for k := 0; k < setupRuns; k++ {
		if sys != nil {
			sys.close()
		}
		var d time.Duration
		var err error
		sys, d, err = setupOnce(w, in, want, filepath.Join(dir, fmt.Sprintf("setup%d", k)), nil)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	p := drive(ctx, sys, dur)
	sys.close()
	res := &result{Metrics: map[string]metric{
		"setup_s":     {median(setups), "s"},
		"rows_per_s":  {p.rowsPerSec(), "rows/s"},
		"req_p50_ms":  {p.latQuantile(0.5, "ms"), "ms"},
		"req_p90_ms":  {p.latQuantile(0.9, "ms"), "ms"},
		"peak_rss_mb": {p.peakRSSMB, "MiB"},
	}}
	return res, []phase{p}, nil
}

// perLayerUnits lists every per-layer metric with its unit. A layer the
// workload does not cross reports 0.
var perLayerUnits = map[string]string{
	"tensor.matmul_f32_us":          "us",
	"nn.plan32_logits_us":           "us",
	"serve.verdicts32_us":           "us",
	"wire.frame_roundtrip_us":       "us",
	"server.score_frame_us":         "us",
	"tensor.matmul_f64_us":          "us",
	"nn.network_logits_us":          "us",
	"serve.logits_us":               "us",
	"serve.batch_rows_mean":         "rows",
	"server.label_json_default_us":  "us",
	"server.label_json_named_us":    "us",
	"obs.middleware_us":             "us",
	"registry.acquire_us":           "us",
	"store.record_traffic_us":       "us",
	"gateway.self_ms":               "ms",
	"client.self_ms":                "ms",
	"server.span_ms":                "ms",
	"gateway.retries":               "count",
	"campaign.queue_s":              "s",
	"campaign.run_s":                "s",
	"attack.jsma_run_ms":            "ms",
	"dataset.generate_ms":           "ms",
	"defense.adv_training_ms":       "ms",
	"registry.register_promote_ms":  "ms",
	"store.campaign_append_us":      "us",
	"harden.self_s":                 "s",
	"attack.evasion_before":         "ratio",
	"attack.evasion_after":          "ratio",
	"harden.rows_harvested":         "rows",
	"wire.req_bytes":                "bytes",
	"wire.resp_bytes":               "bytes",
	"store.traffic_records_per_req": "records",
	"trace.overhead_pct":            "%",
	"host.steal_pct":                "%",
}

// runTraced splits the measured time between an untraced and a traced
// phase, so the overhead figure compares equal lengths of the same load.
func runTraced(ctx context.Context, cfg config, w workload, in *inputs, want any, dir string, dur time.Duration) (*result, []phase, error) {
	dur /= 2
	sys, _, err := setupOnce(w, in, want, filepath.Join(dir, "plain"), nil)
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	plain := drive(ctx, sys, dur)
	sys.close()

	tr := newTracer(fmt.Sprintf("%s-%d", cfg.workload, cfg.seed))
	if sys, _, err = setupOnce(w, in, want, filepath.Join(dir, "traced"), tr); err != nil {
		return nil, nil, fmt.Errorf("traced setup: %w", err)
	}
	before, err := sys.counters(ctx)
	if err != nil {
		sys.close()
		return nil, nil, err
	}
	cpu0, _ := readCPUTimes()
	traced := drive(ctx, sys, dur)
	cpu1, _ := readCPUTimes()
	after, err := sys.counters(ctx)
	live := sys.layerMetrics(before, after)
	sys.close()
	if err != nil {
		return nil, nil, err
	}
	if err := tr.write(traceFile(cfg.workDir, cfg.workload, cfg.seed)); err != nil {
		return nil, nil, err
	}

	direct, err := measureLayers(in, filepath.Join(dir, "layers"))
	if err != nil {
		return nil, nil, fmt.Errorf("layer timings: %w", err)
	}
	st := tr.analyze()
	values := map[string]float64{
		"gateway.self_ms":    st.gatewaySelfMS,
		"client.self_ms":     st.clientSelfMS,
		"server.span_ms":     st.serverSpanMS,
		"gateway.retries":    float64(st.retries),
		"wire.req_bytes":     st.reqBytes,
		"wire.resp_bytes":    st.respBytes,
		"trace.overhead_pct": 100 * (ratio(traced.latQuantile(0.5, "ms"), plain.latQuantile(0.5, "ms")) - 1),
		"host.steal_pct":     stealShare(cpu0, cpu1),
	}
	for _, m := range []map[string]float64{live, direct} {
		for k, v := range m {
			values[k] = v
		}
	}
	res := &result{Metrics: map[string]metric{}}
	names := make([]string, 0, len(perLayerUnits))
	for name := range perLayerUnits {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res.Metrics[name] = metric{values[name], perLayerUnits[name]}
	}
	for k := range values {
		if _, ok := perLayerUnits[k]; !ok {
			return nil, nil, fmt.Errorf("metric %s has no unit", k)
		}
	}
	return res, []phase{plain, traced}, nil
}

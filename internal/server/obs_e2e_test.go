package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"malevade/internal/obs"
	"malevade/internal/registry"
)

// scrape GETs /metrics through the full middleware-wrapped handler and
// returns the parsed samples plus the raw exposition text.
func scrape(t *testing.T, s *Server) (map[string]float64, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("Content-Type"); got != obs.ContentType {
		t.Fatalf("GET /metrics Content-Type %q, want %q", got, obs.ContentType)
	}
	raw := w.Body.Bytes()
	samples, err := obs.ParseText(raw)
	if err != nil {
		t.Fatalf("parsing scrape: %v", err)
	}
	// Unlabeled metrics only — labeled series would collide on name, and
	// the parity assertions below are all against unlabeled families.
	out := make(map[string]float64)
	for _, s := range samples {
		if len(s.Labels) == 0 {
			out[s.Name] = s.Value
		}
	}
	return out, raw
}

// TestE2EMetricsStatsParity drives traffic through a registry-backed
// daemon, then checks GET /metrics field-for-field against /v1/stats:
// the tentpole contract is that the JSON view is a rendering of the same
// sources the exposition reads, so the two can never disagree at
// quiescence. The scrape must also be lint-clean under the same checker
// tools/metriclint ships.
func TestE2EMetricsStatsParity(t *testing.T) {
	dir := t.TempDir()
	s, _ := newTestServer(t, Options{RegistryDir: dir + "/registry"})

	// Served traffic, a rejection, and a reload: each bumps a distinct
	// counter pair that parity below must reconcile.
	for i := 0; i < 3; i++ {
		w := postJSON(t, s, "/v1/score", `{"rows":[[0.1,0.2,0.3],[1,0,1]]}`)
		if w.Code != http.StatusOK {
			t.Fatalf("score: status %d: %s", w.Code, w.Body.String())
		}
		if id := w.Header().Get(obs.RequestIDHeader); id == "" {
			t.Fatal("score response carries no request ID header")
		}
	}
	if w := postJSON(t, s, "/v1/score", `{"rows":[[1]]}`); w.Code != http.StatusBadRequest {
		t.Fatalf("short row: status %d, want 400", w.Code)
	}
	if _, err := s.Reload(""); err != nil {
		t.Fatal(err)
	}

	stats := getStats(t, s)
	metrics, raw := scrape(t, s)

	parity := []struct {
		metric string
		want   int64
	}{
		{"malevade_scoring_requests_total", stats.Requests},
		{"malevade_scoring_rejected_total", stats.Rejected},
		{"malevade_reloads_total", stats.Reloads},
		{"malevade_serve_batches_total", stats.Batches},
		{"malevade_serve_rows_total", stats.Rows},
		{"malevade_campaigns_submitted_total", stats.Campaigns},
		{"malevade_harden_submitted_total", stats.HardenJobs},
		{"malevade_store_records_total", stats.ResultsRecords},
		{"malevade_store_bytes", stats.ResultsBytes},
		{"malevade_mine_submitted_total", stats.MineJobs},
		{"malevade_model_generation", stats.ModelVersion},
	}
	for _, p := range parity {
		got, ok := metrics[p.metric]
		if !ok {
			t.Errorf("scrape is missing %s", p.metric)
			continue
		}
		if int64(got) != p.want {
			t.Errorf("%s = %v, /v1/stats says %d", p.metric, got, p.want)
		}
	}
	if stats.Requests != 3 || stats.Rejected != 1 || stats.Reloads != 1 {
		t.Errorf("stats = %+v, want requests 3, rejected 1, reloads 1", stats)
	}

	// The HTTP middleware's own families must be present and labeled by
	// normalized endpoint, and the whole exposition lint-clean.
	text := string(raw)
	if !strings.Contains(text, `malevade_http_requests_total{endpoint="/v1/score",code="2xx"}`) {
		t.Errorf("scrape lacks the per-endpoint request counter:\n%s", text)
	}
	if !strings.Contains(text, "malevade_serve_precision_rows_total") {
		t.Errorf("scrape lacks the per-precision row counter:\n%s", text)
	}
	if problems := obs.Lint(raw); len(problems) != 0 {
		t.Errorf("scrape lint: %v", problems)
	}

	// Rows scored through a named registry model reach both views: a
	// model-addressed JSON label and a model-addressed binary frame each
	// advance malevade_serve_rows_total and /v1/stats rows by their rows.
	altPath, _ := saveTestNet(t, dir, "alt.gob", []int{3, 10, 2}, 23)
	if _, err := s.Registry().Register(registry.RegisterRequest{Name: "alt", Path: altPath}); err != nil {
		t.Fatal(err)
	}
	f32, _ := frameRows(4, 3)
	for _, tc := range []struct {
		name string
		post func() *httptest.ResponseRecorder
		rows int64
	}{
		{"json label", func() *httptest.ResponseRecorder {
			return postJSON(t, s, "/v1/label", `{"model":"alt","rows":[[0.1,0.2,0.3],[1,0,1],[0,1,0]]}`)
		}, 3},
		{"binary frame", func() *httptest.ResponseRecorder {
			return postFrame(t, s, "/v1/score", mustFrame32(t, "alt", 4, 3, f32))
		}, 4},
	} {
		statsBefore := getStats(t, s)
		metricsBefore, _ := scrape(t, s)
		if w := tc.post(); w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, w.Code, w.Body)
		}
		statsAfter := getStats(t, s)
		metricsAfter, _ := scrape(t, s)
		if got := statsAfter.Rows - statsBefore.Rows; got != tc.rows {
			t.Errorf("%s: /v1/stats rows advanced %d, want %d", tc.name, got, tc.rows)
		}
		if got := metricsAfter["malevade_serve_rows_total"] - metricsBefore["malevade_serve_rows_total"]; got != float64(tc.rows) {
			t.Errorf("%s: malevade_serve_rows_total advanced %v, want %d", tc.name, got, tc.rows)
		}
	}
}

// getStats GETs /v1/stats through the full handler.
func getStats(t *testing.T, s *Server) StatsResponse {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var stats StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatalf("decoding /v1/stats: %v", err)
	}
	return stats
}

// TestMetricsScrapeHammer scrapes /metrics concurrently with scoring
// traffic and hot reloads under the race detector, asserting every
// scrape stays lint-clean and the cumulative counters never move
// backwards — a reload must be invisible to scrapes. The traffic and
// reload goroutines are stopped and joined before the test returns, even
// when an assertion fails, so none outlives the server.
func TestMetricsScrapeHammer(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					postJSON(t, s, "/v1/score", `{"rows":[[0.5,0.5,0.5]]}`)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Reload(""); err != nil {
				t.Errorf("reload: %v", err)
				return
			}
		}
	}()

	var lastRows, lastReqs float64
	for i := 0; i < 50; i++ {
		metrics, raw := scrape(t, s)
		if problems := obs.Lint(raw); len(problems) != 0 {
			t.Fatalf("scrape %d lint: %v", i, problems)
		}
		rows := metrics["malevade_serve_rows_total"]
		reqs := metrics["malevade_scoring_requests_total"]
		if rows < lastRows {
			t.Fatalf("scrape %d: rows_total went backwards: %v -> %v", i, lastRows, rows)
		}
		if reqs < lastReqs {
			t.Fatalf("scrape %d: requests_total went backwards: %v -> %v", i, lastReqs, reqs)
		}
		lastRows, lastReqs = rows, reqs
	}
}

// TestRequestIDEchoedAndPropagated pins the edge half of the tracing
// contract: a valid inbound X-Malevade-Request-Id is echoed verbatim, a
// missing one is minted, and a malformed one is replaced rather than
// relayed.
func TestRequestIDEchoedAndPropagated(t *testing.T) {
	s, _ := newTestServer(t, Options{})

	req := httptest.NewRequest(http.MethodPost, "/v1/score",
		strings.NewReader(`{"rows":[[0,0,0]]}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, "trace-42")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if got := w.Header().Get(obs.RequestIDHeader); got != "trace-42" {
		t.Fatalf("valid inbound ID not propagated: got %q", got)
	}

	w = postJSON(t, s, "/v1/score", `{"rows":[[0,0,0]]}`)
	if got := w.Header().Get(obs.RequestIDHeader); !obs.ValidRequestID(got) {
		t.Fatalf("minted ID %q is not valid", got)
	}

	req = httptest.NewRequest(http.MethodPost, "/v1/score",
		strings.NewReader(`{"rows":[[0,0,0]]}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, "bad id\twith control")
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	got := w.Header().Get(obs.RequestIDHeader)
	if got == "bad id\twith control" || !obs.ValidRequestID(got) {
		t.Fatalf("malformed inbound ID relayed: got %q", got)
	}
}

package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"malevade/internal/attack"
	"malevade/internal/campaign"
	"malevade/internal/rng"
	"malevade/internal/tensor"
)

// submitCampaign posts a spec and decodes the accepted snapshot.
func submitCampaign(t *testing.T, s *Server, spec campaign.Spec) campaign.Snapshot {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	w := postJSON(t, s, "/v1/campaigns", string(body))
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", w.Code, w.Body.String())
	}
	var snap campaign.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// getCampaign fetches one campaign snapshot over the API.
func getCampaign(t *testing.T, s *Server, id string, offset int) campaign.Snapshot {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/campaigns/%s?offset=%d", id, offset), nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("get %s: status %d: %s", id, w.Code, w.Body.String())
	}
	var snap campaign.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// awaitCampaign polls the API until the campaign is terminal.
func awaitCampaign(t *testing.T, s *Server, id string) campaign.Snapshot {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		snap := getCampaign(t, s, id, 0)
		if snap.Status.Terminal() {
			return snap
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("campaign %s never finished", id)
	return campaign.Snapshot{}
}

func testCampaignRows(n, width int, seed uint64) [][]float64 {
	r := rng.New(seed)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, width)
		for j := range rows[i] {
			rows[i][j] = r.Float64()
		}
	}
	return rows
}

// TestCampaignAPILifecycle drives the full wire surface: submit, list, poll
// with offsets, stats accounting, cancel, and every documented error code.
func TestCampaignAPILifecycle(t *testing.T) {
	s, net := newTestServer(t, Options{})
	inDim := net.InDim()

	spec := campaign.Spec{
		Name:   "api-lifecycle",
		Attack: attack.Config{Kind: attack.KindJSMA, Theta: 0.2, Gamma: 0.3},
		Rows:   testCampaignRows(10, inDim, 5),
	}
	snap := submitCampaign(t, s, spec)
	if snap.ID == "" || snap.Status.Terminal() {
		t.Fatalf("submitted snapshot: %+v", snap)
	}
	if len(snap.Spec.Rows) != 0 {
		t.Errorf("snapshot echoes %d raw rows; rows must be elided", len(snap.Spec.Rows))
	}

	final := awaitCampaign(t, s, snap.ID)
	if final.Status != campaign.StatusDone {
		t.Fatalf("status %s (%s), want done", final.Status, final.Error)
	}
	if final.DoneSamples != 10 || final.TotalSamples != 10 {
		t.Fatalf("samples %d/%d, want 10/10", final.DoneSamples, final.TotalSamples)
	}
	if len(final.Generations) != 1 || final.Generations[0] != 1 {
		t.Errorf("generations %v, want [1] with no reloads", final.Generations)
	}
	for i, r := range final.Results {
		if r.Index != i || r.Generation != 1 {
			t.Errorf("result %d: %+v", i, r)
		}
	}

	// Windowed poll.
	tail := getCampaign(t, s, snap.ID, 8)
	if tail.ResultsOffset != 8 || len(tail.Results) != 2 {
		t.Errorf("offset poll: %d results at %d, want 2 at 8", len(tail.Results), tail.ResultsOffset)
	}

	// List contains the campaign, without per-sample results.
	req := httptest.NewRequest(http.MethodGet, "/v1/campaigns", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("list: status %d", w.Code)
	}
	var list CampaignList
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Campaigns) != 1 || list.Campaigns[0].ID != snap.ID || len(list.Campaigns[0].Results) != 0 {
		t.Errorf("list: %+v", list)
	}

	// Stats count the submission.
	req = httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	var stats StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Campaigns != 1 {
		t.Errorf("stats campaigns %d, want 1", stats.Campaigns)
	}

	// Error semantics.
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
	}{
		{"malformed JSON", http.MethodPost, "/v1/campaigns", "{", http.StatusBadRequest},
		{"unknown field", http.MethodPost, "/v1/campaigns", `{"bogus": 1}`, http.StatusBadRequest},
		{"unknown attack kind", http.MethodPost, "/v1/campaigns",
			`{"attack": {"kind": "ddos"}}`, http.StatusUnprocessableEntity},
		{"unknown profile", http.MethodPost, "/v1/campaigns",
			`{"attack": {"kind": "jsma"}, "profile": "galactic"}`, http.StatusUnprocessableEntity},
		{"unknown id", http.MethodGet, "/v1/campaigns/c999999", "", http.StatusNotFound},
		{"bad offset", http.MethodGet, "/v1/campaigns/" + snap.ID + "?offset=-3", "", http.StatusBadRequest},
		{"cancel unknown id", http.MethodDelete, "/v1/campaigns/c999999", "", http.StatusNotFound},
		{"method not allowed", http.MethodPut, "/v1/campaigns/" + snap.ID, "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		var req *http.Request
		if tc.body != "" {
			req = httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			req.Header.Set("Content-Type", "application/json")
		} else {
			req = httptest.NewRequest(tc.method, tc.path, nil)
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != tc.wantStatus {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, w.Code, tc.wantStatus, w.Body.String())
		}
	}

	// Cancel of a finished campaign acknowledges without changing state.
	req = httptest.NewRequest(http.MethodDelete, "/v1/campaigns/"+snap.ID, nil)
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusAccepted {
		t.Fatalf("cancel finished: status %d", w.Code)
	}
	var cancelled campaign.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &cancelled); err != nil {
		t.Fatal(err)
	}
	if cancelled.Status != campaign.StatusDone {
		t.Errorf("cancel of finished campaign flipped status to %s", cancelled.Status)
	}
}

// TestCampaignWhiteBoxDefault: with no craft_model_path the campaign
// crafts on the daemon's own served model — the white-box setting — and the
// attack should evade the target it was crafted against for at least some
// samples at a generous budget.
func TestCampaignWhiteBoxDefault(t *testing.T) {
	s, net := newTestServer(t, Options{})
	spec := campaign.Spec{
		Attack: attack.Config{Kind: attack.KindJSMA, Theta: 0.5, Gamma: 0.5},
		Rows:   testCampaignRows(12, net.InDim(), 11),
	}
	final := awaitCampaign(t, s, submitCampaign(t, s, spec).ID)
	if final.Status != campaign.StatusDone {
		t.Fatalf("status %s (%s)", final.Status, final.Error)
	}
	for i, r := range final.Results {
		// White-box: the crafting model IS the target (same generation),
		// so the craft verdict and the target verdict must agree exactly.
		if r.CraftEvaded != r.Evaded {
			t.Errorf("sample %d: craft evaded %v but target evaded %v — white-box default must craft on the served model",
				i, r.CraftEvaded, r.Evaded)
		}
	}
}

// reloadGate judges campaign batches through the daemon's own target, but
// holds every batch after the first until a reload has replaced the
// generation that judged it — so the hammer below sees at least two
// generations however fast the campaigns run on a loaded host.
type reloadGate struct {
	s     *Server
	mu    sync.Mutex
	first int64 // generation of the first judged batch; 0 before it
}

func (g *reloadGate) LabelBatch(ctx context.Context, x *tensor.Matrix) ([]int, int64, error) {
	g.mu.Lock()
	first := g.first
	g.mu.Unlock()
	for first != 0 && g.s.ModelVersion() == first {
		select {
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		case <-time.After(100 * time.Microsecond):
		}
	}
	labels, gen, err := serverTarget{g.s}.LabelBatch(ctx, x)
	if err == nil {
		g.mu.Lock()
		if g.first == 0 {
			g.first = gen
		}
		g.mu.Unlock()
	}
	return labels, gen, err
}

// TestCampaignReloadHammer is the hot-reload acceptance test for the
// campaign layer: campaigns run to completion while the model is hot-swapped
// as fast as the server allows, with zero dropped (failed) campaigns and
// zero mixed-generation batches — every batch's samples carry one
// generation, proven from the wire-visible per-sample results.
func TestCampaignReloadHammer(t *testing.T) {
	dir := t.TempDir()
	// Wide enough that JSMA's per-batch crafting takes real time, so the
	// reload hammer demonstrably interleaves with running campaigns.
	dims := []int{64, 128, 2}
	pathA, _ := saveTestNet(t, dir, "a.gob", dims, 1)
	pathB, _ := saveTestNet(t, dir, "b.gob", dims, 2)

	gate := &reloadGate{}
	s, err := New(Options{ModelPath: pathA, Campaigns: campaign.Options{Workers: 3, LocalTarget: gate}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gate.s = s

	const rows = 240
	const batchSize = 2
	const nCampaigns = 4
	ids := make([]string, 0, nCampaigns)
	for c := 0; c < nCampaigns; c++ {
		snap := submitCampaign(t, s, campaign.Spec{
			Attack:    attack.Config{Kind: attack.KindJSMA, Theta: 0.3, Gamma: 0.4},
			Rows:      testCampaignRows(rows, dims[0], uint64(c+1)),
			BatchSize: batchSize,
		})
		ids = append(ids, snap.ID)
	}

	// Hammer reloads until every campaign finishes.
	var stop atomic.Bool
	reloadDone := make(chan int)
	go func() {
		paths := [2]string{pathB, pathA}
		n := 0
		for !stop.Load() {
			if _, err := s.Reload(paths[n%2]); err != nil {
				t.Errorf("reload %d: %v", n, err)
				break
			}
			n++
			time.Sleep(200 * time.Microsecond)
		}
		reloadDone <- n
	}()

	distinct := make(map[int64]bool)
	for _, id := range ids {
		final := awaitCampaign(t, s, id)
		if final.Status != campaign.StatusDone {
			t.Fatalf("campaign %s: status %s (%s) — campaigns must survive hot-reloads",
				id, final.Status, final.Error)
		}
		if final.DoneSamples != rows {
			t.Fatalf("campaign %s judged %d/%d samples — dropped batches", id, final.DoneSamples, rows)
		}
		// Zero mixed-generation batches: within each batch, every sample
		// must have been judged by the same model generation.
		for b := 0; b*batchSize < len(final.Results); b++ {
			lo := b * batchSize
			hi := min(lo+batchSize, len(final.Results))
			gen := final.Results[lo].Generation
			if gen <= 0 {
				t.Fatalf("campaign %s batch %d: generation %d", id, b, gen)
			}
			for i := lo; i < hi; i++ {
				if final.Results[i].Generation != gen {
					t.Fatalf("campaign %s batch %d mixes generations %d and %d",
						id, b, gen, final.Results[i].Generation)
				}
			}
			distinct[gen] = true
		}
	}
	stop.Store(true)
	reloads := <-reloadDone
	if reloads == 0 {
		t.Fatal("hammer performed no reloads")
	}
	// The point of the hammer: reloads really landed mid-campaign (batches
	// were judged by several generations) and not one batch mixed them.
	if len(distinct) < 2 {
		t.Errorf("all batches saw one generation across %d reloads — hammer never interleaved", reloads)
	}
	t.Logf("%d campaigns × %d samples across %d hot-reloads; %d distinct generations judged batches",
		nCampaigns, rows, reloads, len(distinct))
}

package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"malevade/internal/campaign"
	"malevade/internal/nn"
	"malevade/internal/registry"
	"malevade/internal/tensor"
	"malevade/internal/wire"
)

// The campaigns API exposes the asynchronous attack-campaign orchestrator
// (internal/campaign) over the daemon:
//
//	POST   /v1/campaigns       submit a campaign spec        → 202 + snapshot
//	GET    /v1/campaigns       list campaign summaries       → 200
//	GET    /v1/campaigns/{id}  status + incremental results  → 200 (?offset=N)
//	DELETE /v1/campaigns/{id}  cancel via context            → 202 + snapshot
//
// Campaigns run on the engine's worker pool and survive hot-reloads: every
// batch is judged through serverTarget, which pins one model generation for
// the batch's single evaluation exactly like a scoring request pins its
// generation — a reload mid-campaign splits between batches, never inside
// one.

// serverTarget adapts the server's generation-pinned scoring path into a
// campaign.Target: one LabelBatch call acquires the live generation, judges
// every row through its engine, and reports that generation's version.
type serverTarget struct{ s *Server }

var _ campaign.Target = serverTarget{}

// LabelBatch implements campaign.Target. A defended daemon judges
// campaign batches through its defense chain — the same verdict path
// /v1/label serves — so campaigns attack exactly what clients score
// against. The job's ctx flows into the engine's submit path, so a
// cancelled campaign abandons a batch already queued behind other work.
func (t serverTarget) LabelBatch(ctx context.Context, x *tensor.Matrix) ([]int, int64, error) {
	m := t.s.acquire()
	if m == nil {
		return nil, 0, errors.New("server: shut down")
	}
	defer t.s.release(m)
	return instanceLabels(ctx, m, x)
}

// namedTarget judges campaign batches against one registry model: each
// LabelBatch call pins whatever version is live at that moment, so a
// promotion mid-campaign splits between batches, never inside one —
// exactly the default slot's hot-reload contract, per named detector.
type namedTarget struct {
	s    *Server
	name string
}

var _ campaign.Target = namedTarget{}

// LabelBatch implements campaign.Target over the named model's live
// instance.
func (t namedTarget) LabelBatch(ctx context.Context, x *tensor.Matrix) ([]int, int64, error) {
	if t.s.registry == nil {
		return nil, 0, errors.New("server: no model registry")
	}
	m, err := t.s.registry.Acquire(t.name)
	if err != nil {
		return nil, 0, err
	}
	defer m.Release()
	return instanceLabels(ctx, m, x)
}

// instanceLabels judges one batch wholly on one pinned instance — through
// the defense chain when the instance carries one, off the engine's
// logits otherwise — and reports the instance's generation.
func instanceLabels(ctx context.Context, m *model, x *tensor.Matrix) ([]int, int64, error) {
	if x.Cols != m.Scorer.InDim() {
		return nil, 0, fmt.Errorf("server: campaign batch has %d features, model expects %d",
			x.Cols, m.Scorer.InDim())
	}
	if m.Det != nil {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		return m.Det.Predict(x), m.Generation, nil
	}
	logits, err := m.Scorer.LogitsContext(ctx, x)
	if err != nil {
		return nil, 0, err
	}
	labels := make([]int, logits.Rows)
	for i := range labels {
		labels[i] = logits.RowArgmax(i)
	}
	return labels, m.Generation, nil
}

// craftModel loads a fresh copy of the currently-served model file — the
// default crafting model for white-box campaigns against this daemon. Each
// campaign job gets its own network because gradient crafting mutates
// per-network activation caches.
func (s *Server) craftModel() (*nn.Network, error) {
	m := s.slot.Load()
	if m == nil {
		return nil, errors.New("server: shut down")
	}
	return nn.LoadFile(m.Path)
}

func (s *Server) handleCampaignSubmit(w http.ResponseWriter, r *http.Request) {
	var spec campaign.Spec
	if !wire.DecodeJSON(w, r, s.opts.MaxBodyBytes, &spec, false) {
		return
	}
	snap, err := s.campaigns.Submit(spec)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, snap)
}

// writeSubmitError answers a refused campaign, hardening or mining
// submission: a model the registry does not hold (or holds with nothing
// live) takes the registry's own taxonomy members, and everything else the
// shared job-submission mapping (422 invalid_spec, 429 queue_full, 503
// unavailable).
func writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, registry.ErrUnknownModel):
		writeErrorCode(w, http.StatusNotFound, wire.CodeUnknownModel, "%v", err)
	case errors.Is(err, registry.ErrVersionConflict):
		writeErrorCode(w, http.StatusConflict, wire.CodeVersionConflict, "%v", err)
	default:
		wire.WriteSubmitError(w, err)
	}
}

// CampaignList answers GET /v1/campaigns.
type CampaignList struct {
	Campaigns []campaign.Snapshot `json:"campaigns"`
}

func (s *Server) handleCampaignList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, CampaignList{Campaigns: s.campaigns.List()})
}

func (s *Server) handleCampaignGet(w http.ResponseWriter, r *http.Request) {
	offset := 0
	if raw := r.URL.Query().Get("offset"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest,
				"offset must be a non-negative integer, got %q", raw)
			return
		}
		offset = n
	}
	snap, ok := s.campaigns.Get(r.PathValue("id"), offset)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown campaign %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleCampaignCancel(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.campaigns.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown campaign %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusAccepted, snap)
}

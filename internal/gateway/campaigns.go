package gateway

import (
	"context"
	"errors"
	"net/http"
	"strconv"

	"malevade/internal/campaign"
	"malevade/internal/tensor"
	"malevade/internal/wire"
)

// The gateway runs its own campaign engine and shards each campaign's
// population across the fleet: the engine already splits a population
// into batches and judges each batch with exactly one Target.LabelBatch
// call, so routing every LabelBatch to one healthy replica — consecutive
// batches round-robin across the fleet — fans the work out while keeping
// the paper's generation-pinning invariant intact per batch. The SDK does
// the heavy lifting inside each call: LabelVersion(Model) chunks large
// batches, pins one model generation across the chunks, and retries on
// wire.ErrMixedGenerations when a replica hot-reloads mid-batch. A batch
// whose replica dies mid-campaign is retried on the next healthy replica
// (then by the engine's own judge retries), so a killed replica costs
// retries, not dropped samples.

// fleetTarget routes one generation-pinned batch per LabelBatch call to
// one healthy replica, trying each healthy candidate at most once before
// reporting failure to the engine's retry loop. A non-empty model routes
// to advertising replicas (falling back to all healthy — advertisement
// may be stale) via the same pick the proxy path uses.
type fleetTarget struct {
	g     *Gateway
	model string
}

var _ campaign.Target = (*fleetTarget)(nil)

// LabelBatch implements campaign.Target over the fleet.
func (t *fleetTarget) LabelBatch(ctx context.Context, x *tensor.Matrix) ([]int, int64, error) {
	tried := make(map[*replica]bool)
	var lastErr error
	for {
		r := t.g.pick(t.model, tried)
		if r == nil {
			break
		}
		tried[r] = true
		labels, gen, err := t.label(ctx, r, x)
		if err == nil {
			r.noteTrafficOK()
			return labels, gen, nil
		}
		if ctx.Err() != nil {
			return nil, 0, context.Cause(ctx)
		}
		lastErr = err
		// A typed refusal below 500 means the replica is alive and
		// rejecting this batch (unknown model, bad shape); do not charge
		// it toward the down threshold. Anything else is the replica's
		// fault.
		var we *wire.Error
		if errors.As(err, &we) && we.Status < http.StatusInternalServerError {
			r.noteTrafficOK()
			continue
		}
		t.g.reportFailure(r, err)
	}
	if lastErr != nil {
		return nil, 0, lastErr
	}
	return nil, 0, &wire.Error{
		Status: http.StatusServiceUnavailable,
		Code:   wire.CodeNoReplicas,
		Msg:    "no healthy replicas",
	}
}

func (t *fleetTarget) label(ctx context.Context, r *replica, x *tensor.Matrix) ([]int, int64, error) {
	if t.model != "" {
		return r.c.LabelVersionModel(ctx, t.model, x)
	}
	return r.c.LabelVersion(ctx, x)
}

// namedTarget is the engine's NamedTarget factory. The engine calls it
// synchronously at submit time, so a model no probed replica advertises
// is refused as 404 unknown_model at the API layer, mirroring the
// single-daemon registry behaviour. Advertisement freshness is the probe
// interval; a just-registered model becomes submittable after the next
// probe round.
func (g *Gateway) namedTarget(model string) (campaign.Target, error) {
	for _, r := range g.replicas {
		if r.isUp() && r.hasModel(model) {
			return &fleetTarget{g: g, model: model}, nil
		}
	}
	return nil, &wire.Error{
		Status: http.StatusNotFound,
		Code:   wire.CodeUnknownModel,
		Msg:    "no healthy replica advertises model " + strconv.Quote(model),
	}
}

func (g *Gateway) handleCampaignSubmit(w http.ResponseWriter, r *http.Request) {
	var spec campaign.Spec
	if !wire.DecodeJSON(w, r, g.opts.MaxBodyBytes, &spec, false) {
		return
	}
	snap, err := g.campaigns.Submit(spec)
	if err != nil {
		// The daemon's submit taxonomy; a typed fleet refusal (the
		// named-target factory's 404 unknown_model) is relayed verbatim.
		wire.WriteSubmitError(w, err)
		return
	}
	wire.WriteJSON(w, http.StatusAccepted, snap)
}

// CampaignList is the gateway's GET /v1/campaigns payload, mirroring the
// daemon's shape so SDK clients work unchanged against either tier.
type CampaignList struct {
	// Campaigns summarises every campaign the engine remembers.
	Campaigns []campaign.Snapshot `json:"campaigns"`
}

func (g *Gateway) handleCampaignList(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, CampaignList{Campaigns: g.campaigns.List()})
}

func (g *Gateway) handleCampaignGet(w http.ResponseWriter, r *http.Request) {
	offset := 0
	if raw := r.URL.Query().Get("offset"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			wire.WriteError(w, http.StatusBadRequest,
				"offset must be a non-negative integer, got %q", raw)
			return
		}
		offset = n
	}
	snap, ok := g.campaigns.Get(r.PathValue("id"), offset)
	if !ok {
		wire.WriteError(w, http.StatusNotFound, "unknown campaign %q", r.PathValue("id"))
		return
	}
	wire.WriteJSON(w, http.StatusOK, snap)
}

func (g *Gateway) handleCampaignCancel(w http.ResponseWriter, r *http.Request) {
	snap, ok := g.campaigns.Cancel(r.PathValue("id"))
	if !ok {
		wire.WriteError(w, http.StatusNotFound, "unknown campaign %q", r.PathValue("id"))
		return
	}
	wire.WriteJSON(w, http.StatusAccepted, snap)
}

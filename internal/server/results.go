package server

import (
	"errors"
	"net/http"
	"strconv"

	"malevade/internal/dataset"
	"malevade/internal/nn"
	"malevade/internal/registry"
	"malevade/internal/store"
	"malevade/internal/tensor"
	"malevade/internal/wire"
)

// The results API serves the durable campaign-results store
// (internal/store) and its historical-attack miner over the daemon:
//
//	GET    /v1/results              store summary: campaigns + counters
//	GET    /v1/results/{id}         one campaign's stored per-sample
//	                                results, cursor-paginated + filtered
//	GET    /v1/results/traffic      the recorded traffic log, paginated
//	POST   /v1/results/{id}/replay  re-score one stored perturbation
//	POST   /v1/mine                 submit a traffic sweep     → 202
//	GET    /v1/mine                 list sweeps
//	GET    /v1/mine/{id}            ranked findings report
//	DELETE /v1/mine/{id}            cancel a queued sweep      → 202
//
// The store only exists when the daemon has a registry (results persist
// under RegistryDir/.results), so every handler first refuses storeless
// daemons with 422 no_store — a refinement distinct from the invalid_spec
// a malformed body earns. Detected on-disk damage answers 500
// store_corrupt, never a panic or a silent truncation.

// requireResults answers false after writing the 422 no_store that
// explains why a registry-less daemon has no results store.
func (s *Server) requireResults(w http.ResponseWriter) bool {
	if s.store == nil {
		writeErrorCode(w, http.StatusUnprocessableEntity, wire.CodeNoStore,
			"daemon has no results store (start with -registry): campaign results persist beside the model registry")
		return false
	}
	return true
}

// storeError maps a store read failure onto the wire taxonomy.
func storeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, store.ErrUnknownCampaign):
		writeError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, wire.ErrRecordCorrupt):
		writeErrorCode(w, http.StatusInternalServerError, wire.CodeStoreCorrupt, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// queryInt parses a non-negative integer query parameter, defaulting when
// absent.
func queryInt(r *http.Request, key string, def int) (int, bool) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return def, true
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// ResultsListResponse answers GET /v1/results: every stored campaign's
// summary plus the store's size counters.
type ResultsListResponse struct {
	// Campaigns lists stored campaigns in first-stored order (optionally
	// filtered by the "model" query parameter).
	Campaigns []store.CampaignSummary `json:"campaigns"`
	// TrafficRecords counts recorded live-traffic rows.
	TrafficRecords int64 `json:"traffic_records"`
	// Records/Bytes are the store's durable totals across every log.
	Records int64 `json:"records"`
	Bytes   int64 `json:"bytes"`
}

func (s *Server) handleResultsList(w http.ResponseWriter, r *http.Request) {
	if !s.requireResults(w) {
		return
	}
	campaigns := s.store.Campaigns()
	if model := r.URL.Query().Get("model"); model != "" {
		kept := campaigns[:0]
		for _, c := range campaigns {
			if c.Model == model {
				kept = append(kept, c)
			}
		}
		campaigns = kept
	}
	writeJSON(w, http.StatusOK, ResultsListResponse{
		Campaigns:      campaigns,
		TrafficRecords: s.store.TrafficRecords(),
		Records:        s.store.Records(),
		Bytes:          s.store.Bytes(),
	})
}

// ResultsPage answers GET /v1/results/{id}: one campaign's stored history
// with a cursor-paginated window of its per-sample results.
type ResultsPage struct {
	store.CampaignHistory
	// Total counts the campaign's stored samples before filtering.
	Total int `json:"total"`
	// Cursor echoes the request's position in the unfiltered sample
	// sequence; NextCursor is where the next page starts (absent when
	// this page exhausted the log).
	Cursor     int `json:"cursor"`
	NextCursor int `json:"next_cursor,omitempty"`
}

// TrafficPage answers GET /v1/results/traffic: a cursor-paginated window
// of the recorded traffic log.
type TrafficPage struct {
	// Total counts recorded rows before filtering.
	Total int `json:"total"`
	// Cursor/NextCursor paginate exactly like ResultsPage.
	Cursor     int `json:"cursor"`
	NextCursor int `json:"next_cursor,omitempty"`
	// Rows is the window, in record order.
	Rows []store.TrafficRow `json:"rows"`
}

// resultsPageLimit is the default (and maximum) page size of the results
// and traffic views; clients page with cursor/limit.
const resultsPageLimit = 1024

func (s *Server) handleResultsGet(w http.ResponseWriter, r *http.Request) {
	if !s.requireResults(w) {
		return
	}
	id := r.PathValue("id")
	cursor, ok := queryInt(r, "cursor", 0)
	if !ok {
		writeError(w, http.StatusBadRequest, "cursor must be a non-negative integer")
		return
	}
	limit, ok := queryInt(r, "limit", resultsPageLimit)
	if !ok {
		writeError(w, http.StatusBadRequest, "limit must be a non-negative integer")
		return
	}
	if limit == 0 || limit > resultsPageLimit {
		limit = resultsPageLimit
	}
	if id == "traffic" {
		s.serveTrafficPage(w, r, cursor, limit)
		return
	}
	h, err := s.store.Campaign(id)
	if err != nil {
		storeError(w, err)
		return
	}
	q := r.URL.Query()
	var genFilter *int64
	if raw := q.Get("generation"); raw != "" {
		g, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "generation must be an integer")
			return
		}
		genFilter = &g
	}
	flipsOnly := q.Get("flips") == "true"

	page := ResultsPage{CampaignHistory: h, Total: len(h.Samples), Cursor: cursor}
	all := h.Samples
	page.CampaignHistory.Samples = nil
	if cursor > len(all) {
		cursor = len(all)
	}
	next := cursor
	for _, sr := range all[cursor:] {
		next++
		if genFilter != nil && sr.Generation != *genFilter {
			continue
		}
		// A verdict flip is the campaign's success case: the target
		// detected the original but passed the adversarial variant.
		if flipsOnly && !(sr.BaselineDetected && sr.Evaded) {
			continue
		}
		page.CampaignHistory.Samples = append(page.CampaignHistory.Samples, sr)
		if len(page.CampaignHistory.Samples) == limit {
			break
		}
	}
	if next < len(all) {
		page.NextCursor = next
	}
	writeJSON(w, http.StatusOK, page)
}

// serveTrafficPage renders the traffic view of GET /v1/results/traffic,
// with model / generation / score-band ("min_prob", "max_prob") filters.
func (s *Server) serveTrafficPage(w http.ResponseWriter, r *http.Request, cursor, limit int) {
	rows, err := s.store.Traffic()
	if err != nil {
		storeError(w, err)
		return
	}
	q := r.URL.Query()
	model := q.Get("model")
	filterModel := q.Has("model")
	var genFilter *int64
	if raw := q.Get("generation"); raw != "" {
		g, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "generation must be an integer")
			return
		}
		genFilter = &g
	}
	parseProb := func(key string, def float64) (float64, bool) {
		raw := q.Get(key)
		if raw == "" {
			return def, true
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || v < 0 || v > 1 {
			return 0, false
		}
		return v, true
	}
	minProb, ok := parseProb("min_prob", 0)
	if !ok {
		writeError(w, http.StatusBadRequest, "min_prob must lie in [0, 1]")
		return
	}
	maxProb, ok := parseProb("max_prob", 1)
	if !ok {
		writeError(w, http.StatusBadRequest, "max_prob must lie in [0, 1]")
		return
	}
	bandFiltered := q.Has("min_prob") || q.Has("max_prob")

	page := TrafficPage{Total: len(rows), Cursor: cursor, Rows: []store.TrafficRow{}}
	if cursor > len(rows) {
		cursor = len(rows)
	}
	next := cursor
	for _, row := range rows[cursor:] {
		next++
		if filterModel && row.Model != model {
			continue
		}
		if genFilter != nil && row.Generation != *genFilter {
			continue
		}
		if bandFiltered && (!row.HasProb || row.Prob < minProb || row.Prob > maxProb) {
			continue
		}
		page.Rows = append(page.Rows, row)
		if len(page.Rows) == limit {
			break
		}
	}
	if next < len(rows) {
		page.NextCursor = next
	}
	writeJSON(w, http.StatusOK, page)
}

// ReplayRequest asks POST /v1/results/{id}/replay to re-score one stored
// adversarial perturbation. Model/Version select the judge: empty Model
// replays against the daemon's current default model; a named model
// replays against the registry's retained Version of it (0 = its live
// version) — deterministic re-evaluation of a stored attack against any
// model the daemon still holds.
type ReplayRequest struct {
	Index   int    `json:"index"`
	Model   string `json:"model,omitempty"`
	Version int    `json:"version,omitempty"`
}

// ReplayResponse reports the replayed verdict next to the stored one.
type ReplayResponse struct {
	// ID / Index identify the replayed sample.
	ID    string `json:"id"`
	Index int    `json:"index"`
	// Model / Version echo the judge that re-scored it (Version only for
	// registry-addressed replays); ModelVersion is the default slot's
	// generation when no model was named.
	Model        string `json:"model,omitempty"`
	Version      int    `json:"version,omitempty"`
	ModelVersion int64  `json:"model_version,omitempty"`
	// Prob / Class / Evaded are the replayed verdict (registry replays
	// score the raw stored network of that version; the default-slot
	// replay travels the served path, defenses included).
	Prob   float64 `json:"prob"`
	Class  int     `json:"class"`
	Evaded bool    `json:"evaded"`
	// StoredGeneration / StoredEvaded recall the original verdict, so a
	// replay reads as a before/after pair.
	StoredGeneration int64 `json:"stored_generation"`
	StoredEvaded     bool  `json:"stored_evaded"`
}

func (s *Server) handleResultsReplay(w http.ResponseWriter, r *http.Request) {
	if !s.requireResults(w) {
		return
	}
	id := r.PathValue("id")
	var req ReplayRequest
	if !wire.DecodeJSON(w, r, 1<<20, &req, false) {
		return
	}
	if req.Index < 0 || req.Version < 0 {
		writeError(w, http.StatusBadRequest, "index and version must be non-negative")
		return
	}
	sr, err := s.store.Sample(id, req.Index)
	if err != nil {
		storeError(w, err)
		return
	}
	if len(sr.Adversarial) == 0 {
		writeError(w, http.StatusUnprocessableEntity,
			"campaign %s did not retain adversarial rows (submit with keep_rows to enable replay)", id)
		return
	}
	x := tensor.FromRows([][]float64{sr.Adversarial})
	resp := ReplayResponse{
		ID: id, Index: req.Index, Model: req.Model,
		StoredGeneration: sr.Generation, StoredEvaded: sr.Evaded,
	}
	if req.Model == "" {
		m := s.acquire()
		if m == nil {
			writeError(w, http.StatusServiceUnavailable, "server is shut down")
			return
		}
		defer s.release(m)
		if inDim := m.Scorer.InDim(); x.Cols != inDim {
			writeError(w, http.StatusUnprocessableEntity,
				"stored row has %d features, current model expects %d", x.Cols, inDim)
			return
		}
		resp.ModelVersion = m.Generation
		if m.Det != nil {
			ps, classes := detectorVerdicts(m.Det, x)
			resp.Prob, resp.Class = ps[0], classes[0]
		} else {
			logits := m.Scorer.Logits(x)
			probs := make([]float64, logits.Cols)
			nn.SoftmaxRow(logits.Row(0), probs, s.opts.Temperature)
			resp.Prob, resp.Class = probs[dataset.LabelMalware], logits.RowArgmax(0)
		}
	} else {
		net, ver, err := s.registry.LoadVersion(req.Model, req.Version)
		switch {
		case err == nil:
		case errors.Is(err, registry.ErrUnknownModel):
			writeErrorCode(w, http.StatusNotFound, wire.CodeUnknownModel, "%v", err)
			return
		case errors.Is(err, registry.ErrVersionConflict):
			writeErrorCode(w, http.StatusConflict, wire.CodeVersionConflict, "%v", err)
			return
		default:
			writeErrorCode(w, http.StatusServiceUnavailable, wire.CodeUnavailable, "%v", err)
			return
		}
		if inDim := net.InDim(); x.Cols != inDim {
			writeError(w, http.StatusUnprocessableEntity,
				"stored row has %d features, model %q expects %d", x.Cols, req.Model, inDim)
			return
		}
		resp.Version = ver
		logits := net.Logits(x)
		probs := make([]float64, logits.Cols)
		nn.SoftmaxRow(logits.Row(0), probs, s.opts.Temperature)
		resp.Prob, resp.Class = probs[dataset.LabelMalware], logits.RowArgmax(0)
	}
	resp.Evaded = resp.Class == dataset.LabelClean
	writeJSON(w, http.StatusOK, resp)
}

// requireMine answers false after writing the 422 no_store that explains
// why a storeless daemon has no miner.
func (s *Server) requireMine(w http.ResponseWriter) bool {
	if s.miner == nil {
		writeErrorCode(w, http.StatusUnprocessableEntity, wire.CodeNoStore,
			"daemon has no results store (start with -registry): mining sweeps its recorded traffic")
		return false
	}
	return true
}

func (s *Server) handleMineSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.requireMine(w) {
		return
	}
	// An entirely empty body sweeps with the defaults; anything present
	// must be a valid spec.
	var spec store.MineSpec
	if !wire.DecodeJSON(w, r, s.opts.MaxBodyBytes, &spec, true) {
		return
	}
	snap, err := s.miner.Submit(spec)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, snap)
}

// MineList answers GET /v1/mine.
type MineList struct {
	Jobs []store.MineSnapshot `json:"jobs"`
}

func (s *Server) handleMineList(w http.ResponseWriter, r *http.Request) {
	if !s.requireMine(w) {
		return
	}
	writeJSON(w, http.StatusOK, MineList{Jobs: s.miner.List()})
}

func (s *Server) handleMineGet(w http.ResponseWriter, r *http.Request) {
	if !s.requireMine(w) {
		return
	}
	snap, err := s.miner.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "unknown mine job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleMineCancel(w http.ResponseWriter, r *http.Request) {
	if !s.requireMine(w) {
		return
	}
	snap, err := s.miner.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "unknown mine job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusAccepted, snap)
}

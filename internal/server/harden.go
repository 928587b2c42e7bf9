package server

import (
	"net/http"

	"malevade/internal/harden"
	"malevade/internal/wire"
)

// The hardening API exposes the closed-loop controller (internal/harden)
// over the daemon:
//
//	POST   /v1/harden       submit a hardening spec    → 202 + snapshot
//	GET    /v1/harden       list job summaries         → 200
//	GET    /v1/harden/{id}  status + per-round metrics → 200
//	DELETE /v1/harden/{id}  cancel via context         → 202 + snapshot
//
// The controller only exists when the daemon has a model registry —
// hardening retrains and promotes named, durable models — so every handler
// first refuses registry-less daemons with the same 422 the scoring path
// uses for model addressing. Job state is durable (RegistryDir/.harden):
// a daemon killed mid-job resumes it on the next start from the same
// registry dir.

// requireHarden answers false after writing the 422 that explains why a
// registry-less daemon has no hardening controller.
func (s *Server) requireHarden(w http.ResponseWriter) bool {
	if s.harden == nil {
		writeErrorCode(w, http.StatusUnprocessableEntity, wire.CodeInvalidSpec,
			"daemon has no model registry (start with -registry): hardening retrains and promotes registry models")
		return false
	}
	return true
}

func (s *Server) handleHardenSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.requireHarden(w) {
		return
	}
	var spec harden.Spec
	if !wire.DecodeJSON(w, r, s.opts.MaxBodyBytes, &spec, false) {
		return
	}
	snap, err := s.harden.Submit(spec)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, snap)
}

// HardenList answers GET /v1/harden.
type HardenList struct {
	Jobs []harden.Snapshot `json:"jobs"`
}

func (s *Server) handleHardenList(w http.ResponseWriter, r *http.Request) {
	if !s.requireHarden(w) {
		return
	}
	writeJSON(w, http.StatusOK, HardenList{Jobs: s.harden.List()})
}

func (s *Server) handleHardenGet(w http.ResponseWriter, r *http.Request) {
	if !s.requireHarden(w) {
		return
	}
	snap, ok := s.harden.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown hardening job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleHardenCancel(w http.ResponseWriter, r *http.Request) {
	if !s.requireHarden(w) {
		return
	}
	snap, ok := s.harden.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown hardening job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusAccepted, snap)
}

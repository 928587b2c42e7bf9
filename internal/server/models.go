package server

import (
	"errors"
	"net/http"

	"malevade/internal/defense"
	"malevade/internal/registry"
	"malevade/internal/wire"
)

// The models API exposes the disk-backed registry (internal/registry) over
// the daemon — named, versioned, durable detectors with atomic live
// promotion:
//
//	GET    /v1/models         list models                      → 200
//	POST   /v1/models         register a model file version    → 200 + model
//	GET    /v1/models/{name}  inspect one model                → 200
//	POST   /v1/models/{name}  {"action":"promote"|"gc", ...}   → 200 + model
//	DELETE /v1/models/{name}  delete the model and its files   → 200
//
// Scoring and label requests address a registered model with the "model"
// body field; campaign specs with "target_model". Error taxonomy: unknown
// names are 404 unknown_model, a missing version (or a model with nothing
// live) is 409 version_conflict, capacity is 507 registry_full, and a
// daemon started without -registry refuses every mutation with 422.

// RegisterModelRequest is the body of POST /v1/models: ingest the model
// file at Path (on the daemon's disk, mirroring /v1/reload semantics) as a
// new version of Name.
type RegisterModelRequest struct {
	// Name is the registry model to append to (created when new).
	Name string `json:"name"`
	// Path is the daemon-side nn.SaveFile model file to ingest.
	Path string `json:"path"`
	// Defenses is the servable defense chain the version is wrapped in
	// whenever it is live (empty registers a bare model).
	Defenses defense.Chain `json:"defenses,omitempty"`
	// Promote makes the new version live immediately; a model's first
	// version is always promoted.
	Promote bool `json:"promote,omitempty"`
	// Pin protects the version from GC once it stops being live.
	Pin bool `json:"pin,omitempty"`
}

// ModelActionRequest is the body of POST /v1/models/{name}.
type ModelActionRequest struct {
	// Action is "promote" (make Version live) or "gc" (drop unpinned
	// non-live versions).
	Action string `json:"action"`
	// Version is the version to promote (promote only).
	Version int `json:"version,omitempty"`
}

// ModelResponse wraps one model's state for register/inspect/action
// responses.
type ModelResponse struct {
	// Model is the model's registry state after the operation.
	Model registry.Info `json:"model"`
	// Removed counts versions a gc action deleted.
	Removed int `json:"removed,omitempty"`
}

// ModelListResponse answers GET /v1/models.
type ModelListResponse struct {
	// Models lists every registered model, sorted by name.
	Models []registry.Info `json:"models"`
}

// DeleteModelResponse answers DELETE /v1/models/{name}.
type DeleteModelResponse struct {
	// Name echoes the deleted model.
	Name string `json:"name"`
	// Deleted is always true on success.
	Deleted bool `json:"deleted"`
}

// writeRegistryError maps a registry failure onto the wire taxonomy.
func writeRegistryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, registry.ErrUnknownModel):
		writeErrorCode(w, http.StatusNotFound, wire.CodeUnknownModel, "%v", err)
	case errors.Is(err, registry.ErrVersionConflict):
		writeError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, registry.ErrFull):
		writeError(w, http.StatusInsufficientStorage, "%v", err)
	case errors.Is(err, registry.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		// Everything else — invalid names, unloadable or wrong-shaped
		// model files, non-servable defense chains — is the client's
		// submission problem.
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
	}
}

// requireRegistry answers nil and renders the refusal when the daemon was
// started without -registry.
func (s *Server) requireRegistry(w http.ResponseWriter) *registry.Registry {
	if s.registry == nil {
		writeError(w, http.StatusUnprocessableEntity,
			"daemon has no model registry (start with -registry)")
		return nil
	}
	return s.registry
}

func (s *Server) handleModelList(w http.ResponseWriter, r *http.Request) {
	if s.registry == nil {
		// A registry-less daemon lists an empty registry rather than
		// erroring: reads are harmless and clients can feature-detect.
		writeJSON(w, http.StatusOK, ModelListResponse{Models: []registry.Info{}})
		return
	}
	writeJSON(w, http.StatusOK, ModelListResponse{Models: s.registry.List()})
}

func (s *Server) handleModelRegister(w http.ResponseWriter, r *http.Request) {
	reg := s.requireRegistry(w)
	if reg == nil {
		return
	}
	var req RegisterModelRequest
	if !wire.DecodeJSON(w, r, 1<<20, &req, false) {
		return
	}
	info, err := reg.Register(registry.RegisterRequest{
		Name:     req.Name,
		Path:     req.Path,
		Defenses: req.Defenses,
		Promote:  req.Promote,
		Pin:      req.Pin,
	})
	if err != nil {
		writeRegistryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ModelResponse{Model: info})
}

func (s *Server) handleModelGet(w http.ResponseWriter, r *http.Request) {
	reg := s.requireRegistry(w)
	if reg == nil {
		return
	}
	info, err := reg.Get(r.PathValue("name"))
	if err != nil {
		writeRegistryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ModelResponse{Model: info})
}

func (s *Server) handleModelAction(w http.ResponseWriter, r *http.Request) {
	reg := s.requireRegistry(w)
	if reg == nil {
		return
	}
	var req ModelActionRequest
	if !wire.DecodeJSON(w, r, 1<<20, &req, false) {
		return
	}
	name := r.PathValue("name")
	switch req.Action {
	case "promote":
		if req.Version <= 0 {
			writeError(w, http.StatusBadRequest, "promote requires a positive version, got %d", req.Version)
			return
		}
		info, err := reg.Promote(name, req.Version)
		if err != nil {
			writeRegistryError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, ModelResponse{Model: info})
	case "gc":
		info, removed, err := reg.GC(name)
		if err != nil {
			writeRegistryError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, ModelResponse{Model: info, Removed: removed})
	default:
		writeError(w, http.StatusBadRequest, "unknown action %q (promote|gc)", req.Action)
	}
}

func (s *Server) handleModelDelete(w http.ResponseWriter, r *http.Request) {
	reg := s.requireRegistry(w)
	if reg == nil {
		return
	}
	name := r.PathValue("name")
	if err := reg.Delete(name); err != nil {
		writeRegistryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, DeleteModelResponse{Name: name, Deleted: true})
}

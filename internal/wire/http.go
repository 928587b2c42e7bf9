package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"malevade/internal/jobs"
)

// The HTTP rendering half of the taxonomy: every service tier that speaks
// the malevade wire contract (the daemon in internal/server, the scoring
// gateway in internal/gateway) renders success bodies and error envelopes
// through these helpers, so the marshal-first discipline — an unencodable
// value becomes a 500 envelope, never a committed 200 with a broken body —
// is defined exactly once.

// WriteJSON renders v as the JSON body of one response. It marshals
// before touching the ResponseWriter: an unencodable value (say, a NaN
// that slipped into a response struct) becomes a 500 error envelope, not
// a silent empty body under an already-committed success status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		buf, _ = json.Marshal(Envelope{
			Error: fmt.Sprintf("encoding response: %v", err),
			Code:  CodeForStatus(status),
		})
	}
	w.Header().Set("Content-Type", ContentTypeJSON)
	w.WriteHeader(status)
	buf = append(buf, '\n')
	_, _ = w.Write(buf)
}

// WriteError renders the error envelope for a refused call, deriving the
// canonical taxonomy code from the status (docs/ERRORS.md is the table).
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteErrorCode(w, status, CodeForStatus(status), format, args...)
}

// WriteErrorCode renders the error envelope with an explicit taxonomy
// code — the path for refinement codes that share a status with a
// canonical one (unknown_model on 404, no_replicas on 503).
func WriteErrorCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	WriteJSON(w, status, Envelope{Error: fmt.Sprintf(format, args...), Code: code})
}

// DecodeJSON strictly decodes a request's JSON body into v: at most limit
// bytes, no unknown fields, nothing after the value. With emptyOK an empty
// body leaves v as it is. On failure it writes the refusal — 413 too_large
// past limit, 400 bad_request otherwise — and returns false.
func DecodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any, emptyOK bool) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == io.EOF && emptyOK:
		return true
	case errors.As(err, &tooLarge):
		WriteError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", limit)
	case err != nil:
		WriteError(w, http.StatusBadRequest, "invalid JSON: %v", err)
	case dec.More():
		WriteError(w, http.StatusBadRequest, "trailing data after JSON body")
	default:
		return true
	}
	return false
}

// WriteSubmitError renders a refused job submission (campaign, hardening
// or mining): a typed *Error as it stands, backpressure as 429 queue_full,
// a closed engine — the service is going away — as 503 unavailable, and
// anything else, a spec the engine rejected, as 422 invalid_spec.
func WriteSubmitError(w http.ResponseWriter, err error) {
	status, code := http.StatusUnprocessableEntity, CodeInvalidSpec
	var we *Error
	switch {
	case errors.As(err, &we):
		status, code = we.Status, we.Code
	case errors.Is(err, jobs.ErrQueueFull):
		status, code = http.StatusTooManyRequests, CodeQueueFull
	case errors.Is(err, jobs.ErrClosed):
		status, code = http.StatusServiceUnavailable, CodeUnavailable
	}
	WriteErrorCode(w, status, code, "%v", err)
}

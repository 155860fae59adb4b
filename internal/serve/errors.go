package serve

import (
	"encoding/json"
	"net/http"
)

// ErrorEnvelope is the one error body every /v1/* endpoint (and the
// /metrics* 500 paths) speaks: a versioned JSON envelope instead of
// ad-hoc text, so clients, the cluster router, and the load generator
// can branch on a stable machine-readable code while the HTTP status
// mapping (statusFor) stays exactly what it was.
//
//	{"error": {"code": "not_found", "message": "...", "retryable": false}}
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody is the payload inside the envelope. Code is one of the
// errorCode* constants; Retryable tells the caller whether the same
// request may succeed later or on a replica (shed load, drains,
// timeouts, backend 5xx) or can never succeed as written (bad keys,
// unknown keys, malformed bodies).
type ErrorBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
}

// Stable error codes, one per status the serving tier emits.
const (
	CodeBadRequest       = "bad_request"        // 400
	CodeNotFound         = "not_found"          // 404
	CodeMethodNotAllowed = "method_not_allowed" // 405
	CodeOverloaded       = "overloaded"         // 429
	CodeCanceled         = "canceled"           // 499
	CodeInternal         = "internal"           // 500
	CodeUpstream         = "upstream"           // 502
	CodeUnavailable      = "unavailable"        // 503 (draining / no healthy backends)
	CodeTimeout          = "timeout"            // 504
)

// ErrorCode maps an HTTP status to its envelope code.
func ErrorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusMethodNotAllowed:
		return CodeMethodNotAllowed
	case http.StatusTooManyRequests:
		return CodeOverloaded
	case 499:
		return CodeCanceled
	case http.StatusInternalServerError:
		return CodeInternal
	case http.StatusServiceUnavailable:
		return CodeUnavailable
	case http.StatusGatewayTimeout:
		return CodeTimeout
	default:
		if status >= 500 {
			return CodeUpstream
		}
		return CodeBadRequest
	}
}

// ErrorRetryable reports whether a status is worth retrying: shed load,
// drains, timeouts, and backend failures are transient; 4xx (and a
// client that hung up, 499) are not.
func ErrorRetryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	case 499:
		return false
	}
	return status >= 500
}

// WriteJSON renders one JSON response. Exported so packages extending the
// /v1 surface through Server.HandleFunc (internal/jobs) emit the same
// shapes as the built-in routes.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// WriteError renders err under its statusFor mapping in the versioned
// envelope. Shed responses (429/503) carry a Retry-After so well-behaved
// clients and the cluster router back off instead of hammering a server
// that said "not now".
func WriteError(w http.ResponseWriter, err error) {
	WriteErrorStatus(w, statusFor(err), err.Error())
}

// WriteErrorStatus renders the envelope for an explicit status — the path
// for errors that exist only at the HTTP layer (405s, malformed bodies)
// and have no sentinel error behind them.
func WriteErrorStatus(w http.ResponseWriter, status int, msg string) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	WriteJSON(w, status, ErrorEnvelope{Error: ErrorBody{
		Code:      ErrorCode(status),
		Message:   msg,
		Retryable: ErrorRetryable(status),
	}})
}

// ParseErrorEnvelope decodes an error payload if it is the versioned
// envelope. Callers (the drill load generator, the cluster router) use it
// to surface the code and message instead of a raw byte dump.
func ParseErrorEnvelope(payload []byte) (ErrorBody, bool) {
	var env ErrorEnvelope
	if err := json.Unmarshal(payload, &env); err != nil || env.Error.Code == "" {
		return ErrorBody{}, false
	}
	return env.Error, true
}

package server

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"time"
)

// The unified error envelope of the convoyd API: every non-2xx response is
//
//	{"error": "<human-readable message>", "code": "<machine-readable slug>"}
//
// The `error` field predates the envelope and is kept for existing clients;
// `code` is the field programs should switch on. Codes are a closed,
// documented set: apiCodes below is the registry, docs/API.md carries the
// matching table, and TestErrorCodesDocumented diffs the two in both
// directions so an undocumented (or phantom-documented) code cannot ship.
// writeError refuses unregistered codes outright — a handler error path
// cannot emit a slug the registry has never heard of.

// apiCode is one machine-readable error code slug.
type apiCode string

const (
	// 400 — the request itself is malformed.
	codeBadRequest apiCode = "bad_request" // unparseable/empty body, body too large, bad feed name
	codeBadParam   apiCode = "bad_param"   // a query/body parameter fails validation
	codeBadCursor  apiCode = "bad_cursor"  // a cursor that never came from this API
	codeBadFrame   apiCode = "bad_frame"   // a K2BI frame fails its structural or CRC checks

	// 404 / 409 / 410 — the request is well-formed but the target is not
	// in a state that can serve it.
	codeUnknownFeed     apiCode = "unknown_feed"
	codeFeedFlushed     apiCode = "feed_flushed"
	codePatternMismatch apiCode = "pattern_mismatch" // ?pattern= differs from the feed's negotiated family
	codeFeedEvicted     apiCode = "feed_evicted"
	codeCursorGone      apiCode = "cursor_gone" // live cursor outside [truncated_before, head)

	// 415 — the ingest content negotiation failed.
	codeUnsupportedMedia apiCode = "unsupported_media_type"

	// 429 — admission control; all of them carry Retry-After.
	codeQueueFull   apiCode = "queue_full"   // shard ingest queue stayed full for -enqueue-wait
	codeRateLimited apiCode = "rate_limited" // per-feed token bucket exhausted (-ingest-rate)
	codeFeedLimit   apiCode = "feed_limit"   // -max-feeds cap reached

	// 5xx.
	codeInternal     apiCode = "internal"
	codeNoArchive    apiCode = "no_archive" // /v1/query or retention without -archive-dir
	codeShuttingDown apiCode = "shutting_down"
)

// apiCodes is the registry of every code the server may emit, mapped to a
// one-line meaning. TestErrorCodesDocumented keeps it equal to the error
// code table in docs/API.md.
var apiCodes = map[apiCode]string{
	codeBadRequest:       "malformed request body or feed name",
	codeBadParam:         "a parameter fails validation",
	codeBadCursor:        "unparseable cursor",
	codeBadFrame:         "invalid K2BI binary frame",
	codeUnknownFeed:      "feed was never ingested",
	codeFeedFlushed:      "ingest into a flushed feed",
	codePatternMismatch:  "feed mines a different pattern family",
	codeFeedEvicted:      "feed was TTL-evicted",
	codeCursorGone:       "live cursor outside the feed's domain",
	codeUnsupportedMedia: "Content-Type not negotiable",
	codeQueueFull:        "shard ingest queue full",
	codeRateLimited:      "per-feed ingest rate limit exceeded",
	codeFeedLimit:        "live feed cap reached",
	codeInternal:         "internal server error",
	codeNoArchive:        "no archive configured",
	codeShuttingDown:     "server is shutting down",
}

// errorCodes returns the sorted registry for enforcement tests.
func errorCodes() map[apiCode]string { return apiCodes }

type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// writeError writes the unified error envelope. The code must come from the
// registry above — an unregistered slug is a server bug and panics (net/http
// recovers it into a 500, and any test touching the path fails loudly).
func writeError(w http.ResponseWriter, status int, code apiCode, msg string) {
	if _, ok := apiCodes[code]; !ok {
		panic("server: undocumented API error code " + string(code))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: msg, Code: string(code)})
}

// writeRetryError is writeError for 429s: the backpressure contract says
// every 429 tells the client when to come back. Retry-After is expressed in
// whole seconds, rounded up, at least 1.
func writeRetryError(w http.ResponseWriter, code apiCode, msg string, after time.Duration) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(after)))
	writeError(w, http.StatusTooManyRequests, code, msg)
}

// retryAfterSeconds converts a wait hint to the Retry-After value: whole
// seconds, rounded up, floored at 1 (a "0" would invite an immediate retry
// storm from the very clients being shed).
func retryAfterSeconds(after time.Duration) int {
	if after <= 0 {
		return 1
	}
	secs := int(math.Ceil(after.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// apiError carries a ready-to-write error response through parsing helpers
// that run before any status has been committed.
type apiError struct {
	status int
	code   apiCode
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func (e *apiError) write(w http.ResponseWriter) {
	writeError(w, e.status, e.code, e.msg)
}

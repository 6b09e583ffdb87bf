package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	convoy "repro"
)

// The wire types of the JSON API. Positions mirror model.ObjPos; convoys
// mirror model.Convoy.

type positionJSON struct {
	OID int32   `json:"oid"`
	X   float64 `json:"x"`
	Y   float64 `json:"y"`
}

type snapshotJSON struct {
	T         int32          `json:"t"`
	Positions []positionJSON `json:"positions"`
}

type ingestRequest struct {
	Snapshots []snapshotJSON `json:"snapshots"`
}

type ingestResponse struct {
	Accepted int `json:"accepted"`
	// Frames is the number of binary frames decoded; only set on K2BI
	// ingest (a JSON batch has no frames).
	Frames int `json:"frames,omitempty"`
}

type convoyJSON struct {
	Objs  []int32 `json:"objs"`
	Start int32   `json:"start"`
	End   int32   `json:"end"`
	// Clusters is the per-tick cluster sequence (Clusters[i] is the cluster
	// at Start+i); only moving-cluster feeds set it. For them Objs is the
	// lifetime footprint, not a co-present group.
	Clusters [][]int32 `json:"clusters,omitempty"`
}

type convoysResponse struct {
	// Pattern is the feed's pattern family ("convoy", "flock" or "mc").
	Pattern string `json:"pattern"`
	Cursor  int    `json:"cursor"`
	// TruncatedBefore is the lower bound of the live cursor domain: convoys
	// below it were persisted to the log and dropped from memory, and
	// querying them answers 410 Gone.
	TruncatedBefore int          `json:"truncated_before"`
	Convoys         []convoyJSON `json:"convoys"`
	Flushed         bool         `json:"flushed"`
}

// maxIngestBody bounds one ingest request (16 MiB, JSON or binary).
const maxIngestBody = 16 << 20

// maxLongPoll caps the wait parameter of the convoys endpoint.
const maxLongPoll = 60 * time.Second

// maxLiveLimit caps the limit parameter of the live convoys endpoint,
// matching archive.MaxLimit so both query families speak one vocabulary.
const maxLiveLimit = 1000

// route is one registered endpoint. The table (not the mux) is the single
// source of truth for what the server serves: Handler builds the mux from
// it, Routes exposes it, and a test diffs it against docs/API.md so the
// reference cannot drift from the code.
type route struct {
	pattern string
	handler http.HandlerFunc
}

func (s *Server) routes() []route {
	return []route{
		{"POST /v1/feeds/{feed}/ingest", s.handleIngest},
		{"GET /v1/feeds/{feed}/convoys", s.handleConvoys},
		{"POST /v1/feeds/{feed}/flush", s.handleFlush},
		{"GET /v1/query/time", s.handleQueryTime},
		{"GET /v1/query/object", s.handleQueryObject},
		{"GET /v1/query/convoys", s.handleQueryConvoys},
		{"POST /v1/admin/retention", s.handleRetention},
		{"GET /v1/stats", s.handleStats},
		{"GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("ok\n"))
		}},
	}
}

// Routes returns every registered "METHOD /path" pattern.
func (s *Server) Routes() []string {
	var out []string
	for _, r := range s.routes() {
		out = append(out, r.pattern)
	}
	return out
}

// Handler returns the convoyd HTTP API:
//
//	POST /v1/feeds/{feed}/ingest          ingest (JSON or K2BI binary, by Content-Type)
//	GET  /v1/feeds/{feed}/convoys         closed convoys since ?cursor, long-poll via ?wait
//	POST /v1/feeds/{feed}/flush           end the feed, return the full maximal set
//	GET  /v1/query/time                   archived convoys overlapping [?from, ?to]
//	GET  /v1/query/object                 archived convoys containing ?oid
//	GET  /v1/query/convoys                archived convoys by ?min_size / ?min_dur
//	POST /v1/admin/retention              expire archived convoys ending before a tick
//	GET  /v1/stats                        shard queues + per-feed counters + archive + admission
//	GET  /healthz                         liveness
//
// docs/API.md is the request/response reference for all of them.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, r := range s.routes() {
		mux.HandleFunc(r.pattern, r.handler)
	}
	return mux
}

// handleIngest serves one ingest batch, negotiating the wire format on
// Content-Type: application/json (or none) takes the original JSON body,
// application/x-k2bi takes a sequence of K2BI binary frames. Anything else
// is 415.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	binary, ok := negotiateIngest(w, r)
	if !ok {
		return
	}
	// The body parses before the feed resolves: a rejected body creates no
	// feed.
	parse := parseJSONBatch
	if binary {
		parse = parseBinaryBatch
	}
	batch, err := parse(http.MaxBytesReader(w, r.Body, maxIngestBody))
	if err == nil {
		err = s.ingestInto(r, batch)
	}
	if err != nil {
		writeServerError(w, err)
		return
	}
	resp := ingestResponse{Accepted: len(batch)}
	if binary {
		resp.Frames = len(batch)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(resp)
}

// patternParam parses the optional ?pattern= query parameter. Absent means
// unconstrained (match any existing feed; create the default family).
func patternParam(r *http.Request) (convoy.Pattern, *apiError) {
	ps := r.URL.Query().Get("pattern")
	if ps == "" {
		return "", nil
	}
	pat, err := convoy.ParsePattern(ps)
	if err != nil {
		return "", &apiError{status: http.StatusBadRequest, code: codeBadParam, msg: err.Error()}
	}
	return pat, nil
}

func (s *Server) handleConvoys(w http.ResponseWriter, r *http.Request) {
	f, err := s.feedFor(r.PathValue("feed"), false, "")
	if err != nil {
		writeServerError(w, err)
		return
	}
	if f == nil {
		writeError(w, http.StatusNotFound, codeUnknownFeed, "unknown feed")
		return
	}
	var cursor int
	if c := r.URL.Query().Get("cursor"); c != "" {
		cursor, err = strconv.Atoi(c)
		if err != nil || cursor < 0 {
			writeError(w, http.StatusBadRequest, codeBadCursor, "bad cursor")
			return
		}
	}
	// limit caps one response page, sharing the archive endpoints'
	// vocabulary (same name, same 1000 cap). 0 (the default) keeps the
	// original behavior: everything from the cursor to the head.
	var limit int
	if ls := r.URL.Query().Get("limit"); ls != "" {
		limit, err = strconv.Atoi(ls)
		if err != nil || limit <= 0 {
			writeError(w, http.StatusBadRequest, codeBadParam, "bad limit")
			return
		}
		if limit > maxLiveLimit {
			writeError(w, http.StatusBadRequest, codeBadParam,
				fmt.Sprintf("limit %d exceeds the maximum %d", limit, maxLiveLimit))
			return
		}
	}
	var wait time.Duration
	if ws := r.URL.Query().Get("wait"); ws != "" {
		wait, err = time.ParseDuration(ws)
		if err != nil || wait < 0 {
			writeError(w, http.StatusBadRequest, codeBadParam, "bad wait duration")
			return
		}
		if wait > maxLongPoll {
			wait = maxLongPoll
		}
	}
	if !s.touchFeed(f) {
		writeError(w, http.StatusGone, codeFeedEvicted, ErrFeedEvicted.Error())
		return
	}
	if wait > 0 {
		// A blocked long-poll counts as activity: the sweep skips feeds
		// with waiters, so a connected client's feed cannot be evicted
		// under it no matter how its wait compares to FeedTTL. (A sweep
		// already past this check still wakes us to an explicit 410.)
		f.waiters.Add(1)
		defer f.waiters.Add(-1)
	}
	deadline := time.Now().Add(wait)
	for {
		f.mu.Lock()
		// Checked under f.mu: eviction stores the flag before wake() takes
		// this lock to close notify, so a poller either sees the flag here
		// or captures the notify channel that wake() is about to close —
		// it can never sleep through its own eviction.
		if f.evicted.Load() {
			f.mu.Unlock()
			writeError(w, http.StatusGone, codeFeedEvicted, ErrFeedEvicted.Error())
			return
		}
		head, flushed := f.head(), f.flushed
		if cursor < f.start {
			// The requested range was persisted to the log and truncated
			// from memory: the live cursor domain is [truncatedBefore,
			// head). 410 tells the client to restart from truncatedBefore
			// (or replay the persisted log for the full history).
			start := f.start
			f.mu.Unlock()
			writeError(w, http.StatusGone, codeCursorGone, fmt.Sprintf(
				"cursor %d predates truncated history; live cursor domain is [%d,%d)", cursor, start, head))
			return
		}
		if cursor > head {
			// A cursor the current feed incarnation never issued: the feed
			// was evicted and recreated (the domain restarted), or the
			// client is confused. Silently clamping would rewind the
			// client's position and re-deliver convoys it thinks it has
			// seen — 410 makes the domain reset explicit instead.
			start := f.start
			f.mu.Unlock()
			writeError(w, http.StatusGone, codeCursorGone, fmt.Sprintf(
				"cursor %d is beyond this feed's history; live cursor domain is [%d,%d)", cursor, start, head))
			return
		}
		if head > cursor || flushed || wait == 0 || !time.Now().Before(deadline) {
			lo := cursor - f.start
			avail := f.closed[lo:]
			if limit > 0 && len(avail) > limit {
				avail = avail[:limit]
			}
			out := make([]convoyJSON, 0, len(avail))
			for _, c := range avail {
				out = append(out, toConvoyJSON(c))
			}
			next := cursor + len(out)
			tb := f.start
			f.mu.Unlock()
			// A truncated page must not report flushed: a client that stops
			// polling at flushed=true would miss the convoys past the limit.
			writeJSON(w, convoysResponse{
				Pattern: string(f.pattern),
				Cursor:  next, TruncatedBefore: tb, Convoys: out,
				Flushed: flushed && next == head,
			})
			return
		}
		ch := f.notify
		f.mu.Unlock()
		timer := time.NewTimer(time.Until(deadline))
		select {
		case <-ch:
			timer.Stop()
		case <-timer.C:
		case <-r.Context().Done():
			timer.Stop()
			return
		}
	}
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	f, err := s.feedFor(r.PathValue("feed"), false, "")
	if err != nil {
		writeServerError(w, err)
		return
	}
	if f == nil {
		writeError(w, http.StatusNotFound, codeUnknownFeed, "unknown feed")
		return
	}
	reply := make(chan []convoy.PatternResult, 1)
	if err := s.enqueue(r.Context(), shardMsg{feed: f, flushReply: reply}); err != nil {
		writeServerError(w, err)
		return
	}
	select {
	case final := <-reply:
		out := make([]convoyJSON, 0, len(final))
		for _, c := range final {
			out = append(out, toConvoyJSON(c))
		}
		// The cursor lives in the /convoys domain (an index into the feed's
		// published-closed list), which is not the same as len(final): the
		// published list also holds convoys later superseded in the maximal
		// set. Report the real position so a client can keep polling with it.
		f.mu.Lock()
		cursor, tb := f.head(), f.start
		f.mu.Unlock()
		writeJSON(w, convoysResponse{
			Pattern: string(f.pattern),
			Cursor:  cursor, TruncatedBefore: tb, Convoys: out, Flushed: true,
		})
	case <-r.Context().Done():
		// The flush still completes server-side; the client just left.
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}

func toConvoyJSON(c convoy.PatternResult) convoyJSON {
	out := convoyJSON{Objs: append([]int32(nil), c.Objs...), Start: c.Start, End: c.End}
	for _, cl := range c.Clusters {
		out.Clusters = append(out.Clusters, append([]int32(nil), cl...))
	}
	return out
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// writeServerError writes an apiError as it is and maps sentinel errors to
// HTTP statuses. A canceled or timed-out request context writes nothing: the
// client is gone, and the point of threading the context into enqueue is to
// release the handler goroutine promptly, not to craft a response nobody
// reads. Every 429 carries Retry-After — the explicit backpressure contract.
func writeServerError(w http.ResponseWriter, err error) {
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		ae.write(w)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
	case errors.Is(err, ErrBackpressure):
		writeRetryError(w, codeQueueFull, err.Error(), retryAfter(err, time.Second))
	case errors.Is(err, ErrRateLimited):
		writeRetryError(w, codeRateLimited, err.Error(), retryAfter(err, time.Second))
	case errors.Is(err, ErrFeedLimit):
		writeRetryError(w, codeFeedLimit, err.Error(), retryAfter(err, time.Second))
	case errors.Is(err, ErrPatternMismatch):
		writeError(w, http.StatusConflict, codePatternMismatch, err.Error())
	case errors.Is(err, ErrFeedEvicted):
		writeError(w, http.StatusGone, codeFeedEvicted, err.Error())
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, codeShuttingDown, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
	}
}

package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"repro/internal/storage/archive"
)

// The historical query endpoints. They read the LSM-indexed archive, never
// the live feeds: results cover everything the persist tick has made
// durable in the convoy log (it indexes each round right after the log
// fsync), and the handlers share no locks with the ingest path.

// archivedConvoyJSON is one archived convoy with the feed it was mined
// from — the /v1/query result element.
type archivedConvoyJSON struct {
	Feed  string  `json:"feed"`
	Objs  []int32 `json:"objs"`
	Start int32   `json:"start"`
	End   int32   `json:"end"`
}

// queryResponse is one page of /v1/query results. Cursor is the opaque
// resume token: present exactly when More, pass it back verbatim as
// ?cursor= to continue. Scanned counts the index entries the page
// examined (the budget currency).
type queryResponse struct {
	Convoys []archivedConvoyJSON `json:"convoys"`
	Cursor  string               `json:"cursor,omitempty"`
	More    bool                 `json:"more"`
	Scanned int                  `json:"scanned"`
}

// queryParams parses the controls shared by all three query endpoints:
// limit, cursor, min_size, min_dur, feed. Returns ok=false after writing
// the 400.
func (s *Server) queryParams(w http.ResponseWriter, r *http.Request) (archive.Query, bool) {
	var q archive.Query
	get := r.URL.Query()
	for name, dst := range map[string]*int{"limit": &q.Limit, "min_size": &q.MinSize, "min_dur": &q.MinDur} {
		if v := get.Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				writeError(w, http.StatusBadRequest, codeBadParam, "bad "+name)
				return archive.Query{}, false
			}
			*dst = n
		}
	}
	if v := get.Get("limit"); v != "" && q.Limit > archive.MaxLimit {
		writeError(w, http.StatusBadRequest, codeBadParam,
			fmt.Sprintf("limit %d exceeds the maximum %d", q.Limit, archive.MaxLimit))
		return archive.Query{}, false
	}
	cur, err := archive.ParseCursor(get.Get("cursor"))
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadCursor, "bad cursor")
		return archive.Query{}, false
	}
	q.Cursor = cur
	q.Feed = get.Get("feed")
	return q, true
}

// parseTick parses an int32 query parameter, substituting def when absent.
func parseTick(get map[string][]string, name string, def int32) (int32, error) {
	vs := get[name]
	if len(vs) == 0 || vs[0] == "" {
		return def, nil
	}
	n, err := strconv.ParseInt(vs[0], 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad %s", name)
	}
	return int32(n), nil
}

// queryArchive guards the common preconditions and writes the page.
func (s *Server) queryArchive(w http.ResponseWriter,
	run func() (archive.Result, error)) {
	if s.arch == nil {
		writeError(w, http.StatusNotImplemented, codeNoArchive,
			"historical queries need an archive; start convoyd with -archive-dir")
		return
	}
	res, err := run()
	if err != nil {
		// Every user-input error is rejected during parameter parsing, so
		// an error out of the archive itself is internal (a log or index
		// read failure), never the caller's fault.
		writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
		return
	}
	out := queryResponse{
		Convoys: make([]archivedConvoyJSON, 0, len(res.Records)),
		More:    res.More,
		Scanned: res.Scanned,
	}
	if res.More {
		out.Cursor = res.Next.String()
	}
	for _, rec := range res.Records {
		out.Convoys = append(out.Convoys, archivedConvoyJSON{
			Feed:  rec.Feed,
			Objs:  append([]int32(nil), rec.Convoy.Objs...),
			Start: rec.Convoy.Start,
			End:   rec.Convoy.End,
		})
	}
	writeJSON(w, out)
}

// handleQueryTime serves GET /v1/query/time: archived convoys whose
// lifespan overlaps the inclusive tick interval [?from, ?to] (defaults:
// the whole axis).
func (s *Server) handleQueryTime(w http.ResponseWriter, r *http.Request) {
	q, ok := s.queryParams(w, r)
	if !ok {
		return
	}
	get := r.URL.Query()
	from, err := parseTick(get, "from", math.MinInt32)
	if err == nil {
		var to int32
		if to, err = parseTick(get, "to", math.MaxInt32); err == nil {
			if from > to {
				writeError(w, http.StatusBadRequest, codeBadParam,
					fmt.Sprintf("empty interval [%d,%d]", from, to))
				return
			}
			s.queryArchive(w, func() (archive.Result, error) { return s.arch.QueryTime(from, to, q) })
			return
		}
	}
	writeError(w, http.StatusBadRequest, codeBadParam, err.Error())
}

// handleQueryObject serves GET /v1/query/object: archived convoys
// containing the object ?oid (required).
func (s *Server) handleQueryObject(w http.ResponseWriter, r *http.Request) {
	q, ok := s.queryParams(w, r)
	if !ok {
		return
	}
	v := r.URL.Query().Get("oid")
	if v == "" {
		writeError(w, http.StatusBadRequest, codeBadParam, "missing oid")
		return
	}
	oid, err := strconv.ParseInt(v, 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadParam, "bad oid")
		return
	}
	s.queryArchive(w, func() (archive.Result, error) { return s.arch.QueryObject(int32(oid), q) })
}

// handleQueryConvoys serves GET /v1/query/convoys: archived convoys with
// at least ?min_size objects and ?min_dur ticks, in ascending size order.
func (s *Server) handleQueryConvoys(w http.ResponseWriter, r *http.Request) {
	q, ok := s.queryParams(w, r)
	if !ok {
		return
	}
	s.queryArchive(w, func() (archive.Result, error) { return s.arch.QueryConvoys(q) })
}

// retentionRequest is the POST /v1/admin/retention body. Before is a
// pointer so "absent" and "tick 0" are distinguishable.
type retentionRequest struct {
	Before *int32 `json:"before"`
}

// retentionResponse reports what the expiry did: the number of convoys
// removed and the watermark now in force (which can exceed the requested
// tick when a previous call set a higher one — the watermark is
// monotonic).
type retentionResponse struct {
	Expired int64 `json:"expired"`
	Before  int32 `json:"before"`
}

// maxRetentionBody bounds the admin request body.
const maxRetentionBody = 1 << 16

// handleRetention serves POST /v1/admin/retention: expire archived
// convoys whose End tick precedes the requested one. The expiry runs
// synchronously under the archive's write lock (Index from the persist
// tick simply waits), and a failure latches the archive broken exactly
// like a write error — a half-applied expiry must not keep indexing
// records it might resurrect. The convoy log is never touched: re-indexing
// any part of it skips everything below the durable watermark.
func (s *Server) handleRetention(w http.ResponseWriter, r *http.Request) {
	if s.arch == nil {
		writeError(w, http.StatusNotImplemented, codeNoArchive,
			"retention needs an archive; start convoyd with -archive-dir")
		return
	}
	if s.archBroken.Load() {
		writeError(w, http.StatusInternalServerError, codeInternal, "archive disabled by an earlier write error")
		return
	}
	var req retentionRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRetentionBody)).Decode(&req); err != nil || req.Before == nil {
		writeError(w, http.StatusBadRequest, codeBadParam, `body must be {"before": <tick>}`)
		return
	}
	expired, err := s.arch.Expire(*req.Before)
	if err != nil {
		s.archBroken.Store(true)
		writeError(w, http.StatusInternalServerError, codeInternal, "retention: "+err.Error())
		return
	}
	st := s.arch.Stats()
	resp := retentionResponse{Expired: expired, Before: *req.Before}
	if st.ExpiredBefore != nil {
		resp.Before = *st.ExpiredBefore
	}
	writeJSON(w, resp)
}

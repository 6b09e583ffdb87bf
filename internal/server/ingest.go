package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"strings"
	"sync"

	"repro/internal/model"
	"repro/internal/storage"
)

// The negotiated ingest wire formats. JSON is the original protocol and the
// default; K2BI is the binary batch-frame protocol (see
// internal/storage/batchframe.go and docs/API.md) for high-rate feeds.
const (
	contentTypeJSON = "application/json"
	contentTypeK2BI = "application/x-k2bi"
)

// negotiateIngest picks the wire format from the request's Content-Type.
// Absent or empty Content-Type means JSON (the pre-negotiation protocol),
// and so does application/x-www-form-urlencoded — curl's -d default, which
// every documented quickstart client sent before negotiation existed.
// Anything other than those is answered with 415 and the negotiable set,
// per RFC 9110.
func negotiateIngest(w http.ResponseWriter, r *http.Request) (binary, ok bool) {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return false, true
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		writeError(w, http.StatusUnsupportedMediaType, codeUnsupportedMedia,
			fmt.Sprintf("unparseable Content-Type %q; use %s or %s", ct, contentTypeJSON, contentTypeK2BI))
		return false, false
	}
	switch mt {
	case contentTypeJSON, "application/x-www-form-urlencoded":
		return false, true
	case contentTypeK2BI:
		return true, true
	default:
		writeError(w, http.StatusUnsupportedMediaType, codeUnsupportedMedia,
			fmt.Sprintf("unsupported Content-Type %q; use %s or %s", mt, contentTypeJSON, contentTypeK2BI))
		return false, false
	}
}

// checkFinite rejects the coordinates the miner cannot digest. Both wire
// formats share this rule — K2BI can physically carry NaN/Inf bits (the
// codec round-trips them so corruption surfaces as a CRC error, not a
// silent value change), but the API contract is finite coordinates only.
func checkFinite(t int32, pos []model.ObjPos) *apiError {
	for _, p := range pos {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			return &apiError{
				status: http.StatusBadRequest, code: codeBadParam,
				msg: fmt.Sprintf("non-finite coordinate for oid %d at t=%d", p.OID, t),
			}
		}
	}
	return nil
}

// parseJSONBatch decodes the original JSON ingest body into shard ticks.
func parseJSONBatch(body io.Reader) ([]tick, error) {
	var req ingestRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return nil, &apiError{status: http.StatusBadRequest, code: codeBadRequest, msg: "bad ingest body: " + err.Error()}
	}
	if len(req.Snapshots) == 0 {
		return nil, &apiError{status: http.StatusBadRequest, code: codeBadRequest, msg: "no snapshots in batch"}
	}
	batch := make([]tick, 0, len(req.Snapshots))
	for _, sn := range req.Snapshots {
		pos := make([]model.ObjPos, 0, len(sn.Positions))
		for _, p := range sn.Positions {
			pos = append(pos, model.ObjPos{OID: p.OID, X: p.X, Y: p.Y})
		}
		if aerr := checkFinite(sn.T, pos); aerr != nil {
			return nil, aerr
		}
		batch = append(batch, tick{t: sn.T, pos: pos})
	}
	return batch, nil
}

// frameReaders recycles K2BI decoders across unary ingest requests: each
// holds a 64 KiB read buffer and a frame buffer sized to a city tick, which
// were the second-largest source of garbage on the ingest path after the
// decoded positions themselves.
var frameReaders = sync.Pool{New: func() any { return storage.NewBatchFrameReader(nil) }}

// parseBinaryBatch decodes a body of concatenated K2BI frames into shard
// ticks, one tick per frame. The whole body must parse: a structurally bad
// or truncated frame rejects the request (the shard never sees a partial
// batch), mirroring how an unparseable JSON body rejects wholesale.
func parseBinaryBatch(body io.Reader) ([]tick, error) {
	dec := frameReaders.Get().(*storage.BatchFrameReader)
	dec.Reset(body)
	defer func() {
		dec.Reset(nil) // do not pin the request body
		frameReaders.Put(dec)
	}()
	var batch []tick
	if _, err := readFrames(dec, func(tk tick) error {
		batch = append(batch, tk)
		return nil
	}); err != nil {
		return nil, err
	}
	if len(batch) == 0 {
		return nil, &apiError{status: http.StatusBadRequest, code: codeBadRequest, msg: "no frames in batch"}
	}
	return batch, nil
}

// readFrames is the K2BI decode loop of both binary ingest endpoints: it
// hands every frame of dec to emit as one tick and returns how many it
// handed over. It stops at the first failure — a frame that does not decode
// (reported under the number of frames before it), a non-finite coordinate,
// or emit's own error.
func readFrames(dec *storage.BatchFrameReader, emit func(tick) error) (frames int, err error) {
	for {
		t, pos, err := dec.Next(nil)
		if err == io.EOF {
			return frames, nil
		}
		if err != nil {
			return frames, frameError(err, frames)
		}
		if aerr := checkFinite(t, pos); aerr != nil {
			return frames, aerr
		}
		frames++
		if err := emit(tick{t: t, pos: pos}); err != nil {
			return frames, err
		}
	}
}

// frameError maps a K2BI decode failure to the API error envelope.
func frameError(err error, frame int) *apiError {
	switch {
	case errors.Is(err, io.ErrUnexpectedEOF):
		return &apiError{status: http.StatusBadRequest, code: codeBadFrame,
			msg: fmt.Sprintf("frame %d truncated", frame)}
	case errors.Is(err, storage.ErrBadFrame):
		return &apiError{status: http.StatusBadRequest, code: codeBadFrame,
			msg: fmt.Sprintf("frame %d: %v", frame, err)}
	case strings.Contains(err.Error(), "request body too large"):
		// http.MaxBytesReader's error surfaces through the frame reader.
		return &apiError{status: http.StatusBadRequest, code: codeBadRequest,
			msg: fmt.Sprintf("ingest body exceeds %d bytes", maxIngestBody)}
	default:
		return &apiError{status: http.StatusBadRequest, code: codeBadFrame,
			msg: fmt.Sprintf("frame %d: %v", frame, err)}
	}
}

// streamChunkTicks is how many decoded frames the stream endpoint coalesces
// into one shard enqueue. Admission (token bucket, breaker, queue) runs per
// chunk, so a stream client gets backpressure at tick granularity instead
// of per-request granularity.
const streamChunkTicks = 16

type streamResponse struct {
	Accepted int `json:"accepted"`
	Frames   int `json:"frames"`
}

// ingestInto resolves the feed an ingest request writes to — created on
// first use, under the family ?pattern= names — and returns the function
// that admits a batch of ticks into it. The unary endpoint admits its one
// batch, the stream endpoint every chunk. An empty name or unknown pattern
// is 400; a family mismatch or an already flushed feed, 409.
//
// admit recovers once from the feed being TTL-evicted between lookup and
// enqueue (or mid-stream, under a slow client): it starts a fresh feed
// lifecycle under the same name and retries.
func (s *Server) ingestInto(r *http.Request) (admit func(batch []tick) error, err error) {
	name := r.PathValue("feed")
	if name == "" {
		return nil, &apiError{status: http.StatusBadRequest, code: codeBadRequest, msg: "empty feed name"}
	}
	pat, aerr := patternParam(r)
	if aerr != nil {
		return nil, aerr
	}
	f, err := s.feedFor(name, true, pat)
	if err != nil {
		return nil, err
	}
	if _, flushed := f.snapshotStats(); flushed {
		return nil, &apiError{status: http.StatusConflict, code: codeFeedFlushed, msg: "feed already flushed"}
	}
	return func(batch []tick) error {
		err := s.admitIngest(r.Context(), f, batch)
		if errors.Is(err, ErrFeedEvicted) {
			if f, err = s.feedFor(name, true, pat); err == nil {
				err = s.admitIngest(r.Context(), f, batch)
			}
		}
		return err
	}, nil
}

// handleIngestStream serves the sticky binary ingest endpoint: the client
// holds one connection open and writes K2BI frames back to back; the server
// resolves the feed and shard once and enqueues decoded ticks in chunks.
// The response reports totals once the stream ends. Mid-stream failures
// (bad frame, admission rejection) terminate the stream with the usual
// error envelope; everything enqueued before the failure stays enqueued,
// and the client resumes by reconnecting and sending from the first
// unaccepted frame.
func (s *Server) handleIngestStream(w http.ResponseWriter, r *http.Request) {
	if ct := r.Header.Get("Content-Type"); ct != "" {
		if mt, _, err := mime.ParseMediaType(ct); err != nil || mt != contentTypeK2BI {
			writeError(w, http.StatusUnsupportedMediaType, codeUnsupportedMedia,
				fmt.Sprintf("stream ingest is %s only, got %q", contentTypeK2BI, ct))
			return
		}
	}
	admit, err := s.ingestInto(r)
	if err != nil {
		writeServerError(w, err)
		return
	}
	accepted := 0
	chunk := make([]tick, 0, streamChunkTicks)
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		if err := admit(chunk); err != nil {
			return err
		}
		accepted += len(chunk)
		// Fresh slice, not chunk[:0]: the enqueued message owns the old
		// backing array until the shard actor has processed it.
		chunk = make([]tick, 0, streamChunkTicks)
		return nil
	}
	frames, err := readFrames(storage.NewBatchFrameReader(r.Body), func(tk tick) error {
		chunk = append(chunk, tk)
		if len(chunk) < streamChunkTicks {
			return nil
		}
		return flush()
	})
	if err == nil {
		err = flush()
	}
	if err != nil {
		writeServerError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(streamResponse{Accepted: accepted, Frames: frames})
}

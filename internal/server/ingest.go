package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
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

// parseJSONBatch decodes the JSON ingest body into shard ticks. The body is
// exactly one batch object: anything after it but whitespace rejects the
// request, so a second concatenated batch cannot be dropped while the
// response counts only the first.
func parseJSONBatch(body io.Reader) ([]tick, error) {
	var req ingestRequest
	dec := json.NewDecoder(body)
	if err := dec.Decode(&req); err != nil {
		return nil, badBody(err, codeBadRequest, "bad ingest body: "+err.Error())
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, badBody(err, codeBadRequest, "bad ingest body: data after the batch object")
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

// frameReaders recycles K2BI decoders across ingest requests: each holds a
// 64 KiB read buffer and a frame buffer sized to a city tick, which were the
// second-largest source of garbage on the ingest path after the decoded
// positions themselves.
var frameReaders = sync.Pool{New: func() any { return storage.NewBatchFrameReader(nil) }}

// parseBinaryBatch decodes a body of concatenated K2BI frames into shard
// ticks, one tick per frame, each with its own positions slice (the shard
// owns them once enqueued). The whole body must parse: a structurally bad or
// truncated frame, reported under the number of frames before it, or a
// non-finite coordinate rejects the request (the shard never sees a partial
// batch), mirroring how an unparseable JSON body rejects wholesale.
func parseBinaryBatch(body io.Reader) ([]tick, error) {
	dec := frameReaders.Get().(*storage.BatchFrameReader)
	dec.Reset(body)
	defer func() {
		dec.Reset(nil) // do not pin the request body
		frameReaders.Put(dec)
	}()
	var batch []tick
	for {
		t, pos, err := dec.Next(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, frameError(err, len(batch))
		}
		if aerr := checkFinite(t, pos); aerr != nil {
			return nil, aerr
		}
		batch = append(batch, tick{t: t, pos: pos})
	}
	if len(batch) == 0 {
		return nil, &apiError{status: http.StatusBadRequest, code: codeBadRequest, msg: "no frames in batch"}
	}
	return batch, nil
}

// frameError maps a K2BI decode failure to the API error envelope.
func frameError(err error, frame int) *apiError {
	msg := fmt.Sprintf("frame %d: %v", frame, err)
	if errors.Is(err, io.ErrUnexpectedEOF) {
		msg = fmt.Sprintf("frame %d truncated", frame)
	}
	return badBody(err, codeBadFrame, msg)
}

// badBody is the 400 for an ingest body that failed to read or parse with
// err: code and msg, unless err is http.MaxBytesReader's cap firing, which
// both wire formats answer with the same bad_request.
func badBody(err error, code apiCode, msg string) *apiError {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code, msg = codeBadRequest, fmt.Sprintf("ingest body exceeds %d bytes", tooLarge.Limit)
	}
	return &apiError{status: http.StatusBadRequest, code: code, msg: msg}
}

// ingestInto resolves the feed an ingest request writes to — created on
// first use, under the family ?pattern= names — and admits batch into it.
// An empty name or unknown pattern is 400; a family mismatch or an already
// flushed feed, 409. If the feed is TTL-evicted between lookup and enqueue,
// the batch is retried once on a fresh feed lifecycle under the same name.
func (s *Server) ingestInto(r *http.Request, batch []tick) error {
	name := r.PathValue("feed")
	if name == "" {
		return &apiError{status: http.StatusBadRequest, code: codeBadRequest, msg: "empty feed name"}
	}
	pat, aerr := patternParam(r)
	if aerr != nil {
		return aerr
	}
	f, err := s.feedFor(name, true, pat)
	if err != nil {
		return err
	}
	if _, flushed := f.snapshotStats(); flushed {
		return &apiError{status: http.StatusConflict, code: codeFeedFlushed, msg: "feed already flushed"}
	}
	err = s.admitIngest(r.Context(), f, batch)
	if errors.Is(err, ErrFeedEvicted) {
		if f, err = s.feedFor(name, true, pat); err == nil {
			err = s.admitIngest(r.Context(), f, batch)
		}
	}
	return err
}

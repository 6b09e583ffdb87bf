package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/minetest"
	"repro/internal/model"
	"repro/internal/storage"
)

// encodeDataset encodes ticks [ts, te] of a dataset as one K2BI frame per
// tick, concatenated.
func encodeDataset(t testing.TB, ds *model.Dataset, ts, te int32) []byte {
	return encodeSnapshots(t, snapshotsOf(ds, ts, te))
}

// encodeSnapshots encodes wire snapshots as one K2BI frame each,
// concatenated.
func encodeSnapshots(t testing.TB, snaps []snapshotJSON) []byte {
	t.Helper()
	var buf []byte
	for _, sn := range snaps {
		pos := make([]model.ObjPos, len(sn.Positions))
		for i, p := range sn.Positions {
			pos[i] = model.ObjPos{OID: p.OID, X: p.X, Y: p.Y}
		}
		var err error
		if buf, err = storage.AppendBatchFrame(buf, sn.T, pos); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// postBinary posts a K2BI body.
func postBinary(t testing.TB, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentTypeK2BI, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// decodeEnvelope parses the unified error envelope and requires both fields.
func decodeEnvelope(t *testing.T, body []byte) errorResponse {
	t.Helper()
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body %q is not the envelope: %v", body, err)
	}
	if e.Error == "" || e.Code == "" {
		t.Fatalf("error envelope %q is missing a field", body)
	}
	if _, ok := apiCodes[apiCode(e.Code)]; !ok {
		t.Fatalf("error envelope carries unregistered code %q", e.Code)
	}
	return e
}

// TestIngestNegotiation covers the Content-Type dispatch of the ingest
// endpoint: JSON by default, binary on application/x-k2bi, 415 with the
// envelope for anything else.
func TestIngestNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2})
	ds := minetest.Random(1, 10, 16)

	jsonBody, _ := json.Marshal(ingestRequest{Snapshots: snapshotsOf(ds, 0, 0)})
	// x-www-form-urlencoded is what curl -d sends; clients from before
	// negotiation existed used exactly that, so it must stay JSON.
	for _, ct := range []string{"", "application/json", "application/json; charset=utf-8",
		"application/x-www-form-urlencoded"} {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/feeds/neg/ingest", bytes.NewReader(jsonBody))
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("Content-Type %q: status %d, want 202", ct, resp.StatusCode)
		}
	}

	frame := encodeDataset(t, ds, 1, 1)
	for _, route := range []string{"/v1/feeds/neg/ingest", "/v1/feeds/neg2/ingest"} {
		code, body := postBinary(t, ts.URL+route, frame)
		if code != http.StatusAccepted {
			t.Fatalf("binary on %s: status %d: %s", route, code, body)
		}
		var acc ingestResponse
		if err := json.Unmarshal(body, &acc); err != nil || acc.Accepted != 1 || acc.Frames != 1 {
			t.Fatalf("binary on %s: response %s", route, body)
		}
	}

	for _, ct := range []string{"text/plain", "application/octet-stream", "such;;garbage"} {
		resp, err := http.Post(ts.URL+"/v1/feeds/neg/ingest", ct, bytes.NewReader(jsonBody))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("Content-Type %q: status %d, want 415", ct, resp.StatusCode)
		}
		if e := decodeEnvelope(t, data); e.Code != string(codeUnsupportedMedia) {
			t.Fatalf("Content-Type %q: code %q", ct, e.Code)
		}
	}
}

// TestIngestBinaryRejects covers the binary parse failure modes: a
// structurally bad frame, a torn frame, and an empty body — all 400, all
// with a machine-readable code, and none of them enqueue anything.
func TestIngestBinaryRejects(t *testing.T) {
	srv, ts := newTestServer(t, Config{Shards: 2})
	ds := minetest.Random(2, 10, 16)
	frame := encodeDataset(t, ds, 0, 0)

	corrupt := append([]byte(nil), frame...)
	corrupt[len(corrupt)/2] ^= 0xff
	for name, tc := range map[string]struct {
		body []byte
		code apiCode
	}{
		"corrupt": {corrupt, codeBadFrame},
		"torn":    {frame[:len(frame)-3], codeBadFrame},
		"empty":   {nil, codeBadRequest},
	} {
		status, body := postBinary(t, ts.URL+"/v1/feeds/rej/ingest", tc.body)
		if status != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", name, status, body)
		}
		if e := decodeEnvelope(t, body); e.Code != string(tc.code) {
			t.Fatalf("%s: code %q, want %q", name, e.Code, tc.code)
		}
	}
	// NaN coordinates are representable in K2BI but rejected by the API
	// contract, same as the JSON path.
	nan, err := storage.AppendBatchFrame(nil, 0, []model.ObjPos{{OID: 1, X: nanFloat(), Y: 0}})
	if err != nil {
		t.Fatal(err)
	}
	status, body := postBinary(t, ts.URL+"/v1/feeds/rej/ingest", nan)
	if status != http.StatusBadRequest {
		t.Fatalf("NaN frame: status %d: %s", status, body)
	}
	if e := decodeEnvelope(t, body); e.Code != string(codeBadParam) {
		t.Fatalf("NaN frame: code %q, want %q", e.Code, codeBadParam)
	}
	if f, _ := srv.feedFor("rej", false, ""); f != nil {
		if fs, _ := f.snapshotStats(); fs.SnapshotsIn != 0 {
			t.Fatalf("rejected bodies reached the shard: %+v", fs)
		}
	}
}

func nanFloat() float64 {
	var zero float64
	return zero / zero
}

// TestIngestJSONTrailingData checks a JSON body is exactly one batch: two
// concatenated batches, or a batch followed by anything but whitespace, are
// 400 and nothing reaches a feed — the decoder must not take the first
// value and silently drop the rest.
func TestIngestJSONTrailingData(t *testing.T) {
	srv, ts := newTestServer(t, Config{Shards: 2})
	one, err := json.Marshal(ingestRequest{Snapshots: snapshotsOf(minetest.Random(3, 10, 16), 0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	for feed, body := range map[string]string{
		"two-batches": string(one) + string(one),
		"garbage":     string(one) + " x",
		"bracket":     string(one) + "]",
	} {
		resp, err := http.Post(ts.URL+"/v1/feeds/"+feed+"/ingest", contentTypeJSON, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", feed, resp.StatusCode, data)
		}
		if e := decodeEnvelope(t, data); e.Code != string(codeBadRequest) {
			t.Fatalf("%s: code %q, want %q", feed, e.Code, codeBadRequest)
		}
		if f, _ := srv.feedFor(feed, false, ""); f != nil {
			t.Fatalf("%s: rejected body created its feed", feed)
		}
	}
	// Trailing whitespace is not data.
	resp, err := http.Post(ts.URL+"/v1/feeds/trail-ws/ingest", contentTypeJSON,
		bytes.NewReader(append(one, " \n\t\r\n"...)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("trailing whitespace: status %d, want 202", resp.StatusCode)
	}
}

// TestIngestBodyCap sends a body one byte over maxIngestBody in each wire
// format, both otherwise well-formed: each is 400 bad_request with the one
// cap message, and neither creates its feed.
func TestIngestBodyCap(t *testing.T) {
	srv, ts := newTestServer(t, Config{Shards: 2})

	pos := `{"oid":1,"x":0,"y":0}`
	jsonBody := `{"snapshots":[{"t":0,"positions":[` + strings.Repeat(pos+",", maxIngestBody/len(pos)) + pos + `]}]}`

	frame, err := storage.AppendBatchFrame(nil, 0, make([]model.ObjPos, maxIngestBody/20))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		feed, ct string
		body     []byte
	}{
		{"cap-json", contentTypeJSON, []byte(jsonBody)},
		{"cap-k2bi", contentTypeK2BI, frame},
	} {
		if len(tc.body) <= maxIngestBody {
			t.Fatalf("%s: test body of %d bytes is within the cap", tc.feed, len(tc.body))
		}
		resp, err := http.Post(ts.URL+"/v1/feeds/"+tc.feed+"/ingest", tc.ct, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", tc.feed, resp.StatusCode, data)
		}
		e := decodeEnvelope(t, data)
		if want := fmt.Sprintf("ingest body exceeds %d bytes", maxIngestBody); e.Code != string(codeBadRequest) || e.Error != want {
			t.Fatalf("%s: envelope %+v, want %s %q", tc.feed, e, codeBadRequest, want)
		}
		if f, _ := srv.feedFor(tc.feed, false, ""); f != nil {
			t.Fatalf("%s: over-cap body created its feed", tc.feed)
		}
	}
}

// FuzzIngestBody posts arbitrary bytes as an ingest body in each wire
// format to a fresh server. Whatever the bytes, the answer is 202 or a 4xx
// carrying the error envelope with a registered code — never a 5xx or a
// panic, in the handler or in the shard actor that mines an accepted
// batch — and a 400 creates no feed.
func FuzzIngestBody(f *testing.F) {
	ds := minetest.Random(9, 6, 4)
	lo, hi := ds.TimeRange()
	valid, err := json.Marshal(ingestRequest{Snapshots: snapshotsOf(ds, lo, hi)})
	if err != nil {
		f.Fatal(err)
	}
	frames := encodeDataset(f, ds, lo, hi)
	nan, err := storage.AppendBatchFrame(nil, 0, []model.ObjPos{{OID: 1, X: nanFloat()}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(frames)
	f.Add(frames[:len(frames)-3])
	f.Add(nan)
	f.Add(append(append([]byte(nil), valid...), valid...))

	f.Fuzz(func(t *testing.T, body []byte) {
		srv, err := New(Config{Params: testParams, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		for _, ct := range []string{contentTypeJSON, contentTypeK2BI} {
			feed := "fuzz-" + ct[len("application/"):]
			req := httptest.NewRequest("POST", "/v1/feeds/"+feed+"/ingest", bytes.NewReader(body))
			req.Header.Set("Content-Type", ct)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			switch status := rec.Code; {
			case status == http.StatusAccepted:
			case status >= 400 && status < 500:
				e := decodeEnvelope(t, rec.Body.Bytes())
				if status == http.StatusBadRequest {
					if f, _ := srv.feedFor(feed, false, ""); f != nil {
						t.Fatalf("%s: 400 %q created the feed", ct, e.Error)
					}
				}
			default:
				t.Fatalf("%s: status %d: %s", ct, status, rec.Body.Bytes())
			}
		}
		// Close drains the shard: a batch that panics the miner fails here.
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBinaryMatchesJSON is the protocol-equivalence differential: 120
// random datasets, each ingested twice into one server — once over JSON,
// once over K2BI (alternating one frame per request with one whole-dataset
// body) — must mine exactly the same convoys, which must also equal the
// batch PCCD reference. The binary protocol is a wire-format change only;
// it can never change a mining result.
func TestBinaryMatchesJSON(t *testing.T) {
	const seeds = 120
	_, ts := newTestServer(t, Config{Shards: 4, QueueLen: 64})
	for seed := int64(1); seed <= seeds; seed++ {
		ds := minetest.Random(seed, 8, 12)
		lo, hi := ds.TimeRange()
		jsonFeed := fmt.Sprintf("json-%d", seed)
		binFeed := fmt.Sprintf("bin-%d", seed)
		ingestDataset(t, ts.URL, jsonFeed, ds, 3)
		step := hi - lo + 1 // one whole-dataset body
		if seed%2 == 1 {
			step = 1 // one frame per request
		}
		for b := lo; b <= hi; b += step {
			status, body := postBinary(t, ts.URL+"/v1/feeds/"+binFeed+"/ingest", encodeDataset(t, ds, b, b+step-1))
			if status != http.StatusAccepted {
				t.Fatalf("seed %d: binary ingest at t=%d: status %d: %s", seed, b, status, body)
			}
		}
		fromJSON := flushFeed(t, ts.URL, jsonFeed)
		fromBin := flushFeed(t, ts.URL, binFeed)
		if !model.ConvoysEqual(fromJSON, fromBin) {
			t.Fatalf("seed %d: binary %v != JSON %v", seed, fromBin, fromJSON)
		}
		if want := batchPCCD(t, ds); !model.ConvoysEqual(fromJSON, want) {
			t.Fatalf("seed %d: served %v != batch %v", seed, fromJSON, want)
		}
	}
}

// TestErrorEnvelope spot-checks that error responses across the API carry
// the unified {error, code} envelope with the expected codes.
func TestErrorEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2})
	get := func(url string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, data
	}

	ingestDataset(t, ts.URL, "env", minetest.Random(4, 10, 16), 4)
	flushFeed(t, ts.URL, "env")
	for name, tc := range map[string]struct {
		status int
		code   apiCode
		do     func() (int, []byte)
	}{
		"unknown feed": {404, codeUnknownFeed, func() (int, []byte) {
			return get(ts.URL + "/v1/feeds/nobody/convoys")
		}},
		"bad cursor": {400, codeBadCursor, func() (int, []byte) {
			return get(ts.URL + "/v1/feeds/env/convoys?cursor=nope")
		}},
		"bad wait": {400, codeBadParam, func() (int, []byte) {
			return get(ts.URL + "/v1/feeds/env/convoys?wait=-3s")
		}},
		"bad limit": {400, codeBadParam, func() (int, []byte) {
			return get(ts.URL + "/v1/feeds/env/convoys?limit=0")
		}},
		"ingest after flush": {409, codeFeedFlushed, func() (int, []byte) {
			return postJSON(t, ts.URL+"/v1/feeds/env/ingest",
				ingestRequest{Snapshots: []snapshotJSON{{T: 99}}})
		}},
		"bad JSON": {400, codeBadRequest, func() (int, []byte) {
			resp, err := http.Post(ts.URL+"/v1/feeds/env2/ingest", "application/json",
				bytes.NewReader([]byte("{nope")))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			return resp.StatusCode, data
		}},
		"no archive": {501, codeNoArchive, func() (int, []byte) {
			return get(ts.URL + "/v1/query/time")
		}},
	} {
		status, body := tc.do()
		if status != tc.status {
			t.Fatalf("%s: status %d, want %d: %s", name, status, tc.status, body)
		}
		if e := decodeEnvelope(t, body); e.Code != string(tc.code) {
			t.Fatalf("%s: code %q, want %q", name, e.Code, tc.code)
		}
	}
}

// TestLiveConvoysLimit pages the live convoys endpoint with ?limit: pages
// advance the cursor without skipping or repeating, and flushed is only
// reported once the page reaches the head (so a paging client can never
// stop early and miss convoys).
func TestLiveConvoysLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2})
	ds := minetest.Random(5, 10, 20)
	ingestDataset(t, ts.URL, "paged", ds, 4)
	want := flushFeed(t, ts.URL, "paged")

	var got []model.Convoy
	cursor, pages := 0, 0
	for {
		var page convoysResponse
		if code := getJSON(t, ts.URL+"/v1/feeds/paged/convoys?limit=1&cursor="+strconv.Itoa(cursor), &page); code != http.StatusOK {
			t.Fatalf("page at cursor %d: status %d", cursor, code)
		}
		if len(page.Convoys) > 1 {
			t.Fatalf("page at cursor %d: %d convoys exceed limit", cursor, len(page.Convoys))
		}
		for _, c := range page.Convoys {
			got = append(got, model.Convoy{Objs: model.NewObjSet(c.Objs...), Start: c.Start, End: c.End})
		}
		if page.Flushed {
			if page.Cursor != cursor+len(page.Convoys) {
				t.Fatalf("cursor %d + %d convoys but next is %d", cursor, len(page.Convoys), page.Cursor)
			}
			break
		}
		if len(page.Convoys) == 0 {
			t.Fatalf("unflushed empty page at cursor %d", cursor)
		}
		cursor = page.Cursor
		if pages++; pages > 10000 {
			t.Fatal("paging does not terminate")
		}
	}
	// Each convoy is published exactly once, so the pages hold the final
	// set: as many convoys, each of them found.
	if len(got) != len(want) {
		t.Fatalf("paged %d convoys, flush returned %d", len(got), len(want))
	}
	for _, w := range want {
		found := false
		for _, g := range got {
			if g.Start == w.Start && g.End == w.End && g.Objs.Equal(w.Objs) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("final convoy %v never appeared in paged output", w)
		}
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"testing"

	"repro/internal/minetest"
	"repro/internal/model"
	"repro/internal/storage"
)

// encodeDataset encodes ticks [ts, te] of a dataset as one K2BI frame per
// tick, concatenated.
func encodeDataset(t testing.TB, ds *model.Dataset, ts, te int32) []byte {
	t.Helper()
	var buf []byte
	var err error
	for tt := ts; tt <= te; tt++ {
		if buf, err = storage.AppendBatchFrame(buf, tt, ds.Snapshot(tt)); err != nil {
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

// TestIngestNegotiation covers the Content-Type dispatch of the unary
// ingest endpoint: JSON by default, binary on application/x-k2bi, 415 with
// the envelope for anything else — on both the canonical /ingest route and
// the /snapshots alias.
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

// streamIngest sends a K2BI byte stream to the sticky endpoint.
func streamIngest(t testing.TB, base, feed string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/feeds/"+feed+"/ingest/stream", contentTypeK2BI, bytes.NewReader(body))
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

// TestIngestStream drives a whole dataset through the sticky stream
// endpoint in one request and checks the mined result matches batch PCCD.
func TestIngestStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2})
	ds := minetest.Random(3, 10, 16)
	lo, hi := ds.TimeRange()
	status, body := streamIngest(t, ts.URL, "stream", encodeDataset(t, ds, lo, hi))
	if status != http.StatusAccepted {
		t.Fatalf("stream: status %d: %s", status, body)
	}
	var resp streamResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if want := int(hi - lo + 1); resp.Frames != want || resp.Accepted != want {
		t.Fatalf("stream response %+v, want %d frames accepted", resp, want)
	}
	got := flushFeed(t, ts.URL, "stream")
	if want := batchPCCD(t, ds); !model.ConvoysEqual(got, want) {
		t.Fatalf("streamed %v != batch %v", got, want)
	}
	// Wrong Content-Type on the stream endpoint is 415: it has no JSON mode.
	r2, err := http.Post(ts.URL+"/v1/feeds/stream2/ingest/stream", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("JSON stream: status %d, want 415", r2.StatusCode)
	}
}

// TestBinaryMatchesJSON is the protocol-equivalence differential: 120
// random datasets, each ingested twice into one server — once over JSON,
// once over K2BI (alternating the one-shot and stream endpoints) — must
// mine exactly the same convoys, which must also equal the batch PCCD
// reference. The binary protocol is a wire-format change only; it can
// never change a mining result.
func TestBinaryMatchesJSON(t *testing.T) {
	const seeds = 120
	_, ts := newTestServer(t, Config{Shards: 4, QueueLen: 64})
	for seed := int64(1); seed <= seeds; seed++ {
		ds := minetest.Random(seed, 8, 12)
		lo, hi := ds.TimeRange()
		jsonFeed := fmt.Sprintf("json-%d", seed)
		binFeed := fmt.Sprintf("bin-%d", seed)
		ingestDataset(t, ts.URL, jsonFeed, ds, 3)
		frames := encodeDataset(t, ds, lo, hi)
		var status int
		var body []byte
		if seed%2 == 0 {
			status, body = postBinary(t, ts.URL+"/v1/feeds/"+binFeed+"/ingest", frames)
		} else {
			status, body = streamIngest(t, ts.URL, binFeed, frames)
		}
		if status != http.StatusAccepted {
			t.Fatalf("seed %d: binary ingest status %d: %s", seed, status, body)
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
	// The published pages are a superset story: every flush-final convoy
	// was published (possibly among superseded intermediates), so check
	// containment of the final set in the paged set.
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

package server

import (
	"encoding/json"
	"math"
	"net/http"
	"testing"
)

func TestRetentionEndpoint(t *testing.T) {
	_, base, _ := archiveTestServer(t, nil)

	// Two convoys a generation apart: "old" lives on ticks [0,5], "fresh"
	// on [20,29]. Retention at tick 6 must remove exactly the first.
	code, body := postJSON(t, base+"/v1/feeds/old/ingest",
		ingestRequest{Snapshots: convoySnapshots(6, 3)})
	if code != http.StatusAccepted {
		t.Fatalf("ingest old: %d %s", code, body)
	}
	flushFeed(t, base, "old")
	freshSnaps := convoySnapshots(10, 3)
	for i := range freshSnaps {
		freshSnaps[i].T += 20
	}
	code, body = postJSON(t, base+"/v1/feeds/fresh/ingest",
		ingestRequest{Snapshots: freshSnaps})
	if code != http.StatusAccepted {
		t.Fatalf("ingest fresh: %d %s", code, body)
	}
	flushFeed(t, base, "fresh")
	waitForQuery(t, base+"/v1/query/time", 2)

	var resp retentionResponse
	code, body = postJSON(t, base+"/v1/admin/retention", retentionRequest{Before: ptr(int32(6))})
	if code != http.StatusOK {
		t.Fatalf("retention: %d %s", code, body)
	}
	unmarshal(t, body, &resp)
	if resp.Expired != 1 || resp.Before != 6 {
		t.Fatalf("retention response: %+v, want expired 1 before 6", resp)
	}

	var page queryResponse
	if code := getJSON(t, base+"/v1/query/time", &page); code != http.StatusOK {
		t.Fatalf("query after retention: %d", code)
	}
	if len(page.Convoys) != 1 || page.Convoys[0].Feed != "fresh" {
		t.Fatalf("query after retention: %+v, want only the fresh convoy", page.Convoys)
	}

	// The watermark is monotonic: a lower tick is a no-op and the response
	// reports the watermark actually in force.
	code, body = postJSON(t, base+"/v1/admin/retention", retentionRequest{Before: ptr(int32(3))})
	if code != http.StatusOK {
		t.Fatalf("no-op retention: %d %s", code, body)
	}
	unmarshal(t, body, &resp)
	if resp.Expired != 0 || resp.Before != 6 {
		t.Fatalf("no-op retention response: %+v, want expired 0 before 6", resp)
	}

	// Malformed bodies are 400s.
	for _, bad := range []any{struct{}{}, "not an object", map[string]any{"before": "soon"}} {
		if code, body := postJSON(t, base+"/v1/admin/retention", bad); code != http.StatusBadRequest {
			t.Fatalf("retention with body %v: %d %s, want 400", bad, code, body)
		}
	}

	// Stats surface the expiry.
	var st Stats
	if code := getJSON(t, base+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.Archive == nil || st.Archive.ExpiredTotal != 1 ||
		st.Archive.ExpiredBefore == nil || *st.Archive.ExpiredBefore != 6 {
		t.Fatalf("stats after retention: %+v", st.Archive)
	}
}

func TestRetentionWithoutArchive(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2})
	code, _ := postJSON(t, ts.URL+"/v1/admin/retention", retentionRequest{Before: ptr(int32(1))})
	if code != http.StatusNotImplemented {
		t.Fatalf("retention without archive: %d, want 501", code)
	}
}

func TestRetentionConfigValidation(t *testing.T) {
	if _, err := New(Config{Shards: 1, Retention: -1}); err == nil {
		t.Fatal("New accepted a negative Retention")
	}
	if _, err := New(Config{Shards: 1, Retention: 10}); err == nil {
		t.Fatal("New accepted Retention without ArchiveDir")
	}
}

func TestRetentionFloor(t *testing.T) {
	// retentionFloor needs an archive with a MaxEnd; build a tiny one.
	srv, _, _ := archiveTestServer(t, nil)
	if _, ok := retentionFloor(srv.arch, 10); ok {
		t.Fatal("retentionFloor reported a floor for an empty archive")
	}
	// A keep window reaching past the int32 range must not wrap around.
	if _, ok := retentionFloor(srv.arch, math.MaxInt32); ok {
		t.Fatal("retentionFloor wrapped for an empty archive with a huge window")
	}
}

func ptr[T any](v T) *T { return &v }

func unmarshal(t *testing.T, data []byte, out any) {
	t.Helper()
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("unmarshal %q: %v", data, err)
	}
}

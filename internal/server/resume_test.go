package server

// A recovered feed resumes at its log's last End tick E (see resumePoint):
// it drops what it closes before E and the records at E the log already
// holds. These tests pin the two cases the kill/restart differential does
// not reach: a log whose tail was torn between two records ending at E, and
// a client that resumes mid-stream rather than from the first tick.

import (
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/storage"
)

// pairSnapshots builds ticks [from, to] of a stream of object pairs: pair i
// is objects 2i+1 and 2i+2, riding together (1 apart) at X = 1000·i up to
// tick together[i] and apart (500 apart) after it, so at gapParams the pair
// closes the convoy [0, together[i]] at tick together[i]+1.
func pairSnapshots(from, to int32, together ...int32) []snapshotJSON {
	var out []snapshotJSON
	for t := from; t <= to; t++ {
		sn := snapshotJSON{T: t}
		for i, last := range together {
			x, gap := float64(1000*i), 1.0
			if t > last {
				gap = 500
			}
			sn.Positions = append(sn.Positions,
				positionJSON{OID: int32(2*i + 1), X: x},
				positionJSON{OID: int32(2*i + 2), X: x + gap})
		}
		out = append(out, sn)
	}
	return out
}

// runFeedOnce starts a server on the log at path, ingests snaps into feed
// f and closes the server, which persists everything the feed closed.
func runFeedOnce(t *testing.T, path string, snaps []snapshotJSON) *Server {
	t.Helper()
	srv, err := New(Config{Params: gapParams, Shards: 1, PersistPath: path, PersistEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	if code, body := postJSON(t, ts.URL+"/v1/feeds/f/ingest", ingestRequest{Snapshots: snaps}); code != http.StatusAccepted {
		t.Fatalf("ingest: status %d: %s", code, body)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	return srv
}

func convoyKey(start, end int32, objs ...int32) string {
	return "f|" + model.Convoy{Objs: model.ObjSet(objs), Start: start, End: end}.Key()
}

// TestRestartResumeTornTail: a crash tore the log between the two records
// that end at the feed's last End. The recovered feed resumes with only the
// first of them in its tail, so an exact replay logs the second and nothing
// else: every record ends up in the log exactly once.
func TestRestartResumeTornTail(t *testing.T) {
	path := t.TempDir() + "/closed.k2cl"
	// Pair 0 closes [0,4] at tick 5; pairs 1 and 2 both close [0,9] at 10.
	stream := pairSnapshots(0, 10, 4, 9, 9)
	runFeedOnce(t, path, stream)
	want := logMultiset(t, path)
	if len(want) != 3 {
		t.Fatalf("first run logged %v, want three convoys", want)
	}
	var offs []int64
	if _, err := storage.ScanConvoyLogFrom(path, 0, func(off int64, _ storage.LoggedConvoy) error {
		offs = append(offs, off)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Tear the last record: a few of its bytes reached the disk.
	if err := os.Truncate(path, offs[2]+5); err != nil {
		t.Fatal(err)
	}

	srv := runFeedOnce(t, path, stream)
	if n := srv.Stats().Memory.RecoveredConvoys; n != 2 {
		t.Fatalf("recovered %d records from the torn log, want 2", n)
	}
	if got := logMultiset(t, path); !maps.Equal(got, want) {
		t.Fatalf("log after the exact replay holds %v, want each of %v once", got, want)
	}
	// The replay closed nothing after E = 9, so the feed still resumes there.
	if rp := srv.feeds["f"].resume; rp == nil || rp.end != 9 || len(rp.tail) != 1 {
		t.Fatalf("recovered feed resumes at %+v, want End 9 with the one logged record ending there", rp)
	}
}

// TestRestartResumedReplay: a client resumes at tick 5 rather than 0. The
// log holds ({1,2},[0,9]) and ({3,4},[0,20]), so E = 20: the replay's
// ({1,2},[5,9]) ends before E and is dropped, while ({3,4},[5,20]) ends at
// E, is not a logged record, and is appended.
func TestRestartResumedReplay(t *testing.T) {
	path := t.TempDir() + "/closed.k2cl"
	runFeedOnce(t, path, pairSnapshots(0, 25, 9, 20))
	before := logMultiset(t, path)
	if want := map[string]int{convoyKey(0, 9, 1, 2): 1, convoyKey(0, 20, 3, 4): 1}; !maps.Equal(before, want) {
		t.Fatalf("first run logged %v, want %v", before, want)
	}

	runFeedOnce(t, path, pairSnapshots(5, 25, 9, 20))
	want := maps.Clone(before)
	want[convoyKey(5, 20, 3, 4)] = 1
	if got := logMultiset(t, path); !maps.Equal(got, want) {
		t.Fatalf("log after the resumed replay holds %v, want %v", got, want)
	}
}

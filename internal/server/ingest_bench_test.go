package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	convoy "repro"
	"repro/internal/minetest"
	"repro/internal/storage"
)

// The ingest wire-path benchmarks: identical batches (16 ticks × 512
// objects) through parseJSONBatch and parseBinaryBatch, the exact code the
// negotiated handler runs between the socket and the shard queue. The
// acceptance bar for the binary protocol is ≥5× objects/sec at equal CPU.

const (
	benchTicks   = 16
	benchObjects = 512
)

func benchBatch() []snapshotJSON {
	rng := rand.New(rand.NewSource(42))
	snaps := make([]snapshotJSON, benchTicks)
	for i := range snaps {
		snaps[i].T = int32(i)
		snaps[i].Positions = make([]positionJSON, benchObjects)
		for j := range snaps[i].Positions {
			snaps[i].Positions[j] = positionJSON{
				OID: int32(j), X: rng.Float64() * 1000, Y: rng.Float64() * 1000,
			}
		}
	}
	return snaps
}

func BenchmarkIngestJSON(b *testing.B) {
	body, err := json.Marshal(ingestRequest{Snapshots: benchBatch()})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch, aerr := parseJSONBatch(bytes.NewReader(body))
		if aerr != nil || len(batch) != benchTicks {
			b.Fatalf("parse: %v (%d ticks)", aerr, len(batch))
		}
	}
	b.ReportMetric(float64(b.N*benchTicks*benchObjects)/b.Elapsed().Seconds(), "objs/s")
}

func BenchmarkIngestBinary(b *testing.B) {
	body := encodeSnapshots(b, benchBatch())
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch, aerr := parseBinaryBatch(bytes.NewReader(body))
		if aerr != nil || len(batch) != benchTicks {
			b.Fatalf("parse: %v (%d ticks)", aerr, len(batch))
		}
	}
	b.ReportMetric(float64(b.N*benchTicks*benchObjects)/b.Elapsed().Seconds(), "objs/s")
}

// BenchmarkIngestFeeds is the in-package counterpart of bench/'s
// serve-ingest: eight city feeds on four shard actors, K2BI bodies of eight
// ticks pushed through Handler() from b.RunParallel, mined to the end before
// the clock stops. The `name-N` family spreads two feeds to a shard, so at
// -cpu 1,2,4 points/s should rise with the cores; a change that serialises
// the feeds again (one actor holding them all) flattens that curve here,
// without bench/. An op is one body; feeds take turns, each behind its own
// lock so its ticks arrive in order, and a feed's tick t replays city tick
// t mod CityTicks so time never runs backwards. Encoding the body is inside
// the op and costs about a hundredth of mining it.
func BenchmarkIngestFeeds(b *testing.B) {
	const feeds, bodyTicks = 8, 8
	city := minetest.City(1, 160, 4)
	srv, err := New(Config{
		Params:      convoy.Params{M: minetest.CityM, K: minetest.CityK, Eps: minetest.CityEps},
		Shards:      4,
		EnqueueWait: time.Minute, // closed loop: a full queue blocks, never sheds
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	post := func(url, contentType string, body []byte) {
		req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted && rec.Code != http.StatusOK {
			b.Errorf("POST %s: status %d: %s", url, rec.Code, rec.Body)
		}
	}
	var cursors [feeds]struct {
		sync.Mutex
		next int // first tick of the feed's next body
		url  string
	}
	for i := range cursors {
		cursors[i].url = fmt.Sprintf("/v1/feeds/city-%d/", i)
	}
	var turn, points atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var body []byte
		for pb.Next() {
			i := int(turn.Add(1)-1) % feeds
			c := &cursors[i]
			c.Lock()
			body = body[:0]
			for t := c.next; t < c.next+bodyTicks; t++ {
				pos := city[t%len(city)]
				var err error
				if body, err = storage.AppendBatchFrame(body, int32(t), pos); err != nil {
					b.Error(err)
				}
				points.Add(int64(len(pos)))
			}
			c.next += bodyTicks
			post(c.url+"ingest", contentTypeK2BI, body)
			c.Unlock()
		}
	})
	for i := 0; i < min(feeds, b.N); i++ {
		// Flush is queued behind the feed's bodies: it returns once they are mined.
		post(cursors[i].url+"flush", contentTypeJSON, nil)
	}
	b.StopTimer()
	b.ReportMetric(float64(points.Load())/b.Elapsed().Seconds(), "points/s")
	if st := srv.Stats(); st.Admission.QueueFullTotal != 0 {
		b.Errorf("%d bodies shed at a full queue", st.Admission.QueueFullTotal)
	}
}

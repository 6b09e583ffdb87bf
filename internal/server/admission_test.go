package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"repro/internal/minetest"
	"repro/internal/model"
)

// jsonBody marshals v for a raw http.Post (used when the test needs the
// response headers, which postJSON discards).
func jsonBody(t *testing.T, v any) *bytes.Reader {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(data)
}

func TestTokenBucket(t *testing.T) {
	now := int64(0)
	b := newTokenBucket(10, 5, now) // 10 snapshots/s, burst 5

	if _, ok := b.take(5, now); !ok {
		t.Fatal("full bucket refused its burst")
	}
	wait, ok := b.take(1, now)
	if ok {
		t.Fatal("empty bucket admitted")
	}
	if wait <= 0 || wait > 100*time.Millisecond {
		t.Fatalf("wait for 1 token at 10/s: %v, want ~100ms", wait)
	}
	// Refill: 250ms at 10/s is 2.5 tokens.
	now += int64(250 * time.Millisecond)
	if _, ok := b.take(2, now); !ok {
		t.Fatal("bucket did not refill")
	}
	if _, ok := b.take(1, now); ok {
		t.Fatal("bucket over-refilled")
	}
	// Refill caps at burst.
	now += int64(time.Hour)
	if _, ok := b.take(5, now); !ok {
		t.Fatal("bucket did not cap refill at burst")
	}
	// A batch larger than the whole bucket is charged the full bucket, not
	// rejected forever.
	now += int64(time.Hour)
	if _, ok := b.take(100, now); !ok {
		t.Fatal("oversized batch unservable")
	}
	if _, ok := b.take(1, now); ok {
		t.Fatal("oversized batch did not drain the bucket")
	}
}

// TestIngestRateLimit exercises the per-feed token bucket end to end: a
// feed over its budget gets 429 rate_limited with Retry-After, other feeds
// are unaffected, and /v1/stats counts the sheds.
func TestIngestRateLimit(t *testing.T) {
	srv, ts := newTestServer(t, Config{Shards: 2, IngestRate: 0.001})
	ds := minetest.Random(6, 10, 16)
	snaps := snapshotsOf(ds, 0, 2)

	// The bucket holds 2×rate snapshots, at least 1: the first snapshot is
	// admitted, the 2nd is over budget (refill is ~0 at 0.001/s, so the
	// test cannot flake on timing).
	code, body := postJSON(t, ts.URL+"/v1/feeds/limited/ingest", ingestRequest{Snapshots: snaps[:1]})
	if code != http.StatusAccepted {
		t.Fatalf("burst: status %d: %s", code, body)
	}
	code, body = postJSON(t, ts.URL+"/v1/feeds/limited/ingest", ingestRequest{Snapshots: snaps[1:2]})
	if code != http.StatusTooManyRequests {
		t.Fatalf("over budget: status %d, want 429: %s", code, body)
	}
	if e := decodeEnvelope(t, body); e.Code != string(codeRateLimited) {
		t.Fatalf("over budget: code %q, want %q", e.Code, codeRateLimited)
	}
	resp, err := http.Post(ts.URL+"/v1/feeds/limited/ingest", "application/json",
		jsonBody(t, ingestRequest{Snapshots: snaps[2:3]}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over budget: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After breaks the backpressure contract")
	}
	// The bucket is per feed: a different feed still ingests.
	code, body = postJSON(t, ts.URL+"/v1/feeds/other/ingest", ingestRequest{Snapshots: snaps[:1]})
	if code != http.StatusAccepted {
		t.Fatalf("other feed: status %d: %s", code, body)
	}
	if st := srv.Stats(); st.Admission.RateLimitedTotal < 2 {
		t.Fatalf("stats count %d rate-limited sheds, want >= 2", st.Admission.RateLimitedTotal)
	}
}

// TestBatchingAvoidsBackpressure is the soak regression for batched ingest:
// a snapshot-per-request JSON load that reliably trips queue-full on a
// stalled shard is replayed as a few K2BI bodies of many ticks each, which
// take one queue slot per body and so fit the same queue with zero 429s —
// and the mined output still matches batch PCCD.
func TestBatchingAvoidsBackpressure(t *testing.T) {
	ds := minetest.Random(8, 10, 64)
	lo, hi := ds.TimeRange()
	nTicks := int(hi - lo + 1)

	run := func(t *testing.T, send func(ts string) int) int {
		release := make(chan struct{})
		stalled := false
		srv, ts := newTestServer(t, Config{
			Shards: 1, QueueLen: 8,
			testHook: func(int) {
				if !stalled {
					stalled = true
					<-release
				}
			},
		})
		rejected := send(ts.URL)
		close(release)
		// The flush is one more message on the same queue: let the released
		// actor make room first, or the flush itself is shed with a 429.
		for srv.Stats().Shards[0].QueueLen > 0 {
			time.Sleep(time.Millisecond)
		}
		got := flushFeed(t, ts.URL, "soak")
		if rejected == 0 {
			if want := batchPCCD(t, ds); !model.ConvoysEqual(got, want) {
				t.Fatalf("soak output %v != batch %v", got, want)
			}
		}
		return rejected
	}

	// JSON, one request per snapshot: the stalled actor takes the first
	// message, the queue holds 8, so 64 sequential requests must shed.
	t.Run("json-per-snapshot", func(t *testing.T) {
		rejected := run(t, func(base string) int {
			rejected := 0
			for i := 0; i < nTicks; i++ {
				code, body := postJSON(t, base+"/v1/feeds/soak/ingest",
					ingestRequest{Snapshots: snapshotsOf(ds, lo+int32(i), lo+int32(i))})
				switch code {
				case http.StatusAccepted:
				case http.StatusTooManyRequests:
					if e := decodeEnvelope(t, body); e.Code != string(codeQueueFull) {
						t.Fatalf("429 code %q, want queue_full", e.Code)
					}
					rejected++
				default:
					t.Fatalf("status %d: %s", code, body)
				}
			}
			return rejected
		})
		if rejected == 0 {
			t.Fatal("the JSON load no longer trips queue-full; the soak comparison is vacuous")
		}
	})

	// The same 64 snapshots as four K2BI bodies of 16 frames: one queue
	// slot each, so the identical server config sheds nothing.
	t.Run("k2bi-batches", func(t *testing.T) {
		rejected := run(t, func(base string) int {
			rejected := 0
			for b := lo; b <= hi; b += 16 {
				status, body := postBinary(t, base+"/v1/feeds/soak/ingest", encodeDataset(t, ds, b, min(b+15, hi)))
				switch status {
				case http.StatusAccepted:
				case http.StatusTooManyRequests:
					rejected++
				default:
					t.Fatalf("K2BI batch at t=%d: status %d: %s", b, status, body)
				}
			}
			return rejected
		})
		if rejected != 0 {
			t.Fatal("K2BI batches hit backpressure at a load one slot per body absorbs")
		}
	})
}

// TestRetryAfterHelpers pins the backpressure contract's arithmetic.
func TestRetryAfterHelpers(t *testing.T) {
	for _, tc := range []struct {
		in   time.Duration
		want int
	}{
		{0, 1}, {-time.Second, 1}, {time.Millisecond, 1},
		{time.Second, 1}, {1100 * time.Millisecond, 2}, {5 * time.Second, 5},
	} {
		if got := retryAfterSeconds(tc.in); got != tc.want {
			t.Fatalf("retryAfterSeconds(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
	err := &retryableError{err: ErrRateLimited, after: 3 * time.Second}
	if !errors.Is(err, ErrRateLimited) {
		t.Fatal("retryableError does not unwrap")
	}
	if got := retryAfter(err, time.Second); got != 3*time.Second {
		t.Fatalf("retryAfter = %v, want 3s", got)
	}
	if got := retryAfter(ErrBackpressure, time.Second); got != time.Second {
		t.Fatalf("retryAfter default = %v, want 1s", got)
	}
}

package server

import (
	"context"
	"errors"
	"sync"
	"time"
)

// Admission control for the ingest path: a per-feed token bucket
// (Config.IngestRate/IngestBurst) bounds how many snapshots per second one
// feed may push, so a single hot feed cannot starve the other feeds placed
// on its shard. It sheds at the HTTP edge — before the shard queue — with
// 429 rate_limited and a Retry-After telling the client when its budget is
// back; a full shard queue (the reactive backpressure, bounded by
// Config.EnqueueWait) keeps its own code, queue_full. Flush and query
// traffic is never shed — only snapshot ingest, the one load source a
// client can meaningfully back off.

// ErrRateLimited is returned when a feed's token bucket is exhausted; the
// HTTP layer maps it to 429 rate_limited.
var ErrRateLimited = errors.New("server: feed ingest rate limit exceeded")

// retryableError decorates a sentinel with the wait after which the client
// should retry; writeServerError surfaces it as Retry-After.
type retryableError struct {
	err   error
	after time.Duration
}

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

// retryAfter extracts the wait hint from an error chain, or def.
func retryAfter(err error, def time.Duration) time.Duration {
	var re *retryableError
	if errors.As(err, &re) {
		return re.after
	}
	return def
}

// tokenBucket is a classic leaky-bucket rate limiter: tokens accrue at
// rate per second up to burst, and each admitted snapshot spends one.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // bucket capacity
	tokens float64
	last   int64 // unix nanos of the last refill
}

func newTokenBucket(rate float64, burst int, now int64) *tokenBucket {
	return &tokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst), last: now}
}

// take spends n tokens if available. When the bucket cannot cover them it
// reports the wait until it could; the caller turns that into Retry-After.
// A batch larger than the whole bucket is charged the full bucket instead
// of being unservable forever — one oversized batch then empties the
// bucket, which is the intended outcome (admit it, make the feed pay).
func (b *tokenBucket) take(n int, now int64) (time.Duration, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if elapsed := now - b.last; elapsed > 0 {
		b.tokens = min(b.burst, b.tokens+b.rate*float64(elapsed)/float64(time.Second))
	}
	b.last = now
	cost := min(float64(n), b.burst)
	if b.tokens >= cost {
		b.tokens -= cost
		return 0, true
	}
	wait := time.Duration((cost - b.tokens) / b.rate * float64(time.Second))
	return wait, false
}

// admitIngest runs one ingest batch through admission control and the shard
// queue: the feed's token bucket first, then the real enqueue.
func (s *Server) admitIngest(ctx context.Context, f *feed, batch []tick) error {
	if b := f.bucket; b != nil {
		if wait, ok := b.take(len(batch), time.Now().UnixNano()); !ok {
			s.rateLimited.Add(1)
			return &retryableError{err: ErrRateLimited, after: wait}
		}
	}
	err := s.enqueue(ctx, shardMsg{feed: f, snaps: batch})
	if errors.Is(err, ErrBackpressure) {
		s.queueFull.Add(1)
	}
	return err
}

// AdmissionStats is the admission section of /v1/stats: how often each
// shedding mechanism fired over the server's lifetime.
type AdmissionStats struct {
	RateLimitedTotal int64 `json:"rate_limited_total"`
	QueueFullTotal   int64 `json:"queue_full_total"`
	// BreakerRejectedTotal is always 0 and never served; it exists only
	// because the benchmark in bench/ still sums it into its shed count.
	BreakerRejectedTotal int64 `json:"-"`
}

package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Admission control for the ingest path: requests are shed at the HTTP edge
// — before shard routing, before queue waits — when accepting them could
// only deepen an overload. Two independent mechanisms compose:
//
//   - a per-feed token bucket (Config.IngestRate/IngestBurst) bounds how
//     many snapshots per second one feed may push, so a single hot feed
//     cannot starve the other feeds placed on its shard;
//   - a per-shard circuit breaker (Config.BreakerThreshold/BreakerCooldown)
//     watches for consecutive queue-full rejections and, once tripped,
//     rejects the shard's ingest outright for a cooldown — the herd stops
//     hammering a saturated queue's lock and wait path, and the actor gets
//     slack to drain.
//
// Both reject with 429 plus a machine-readable code (rate_limited /
// breaker_open) and a Retry-After telling the client when capacity is
// expected back; queue-full itself (the pre-existing backpressure) keeps
// its own code (queue_full). Flush and query traffic is never shed — only
// snapshot ingest, the one load source a client can meaningfully back off.

// ErrRateLimited is returned when a feed's token bucket is exhausted; the
// HTTP layer maps it to 429 rate_limited.
var ErrRateLimited = errors.New("server: feed ingest rate limit exceeded")

// ErrBreakerOpen is returned while a shard's circuit breaker sheds load;
// the HTTP layer maps it to 429 breaker_open.
var ErrBreakerOpen = errors.New("server: shard circuit breaker open")

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

// Circuit breaker states.
const (
	breakerClosed int32 = iota
	breakerOpen
	breakerHalfOpen
)

// breakerStateName maps a state to the label /v1/stats exposes.
func breakerStateName(s int32) string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half_open"
	default:
		return "closed"
	}
}

// breaker is one shard's circuit breaker. Closed, it only counts: every
// queue-full rejection increments a consecutive-failure streak and any
// successful enqueue resets it. At threshold the breaker opens: ingest to
// the shard is rejected immediately (no routing, no enqueue attempt, no
// wait) until the cooldown elapses, then a single half-open probe is let
// through — its success closes the breaker, its failure re-opens it for
// another cooldown.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	state    int32
	failures int
	openedAt time.Time
	probing  bool // a half-open probe is in flight

	trips atomic.Int64 // times the breaker opened (lifetime)
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// allow reports whether a request may proceed to the shard queue; when it
// may not, the remaining cooldown is returned for Retry-After.
func (b *breaker) allow(now time.Time) (time.Duration, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return 0, true
	case breakerOpen:
		if rest := b.cooldown - now.Sub(b.openedAt); rest > 0 {
			return rest, false
		}
		b.state = breakerHalfOpen
		b.probing = false
		fallthrough
	default: // half-open: exactly one probe at a time
		if b.probing {
			return b.cooldown, false
		}
		b.probing = true
		return 0, true
	}
}

// record feeds the outcome of an admitted enqueue back: success closes (or
// keeps closed) the breaker, a queue-full failure advances it toward (or
// back to) open. Outcomes other than success/queue-full — eviction races,
// shutdown — are neutral: they say nothing about queue health.
func (b *breaker) record(err error, now time.Time) {
	success := err == nil
	full := errors.Is(err, ErrBackpressure)
	if !success && !full {
		b.mu.Lock()
		b.probing = false
		b.mu.Unlock()
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if success {
		b.state = breakerClosed
		b.failures = 0
		return
	}
	if b.state == breakerHalfOpen {
		// The probe hit a still-full queue: straight back to open.
		b.state = breakerOpen
		b.openedAt = now
		b.trips.Add(1)
		return
	}
	b.failures++
	if b.threshold > 0 && b.failures >= b.threshold {
		b.state = breakerOpen
		b.openedAt = now
		b.failures = 0
		b.trips.Add(1)
	}
}

// stateName returns the breaker's current state label for /v1/stats.
func (b *breaker) stateName(now time.Time) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerOpen && now.Sub(b.openedAt) >= b.cooldown {
		// Cooldown elapsed but no request has probed yet; report half_open,
		// which is what the next allow() will decide.
		return breakerStateName(breakerHalfOpen)
	}
	return breakerStateName(b.state)
}

// admitIngest runs one ingest batch through admission control and the shard
// queue: the feed's token bucket first (cheapest, most specific), then the
// shard breaker, then the real enqueue, whose outcome trains the breaker.
func (s *Server) admitIngest(ctx context.Context, f *feed, batch []tick) error {
	if b := f.bucket; b != nil {
		if wait, ok := b.take(len(batch), time.Now().UnixNano()); !ok {
			s.rateLimited.Add(1)
			return &retryableError{err: ErrRateLimited, after: wait}
		}
	}
	var br *breaker
	if s.breakers != nil {
		br = s.breakers[f.shard]
		if wait, ok := br.allow(time.Now()); !ok {
			s.breakerRejected.Add(1)
			return &retryableError{err: ErrBreakerOpen, after: wait}
		}
	}
	err := s.enqueue(ctx, shardMsg{feed: f, snaps: batch})
	if br != nil {
		br.record(err, time.Now())
	}
	if errors.Is(err, ErrBackpressure) {
		s.queueFull.Add(1)
	}
	return err
}

// AdmissionStats is the admission section of /v1/stats: how often each
// shedding mechanism fired over the server's lifetime.
type AdmissionStats struct {
	RateLimitedTotal     int64 `json:"rate_limited_total"`
	BreakerRejectedTotal int64 `json:"breaker_rejected_total"`
	BreakerTripsTotal    int64 `json:"breaker_trips_total"`
	QueueFullTotal       int64 `json:"queue_full_total"`
}

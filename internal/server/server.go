// Package server implements convoyd, the sharded streaming convoy-mining
// service: many concurrent trajectory feeds arrive over HTTP (JSON or K2BI
// ingest), each feed is placed, when it is created, on whichever of a
// configurable number of shard actors holds the fewest feeds, and each actor
// owns the StreamMiners of its feeds. Closed convoys are queryable per feed
// (long-poll or flush) and are periodically persisted to the closed-convoy
// sink in internal/storage.
//
// The concurrency design is actor-per-shard:
//
//   - the HTTP layer parses and routes, but never mines;
//   - a bounded ingest queue per shard gives backpressure (enqueue fails
//     with ErrBackpressure once the queue is full and the configured wait
//     has elapsed; the HTTP layer maps that to 429);
//   - one goroutine per shard consumes its queue, so per-feed mining state
//     is single-owner and lock-free, and per-feed output is deterministic:
//     it depends only on the sequence of batches for that feed, never on
//     scheduling;
//   - a bounded reordering buffer per feed tolerates out-of-order snapshot
//     arrival within a configurable time window (see reorder.go).
//
// Long-lived serving is memory-bounded by the feed lifecycle (see
// lifecycle.go): idle feeds are evicted after FeedTTL, persisted history is
// truncated from memory, and a restart replays the convoy log to restore
// cursor positions and dedup state.
package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	convoy "repro"
	"repro/internal/pool"
	"repro/internal/storage"
	"repro/internal/storage/archive"
)

// ErrBackpressure is returned by enqueue when a shard's ingest queue stayed
// full for the configured wait; the HTTP layer maps it to 429.
var ErrBackpressure = errors.New("server: shard ingest queue full")

// ErrClosed is returned once the server is shutting down.
var ErrClosed = errors.New("server: closed")

// ErrFeedLimit is returned when creating one more feed would exceed
// Config.MaxFeeds; the HTTP layer maps it to 429.
var ErrFeedLimit = errors.New("server: feed limit reached")

// ErrFeedEvicted is returned when a request raced the TTL eviction of its
// feed; the HTTP layer maps it to 410 (ingest retries with a fresh feed).
var ErrFeedEvicted = errors.New("server: feed evicted")

// ErrPatternMismatch is returned when an ingest names a pattern different
// from the one the feed was created with; the HTTP layer maps it to 409
// pattern_mismatch. A feed's pattern is immutable — flush (or evict) the
// feed and recreate it to change families.
var ErrPatternMismatch = errors.New("server: feed mines a different pattern")

// Config tunes a convoyd server. The zero value of each field selects the
// documented default.
type Config struct {
	// Params are the convoy parameters every feed is mined with. Flock
	// feeds reuse M and K; moving-cluster feeds reuse M, K and Eps.
	Params convoy.Params
	// FlockR is the disk radius flock-pattern feeds are mined with
	// (default Params.Eps).
	FlockR float64
	// MCTheta is the minimum consecutive Jaccard overlap moving-cluster
	// feeds are mined with, in (0, 1] (default 0.5).
	MCTheta float64
	// Shards is the number of shard actors (default 8).
	Shards int
	// QueueLen is the per-shard ingest queue capacity, in batches
	// (default 128).
	QueueLen int
	// Window is the reordering window in ticks: snapshots arriving out of
	// order within the window are resequenced; later ones are dropped as
	// late (default 0 = strict in-order ingest).
	Window int32
	// EnqueueWait bounds how long an ingest blocks waiting for queue space
	// before failing with ErrBackpressure (default 0 = fail immediately).
	EnqueueWait time.Duration
	// PersistPath, when non-empty, is the closed-convoy sink: every closed
	// convoy is appended to this log by a periodic background tick. If the
	// log already exists, New replays it first — recovered feeds start with
	// their cursor domain fully truncated (everything is in the log) and
	// with the logged convoy keys preloaded for dedup, so re-ingesting
	// already-persisted data does not duplicate log records.
	PersistPath string
	// PersistEvery is the persistence interval (default 2s).
	PersistEvery time.Duration
	// MaxFeeds caps the number of live feeds; ingest to a new feed key
	// beyond the cap fails with ErrFeedLimit (default 65536). Each feed
	// owns a miner and result history, so an unbounded feed namespace
	// would let one misbehaving client exhaust memory. TTL eviction frees
	// slots under the cap.
	MaxFeeds int
	// FeedTTL, when positive, evicts feeds with no ingest, query, or flush
	// activity for this long; a blocked long-poll counts as activity for
	// as long as it waits. When a sink is configured a feed is only
	// evicted once its whole history is durably in the log — if the sink
	// breaks, feeds with unsynced history are simply never evicted (data
	// wins over the memory bound; restart to recover). Without a sink,
	// eviction drops the idle feed's state outright.
	// Eviction also drops the feed's dedup keys, so data re-ingested after
	// an eviction can append duplicate records to the log — compaction
	// (storage.CompactConvoyLog) removes them offline. 0 disables
	// eviction.
	FeedTTL time.Duration
	// EvictEvery is the eviction sweep interval (default FeedTTL/4,
	// at least 10ms).
	EvictEvery time.Duration
	// KeepHistory disables truncation of persisted history. By default,
	// once a feed's closed convoys have been persisted to the sink they
	// are dropped from memory and the feed's live cursor domain becomes
	// [truncatedBefore, head); queries with a cursor below truncatedBefore
	// answer 410 Gone and must restart from truncatedBefore (or replay the
	// log). With KeepHistory (or without a sink) the full history stays
	// resident and every cursor remains valid.
	KeepHistory bool
	// ArchiveDir, when non-empty, enables the historical query archive
	// (GET /v1/query/*): every convoy persisted to the sink is also
	// indexed — in place, the log stays the one copy — by LSM indexes
	// under this directory, written by the persist tick right after the
	// log fsync that makes each round durable, and caught up with the
	// existing log at startup. Requires PersistPath.
	ArchiveDir string
	// ArchiveCache is the combined in-memory write-buffer budget of the
	// archive's three secondary indexes, in bytes (default 12 MiB).
	ArchiveCache int
	// QueryBudget caps the index entries one /v1/query page may examine
	// before returning a resume cursor (default archive.DefaultBudget).
	// It bounds the cost of a page whose filter rejects almost every
	// entry.
	QueryBudget int
	// IngestRate, when positive, rate-limits each feed's ingest to this
	// many snapshots per second via a token bucket; excess is shed with
	// 429 rate_limited + Retry-After before it reaches the shard queue.
	// 0 disables per-feed rate limiting.
	IngestRate float64
	// IngestBurst is the token bucket's capacity in snapshots (default
	// 2×IngestRate, at least 1): the largest burst one feed may push at
	// once after idling.
	IngestBurst int
	// Retention, when positive, bounds the archive's history: at every
	// archive flush tick, convoys whose End tick has fallen more than
	// Retention ticks behind the newest archived End are expired
	// (archive.Expire keeps End >= maxEnd−Retention+1). Expired convoys
	// leave the archive but never the convoy log. Requires ArchiveDir;
	// 0 keeps everything. POST /v1/admin/retention expires on demand
	// with an absolute tick, independent of this setting.
	Retention int32

	// testHook, when set (same-package tests only), runs at the start of
	// every shard-actor message; tests use it to stall a shard and exercise
	// backpressure. It must be set before New so actors never race on it.
	testHook func(shardID int)
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 128
	}
	if c.Window < 0 {
		c.Window = 0
	}
	if c.PersistEvery <= 0 {
		c.PersistEvery = 2 * time.Second
	}
	if c.MaxFeeds <= 0 {
		c.MaxFeeds = 65536
	}
	if c.FeedTTL > 0 && c.EvictEvery <= 0 {
		c.EvictEvery = max(c.FeedTTL/4, 10*time.Millisecond)
	}
	if c.IngestRate > 0 && c.IngestBurst <= 0 {
		c.IngestBurst = max(int(2*c.IngestRate), 1)
	}
	return c
}

// Server is a convoyd instance. Create with New, serve via Handler, stop
// with Close.
type Server struct {
	cfg Config

	shards  []*shard
	workers *pool.Group

	mu    sync.RWMutex // guards feeds, resident, tombs and closed
	feeds map[string]*feed
	// resident[i] counts the feeds in the map placed on shard i (see place).
	resident []int
	// tombs remembers the cursor head of evicted feeds so a feed recreated
	// under the same name continues its cursor domain instead of
	// restarting at 0 — without it, a returning client whose stale cursor
	// happens to fall inside the new incarnation's smaller domain would be
	// served silently from the wrong history. Bounded: cleared wholesale
	// if an adversarial feed namespace grows it past 4×MaxFeeds (those
	// names then restart their domain, the pre-tombstone behavior).
	tombs map[string]int
	// closed is set by Close before the shard queues are closed; enqueue
	// holds mu.RLock while sending, so no send can race the close.
	closed bool

	sink       *storage.ConvoyLog
	sinkBroken atomic.Bool // first sink write error disables persistence

	// The historical query archive (nil unless Config.ArchiveDir is set):
	// LSM indexes over the sink's log. persistAll indexes each round's
	// records, with the log offsets they landed at, right after the Sync
	// that makes them durable, so whatever a round made durable is
	// queryable when it returns. That runs on the background loop, which
	// no shard actor or HTTP handler waits on, so a slow archive disk can
	// never stall the ingest path. The first archive write error flips
	// archBroken: indexing stops, and the next startup's backfill repairs
	// the gap from the log.
	arch        *archive.Archive
	archBroken  atomic.Bool
	backfilled  int64 // records backfilled from the log at startup
	archRebuilt bool  // startup backfill rebuilt a diverged archive

	// bgStop and bgDone bracket the background loop (see loop); both nil
	// when New started none.
	bgStop chan struct{}
	bgDone chan struct{}

	// Admission control (see admission.go): the lifetime shed counters
	// exposed by /v1/stats.
	rateLimited atomic.Int64
	queueFull   atomic.Int64

	evictedTotal   atomic.Int64 // feeds evicted over the server's lifetime
	truncatedTotal atomic.Int64 // convoys truncated from memory over the server's lifetime
	recoveredFeeds int          // feeds restored from the log at startup
	recoveredRecs  int          // log records replayed at startup

	// testHook is copied from Config.testHook before the actors start.
	testHook func(shardID int)
}

// patternParams bundles the configured parameters of every pattern family.
func (c Config) patternParams() convoy.PatternParams {
	return convoy.PatternParams{Params: c.Params, R: c.FlockR, Theta: c.MCTheta}
}

// New creates a server. Params are validated by the first feed's miner
// construction, so invalid params are rejected eagerly here instead — for
// every pattern family a feed could negotiate, not just the default. When
// PersistPath names an existing log, New recovers from it (see
// Config.PersistPath).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	for _, pat := range []convoy.Pattern{convoy.PatternConvoy, convoy.PatternFlock, convoy.PatternMC} {
		if _, err := convoy.NewPatternMiner(pat, cfg.patternParams()); err != nil {
			return nil, err
		}
	}
	if cfg.ArchiveDir != "" && cfg.PersistPath == "" {
		return nil, errors.New("server: ArchiveDir requires PersistPath (the log is the archive's source of truth)")
	}
	if cfg.Retention < 0 {
		return nil, errors.New("server: Retention must be >= 0")
	}
	if cfg.Retention > 0 && cfg.ArchiveDir == "" {
		return nil, errors.New("server: Retention requires ArchiveDir (retention expires archived convoys)")
	}
	s := &Server{
		cfg:      cfg,
		resident: make([]int, cfg.Shards),
		feeds:    map[string]*feed{},
		tombs:    map[string]int{},
		testHook: cfg.testHook,
	}
	if cfg.PersistPath != "" {
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	if cfg.ArchiveDir != "" {
		// Backfill before the shard actors start: the background loop
		// cannot append to the log while the indexes catch up with it.
		arch, added, rebuilt, err := archive.OpenAndBackfill(cfg.ArchiveDir, cfg.PersistPath,
			&archive.Options{CacheBytes: cfg.ArchiveCache})
		if err != nil {
			s.sink.Close()
			return nil, fmt.Errorf("server: archive: %w", err)
		}
		s.arch, s.backfilled, s.archRebuilt = arch, added, rebuilt
	}
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = &shard{id: i, in: make(chan shardMsg, cfg.QueueLen), srv: s}
	}
	s.workers = pool.Go(cfg.Shards, func(i int) { s.shards[i].run() })
	if s.sink != nil || cfg.FeedTTL > 0 {
		s.bgStop = make(chan struct{})
		s.bgDone = make(chan struct{})
		go s.loop()
	}
	return s, nil
}

// Close drains the shard actors, stops the background loop and, when
// persistence is configured, writes every remaining closed convoy to the
// sink and indexes it in the archive. In-flight enqueues finish
// first; new requests fail with ErrClosed.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for _, sh := range s.shards {
		close(sh.in)
	}
	s.mu.Unlock()
	s.workers.Wait()
	if s.bgStop != nil {
		close(s.bgStop)
		<-s.bgDone
	}
	var err error
	if s.sink != nil {
		s.persistAll()
		err = s.sink.Close()
	}
	if s.arch != nil {
		if aerr := s.arch.Close(); aerr != nil && err == nil {
			err = aerr
		}
	}
	return err
}

// loop is the server's one background goroutine, its whole durable side:
// the persist tick (log append, fsync, durable watermark, index entries —
// see persistAll), the archive flush tick and the TTL eviction sweep. A
// tick whose mechanism is not configured has a nil channel and never
// fires. Nothing on the ingest or query path waits on this goroutine, and
// it is the only writer of the log and, apart from an on-demand
// POST /v1/admin/retention, of the archive — so index entries are written
// in the order of the log's appends.
func (s *Server) loop() {
	defer close(s.bgDone)
	persist, stopPersist := every(s.sink != nil, s.cfg.PersistEvery)
	defer stopPersist()
	archFlush, stopArchFlush := every(s.arch != nil, archiveFlushEvery)
	defer stopArchFlush()
	evict, stopEvict := every(s.cfg.FeedTTL > 0, s.cfg.EvictEvery)
	defer stopEvict()
	for {
		select {
		case <-persist:
			s.persistAll()
		case <-archFlush:
			s.flushArchive()
		case <-evict:
			s.sweep(time.Now())
		case <-s.bgStop:
			return
		}
	}
}

// every returns the channel of a ticker firing every d and the func that
// stops it, or a nil channel (a select case that never fires) when off.
func every(on bool, d time.Duration) (<-chan time.Time, func()) {
	if !on {
		return nil, func() {}
	}
	t := time.NewTicker(d)
	return t.C, t.Stop
}

// flushArchive makes the archive's index watermark durable, so a crash
// re-indexes only a bounded tail of the log at the next startup, then
// applies relative retention. A write error permanently disables archiving
// for this process (the indexes can no longer be trusted to cover the
// log); the next startup indexes the gap from the log.
func (s *Server) flushArchive() {
	if s.archBroken.Load() {
		return
	}
	if err := s.arch.Flush(); err != nil {
		s.archBroken.Store(true)
		return
	}
	if s.cfg.Retention > 0 {
		if before, ok := retentionFloor(s.arch, s.cfg.Retention); ok {
			if _, err := s.arch.Expire(before); err != nil {
				s.archBroken.Store(true)
			}
		}
	}
}

// retentionFloor computes the absolute watermark for a relative retention
// of keep ticks: convoys with End >= maxEnd−keep+1 stay. ok is false when
// the archive has never held a record (nothing anchors the window) or the
// window still reaches the beginning of time.
func retentionFloor(a *archive.Archive, keep int32) (int32, bool) {
	maxEnd, ok := a.MaxEnd()
	if !ok {
		return 0, false
	}
	floor := int64(maxEnd) - int64(keep) + 1
	if floor <= math.MinInt32 {
		return 0, false
	}
	return int32(floor), true
}

// archiveFlushEvery is the cadence at which the archive's index watermark
// is made durable. It bounds startup re-indexing work, not durability —
// the records are in the fsynced log before the archive hears of them.
const archiveFlushEvery = 30 * time.Second

// feedFor returns the feed for name, creating it on first use when create
// is set. pat constrains the feed's pattern family: an existing feed of a
// different family fails with ErrPatternMismatch, and a created feed mines
// pat. The empty pattern is unconstrained — it matches any existing feed
// and creates DefaultPattern feeds (read paths pass it; only ingest, which
// parsed an explicit ?pattern=, constrains).
func (s *Server) feedFor(name string, create bool, pat convoy.Pattern) (*feed, error) {
	s.mu.RLock()
	f := s.feeds[name]
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if f != nil || !create {
		if f != nil && pat != "" && f.pattern != pat {
			return nil, ErrPatternMismatch
		}
		return f, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if f = s.feeds[name]; f != nil {
		if pat != "" && f.pattern != pat {
			return nil, ErrPatternMismatch
		}
		return f, nil
	}
	if len(s.feeds) >= s.cfg.MaxFeeds {
		return nil, ErrFeedLimit
	}
	if pat == "" {
		pat = convoy.DefaultPattern
	}
	f, err := newFeed(name, pat, s.cfg.patternParams(), s.cfg.Window)
	if err != nil {
		return nil, fmt.Errorf("server: feed %q: %w", name, err)
	}
	f.bucket = s.newBucket(time.Now().UnixNano())
	if head, ok := s.tombs[name]; ok {
		// Continue the evicted predecessor's cursor domain: everything it
		// published stays 410 (truncated) rather than being shadowed by
		// the new incarnation's counting restarting at 0. Dedup keys are
		// not resurrected — see Config.FeedTTL.
		f.start, f.persisted, f.durable = head, head, head
		f.stats.ClosedTotal = int64(head)
		f.stats.TruncatedBefore = head
		delete(s.tombs, name)
	}
	f.touch(time.Now().UnixNano())
	s.place(f)
	return f, nil
}

// place makes f resident on the shard holding the fewest feeds, lowest index
// on a tie — the one decision of a feed's shard, taken once per incarnation
// and only after nothing about its creation can fail. Nothing outside the
// process names a shard, so a recovered or recreated feed may land anywhere.
// Caller holds mu for writing (or runs before the actors start); evict is
// the inverse.
func (s *Server) place(f *feed) {
	f.shard = slices.Index(s.resident, slices.Min(s.resident))
	s.resident[f.shard]++
	s.feeds[f.name] = f
}

// enqueue routes msg to its feed's shard, applying backpressure. It holds
// the read lock across the channel send so Close cannot close the queue
// under it, and it bumps the feed's pending count under the same lock so
// eviction (which requires pending == 0 under the write lock) can never
// race a message into a dead feed. A canceled request context stops the
// backpressure wait early.
func (s *Server) enqueue(ctx context.Context, msg shardMsg) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	f := msg.feed
	if f.evicted.Load() {
		return ErrFeedEvicted
	}
	f.touch(time.Now().UnixNano())
	f.pending.Add(1)
	sh := s.shards[f.shard]
	select {
	case sh.in <- msg:
		return nil
	default:
	}
	if s.cfg.EnqueueWait <= 0 {
		f.pending.Add(-1)
		return ErrBackpressure
	}
	timer := time.NewTimer(s.cfg.EnqueueWait)
	defer timer.Stop()
	select {
	case sh.in <- msg:
		return nil
	case <-timer.C:
		f.pending.Add(-1)
		return ErrBackpressure
	case <-ctx.Done():
		f.pending.Add(-1)
		return ctx.Err()
	}
}

// newBucket builds a feed's ingest token bucket, or nil when per-feed rate
// limiting is off.
func (s *Server) newBucket(now int64) *tokenBucket {
	if s.cfg.IngestRate <= 0 {
		return nil
	}
	return newTokenBucket(s.cfg.IngestRate, s.cfg.IngestBurst, now)
}

// touchFeed refreshes a feed's activity clock for TTL purposes and reports
// whether the feed is still live. The touch happens under the read lock so
// it is mutually exclusive with the eviction sweep's revalidation (which
// holds the write lock): a query can therefore never refresh a feed in the
// same instant eviction collects it — one of the two strictly wins.
func (s *Server) touchFeed(f *feed) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if f.evicted.Load() {
		return false
	}
	f.touch(time.Now().UnixNano())
	return true
}

// persistAll writes every feed's not-yet-persisted closed convoys to the
// sink, in discovery order, syncs, then indexes them in the archive.
// Persistence is at-most-once: the persisted marker advances before the
// write, and the first write error disables the sink for the rest of the
// server's life. Retrying into an append-only buffered log would
// duplicate the records already in its buffer (and possibly follow a
// partially flushed record), corrupting the log — a broken disk ends the
// log at its last good Sync instead. Each feed's durable watermark
// advances only after the Sync that covers its records succeeds, and it
// is durable — not persisted — that licenses discarding in-memory state
// (truncation here, whole feeds in lifecycle.go), so a sync failure can
// never lose convoys from both memory and the log at once.
//
// Truncation (unless Config.KeepHistory) deliberately lags durability by
// one round: this round truncates up to the durable watermark as of the
// round's start. A long-poller woken by a publish therefore always has a
// full PersistEvery to collect the convoys it was woken for before they
// can leave memory, and resident history stays bounded by about two
// persistence intervals' worth of convoys per feed.
func (s *Server) persistAll() {
	if s.sinkBroken.Load() {
		return
	}
	s.mu.RLock()
	feeds := make([]*feed, 0, len(s.feeds))
	for _, f := range s.feeds {
		feeds = append(feeds, f)
	}
	s.mu.RUnlock()
	type written struct {
		f      *feed
		synced int // durable watermark once this round's Sync succeeds
	}
	var wrote []written
	var archRecs []archive.Located       // this round's appends, in log order
	truncUpTo := make([]int, len(feeds)) // durable as of the round's start
	for i, f := range feeds {
		f.mu.Lock()
		truncUpTo[i] = f.durable
		fresh := f.closed[f.persisted-f.start:]
		if len(fresh) == 0 {
			f.mu.Unlock()
			continue
		}
		// Copy under the lock; write outside it so a slow disk does not
		// stall the actor's publish path.
		batch := make([]convoy.PatternResult, len(fresh))
		copy(batch, fresh)
		f.persisted = f.head()
		newPersisted := f.persisted
		f.mu.Unlock()
		tag := logPattern(f.pattern)
		for _, c := range batch {
			rec := storage.LoggedConvoy{Feed: f.name, Convoy: c.Convoy, Pattern: tag, Clusters: c.Clusters}
			if s.arch != nil {
				archRecs = append(archRecs, archive.Located{Off: s.sink.Offset(), Rec: rec})
			}
			if err := s.sink.AppendRecord(rec); err != nil {
				s.sinkBroken.Store(true)
				return
			}
		}
		wrote = append(wrote, written{f: f, synced: newPersisted})
	}
	if len(wrote) > 0 {
		if err := s.sink.Sync(); err != nil {
			s.sinkBroken.Store(true)
			return
		}
		for _, w := range wrote {
			w.f.mu.Lock()
			if w.synced > w.f.durable {
				w.f.durable = w.synced
			}
			w.f.mu.Unlock()
		}
		if s.arch != nil && !s.archBroken.Load() {
			// Index only after the log fsync: an index entry must never
			// point at bytes a crash could take away.
			if err := s.arch.Index(archRecs, s.sink.Offset()); err != nil {
				s.archBroken.Store(true)
			}
		}
	}
	// Second pass: once a flushed feed's whole history is durable, append
	// the flush sentinel so the terminal state survives a restart. The
	// window where a crash loses only the sentinel (feed reopens, clients
	// re-flush) is bounded by one persistence interval.
	var marked []*feed
	for _, f := range feeds {
		f.mu.Lock()
		mark := f.flushed && !f.flushLogged && f.durable == f.head()
		f.mu.Unlock()
		if !mark {
			continue
		}
		// The sentinel carries the feed's pattern tag too, so a flushed feed
		// that never closed a single pattern still recovers its mode.
		rec := storage.LoggedConvoy{Feed: f.name, Convoy: storage.FlushMarker(), Pattern: logPattern(f.pattern)}
		if err := s.sink.AppendRecord(rec); err != nil {
			s.sinkBroken.Store(true)
			return
		}
		marked = append(marked, f)
	}
	if len(marked) > 0 {
		if err := s.sink.Sync(); err != nil {
			s.sinkBroken.Store(true)
			return
		}
		for _, f := range marked {
			f.mu.Lock()
			f.flushLogged = true
			f.mu.Unlock()
		}
	}
	if s.cfg.KeepHistory {
		return
	}
	for i, f := range feeds {
		s.truncatedTotal.Add(int64(f.truncateTo(truncUpTo[i])))
	}
}

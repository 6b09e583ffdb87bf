// Command convoyd serves streaming convoy mining over HTTP: snapshot
// ingest per feed (JSON, or the K2BI binary batch protocol negotiated on
// Content-Type), long-poll queries for closed convoys, an end-of-feed flush
// returning the full maximal result set, and — with -archive-dir —
// historical queries over everything ever persisted. Ingest is guarded by
// admission control: -ingest-rate arms a per-feed token bucket holding two
// seconds' worth of snapshots, and -enqueue-wait bounds the wait for shard
// queue space; both rejections answer 429 with Retry-After and a
// machine-readable code.
// docs/API.md is the complete endpoint reference; see
// docs/ARCHITECTURE.md ("convoyd") for the sharding, reordering and
// archive design.
//
// Example:
//
//	convoyd -addr :8080 -m 3 -k 4 -eps 1.5 -shards 8 -window 4 \
//	        -persist /tmp/closed.k2cl -archive-dir /tmp/convoy-archive \
//	        -feed-ttl 10m
//
// With -persist, the server is restartable: an existing log is replayed at
// startup (recovering the feeds resident at shutdown, their cursor
// positions and each one's resume point, the end tick E of its last logged
// convoy: a recovered feed drops what it closes that ends before E, and the
// logged convoys ending at E, so a client re-sending its stream duplicates
// no record), a torn tail record from a crash is truncated away, and
// SIGINT/SIGTERM shut down gracefully with a final persist of every closed
// convoy. Memory stays bounded by -feed-ttl (idle-feed eviction, which logs
// a marker ending the feed's incarnation) and by history truncation:
// convoys already in the log are dropped from memory and queries below the
// truncation point answer 410 Gone (see docs/ARCHITECTURE.md "Memory
// limits").
//
// With -archive-dir, persisted convoys are additionally indexed — in place:
// the log stays the one copy of the records — by LSM indexes in that
// directory (caught up with the log at startup, fed asynchronously while
// serving), and the /v1/query endpoints answer
// time-interval, object-membership and size/duration lookups over the full
// history with cursor pagination. -retention N bounds that history: at
// every archive flush tick, convoys whose End lags the newest archived
// End by N ticks or more are expired from the archive (never from the
// log); POST /v1/admin/retention expires on demand at an absolute tick.
//
//	curl -s -X POST localhost:8080/v1/feeds/osaka/ingest -d '{
//	  "snapshots": [{"t": 0, "positions": [{"oid": 1, "x": 0, "y": 0}]}]}'
//	curl -s 'localhost:8080/v1/feeds/osaka/convoys?cursor=0&wait=5s'
//	curl -s -X POST localhost:8080/v1/feeds/osaka/flush
//	curl -s 'localhost:8080/v1/query/object?oid=1'
//	curl -s 'localhost:8080/v1/query/time?from=0&to=99&min_size=3'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

// config is convoyd's command line: the server's configuration plus the
// settings that belong to the process.
type config struct {
	addr string
	srv  server.Config
}

// parseFlags defines convoyd's flags on fs, parses args and checks the
// values no later layer rejects.
func parseFlags(fs *flag.FlagSet, args []string) (config, error) {
	var cfg config
	var window, retention int
	sc := &cfg.srv
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.IntVar(&sc.Params.M, "m", 3, "minimum convoy size (objects)")
	fs.IntVar(&sc.Params.K, "k", 4, "minimum convoy length (ticks)")
	fs.Float64Var(&sc.Params.Eps, "eps", 1.5, "clustering radius")
	fs.Float64Var(&sc.FlockR, "flock-r", 0, "disk radius for flock-pattern feeds (0 = eps)")
	fs.Float64Var(&sc.MCTheta, "mc-theta", 0, "minimum consecutive Jaccard overlap for moving-cluster feeds (0 = 0.5)")
	fs.IntVar(&sc.Shards, "shards", 8, "shard actor count (a new feed goes to the shard holding the fewest feeds)")
	fs.IntVar(&sc.QueueLen, "queue", 128, "per-shard ingest queue capacity (batches)")
	fs.IntVar(&window, "window", 0, "reordering window in ticks (0 = strict in-order)")
	fs.DurationVar(&sc.EnqueueWait, "enqueue-wait", 250*time.Millisecond, "how long ingest waits for queue space before 429")
	fs.StringVar(&sc.PersistPath, "persist", "", "closed-convoy sink path (empty = no persistence); an existing log is replayed at startup")
	fs.DurationVar(&sc.PersistEvery, "persist-every", 2*time.Second, "persistence interval")
	fs.DurationVar(&sc.FeedTTL, "feed-ttl", 0, "evict feeds idle for this long (0 = never); persisted history survives in the log")
	fs.StringVar(&sc.ArchiveDir, "archive-dir", "", "historical query archive directory (empty = /v1/query disabled); requires -persist, backfilled from the log at startup")
	fs.IntVar(&sc.ArchiveCache, "archive-cache", 0, "archive index write-buffer budget in bytes (0 = default 12 MiB)")
	fs.IntVar(&retention, "retention", 0, "expire archived convoys whose End tick lags the newest archived End by this many ticks or more (0 = keep everything); requires -archive-dir")
	fs.IntVar(&sc.MaxFeeds, "max-feeds", 0, "cap on live feeds; creating more answers 429 (0 = default 65536)")
	fs.Float64Var(&sc.IngestRate, "ingest-rate", 0, "per-feed ingest rate limit in snapshots/sec; excess answers 429 rate_limited (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}

	switch {
	case window < 0 || int64(window) > math.MaxInt32:
		return cfg, fmt.Errorf("-window %d out of range [0, %d]", window, math.MaxInt32)
	case sc.ArchiveDir != "" && sc.PersistPath == "":
		return cfg, errors.New("-archive-dir requires -persist (the log is the archive's source of truth)")
	case retention < 0 || int64(retention) > math.MaxInt32:
		return cfg, fmt.Errorf("-retention %d out of range [0, %d]", retention, math.MaxInt32)
	case retention > 0 && sc.ArchiveDir == "":
		return cfg, errors.New("-retention requires -archive-dir (retention expires archived convoys)")
	case sc.Shards < 0 || sc.QueueLen < 0 || sc.MaxFeeds < 0 || sc.ArchiveCache < 0:
		return cfg, errors.New("-shards, -queue, -max-feeds and -archive-cache must be >= 0")
	case sc.EnqueueWait < 0 || sc.PersistEvery < 0 || sc.FeedTTL < 0:
		return cfg, errors.New("-enqueue-wait, -persist-every and -feed-ttl must be >= 0")
	case sc.IngestRate < 0:
		return cfg, errors.New("-ingest-rate must be >= 0")
	}
	sc.Window, sc.Retention = int32(window), int32(retention)
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "convoyd:", err)
		os.Exit(1)
	}
	persist, archiveDir := cfg.srv.PersistPath, cfg.srv.ArchiveDir

	srv, err := server.New(cfg.srv)
	if err != nil {
		fmt.Fprintln(os.Stderr, "convoyd:", err)
		os.Exit(1)
	}
	st := srv.Stats()
	if m := st.Memory; m.RecoveredFeeds > 0 {
		log.Printf("convoyd: recovered %d feeds (%d persisted convoys) from %s", m.RecoveredFeeds, m.RecoveredConvoys, persist)
	}
	if a := st.Archive; a != nil {
		switch {
		case a.Rebuilt:
			log.Printf("convoyd: archive %s had diverged from the log; rebuilt with %d records", archiveDir, a.Backfilled)
		case a.Backfilled > 0:
			log.Printf("convoyd: archive %s backfilled %d records from %s", archiveDir, a.Backfilled, persist)
		default:
			log.Printf("convoyd: archive %s up to date", archiveDir)
		}
	}

	httpSrv := &http.Server{
		Addr:              cfg.addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Printf("convoyd: listening on %s (m=%d k=%d eps=%g shards=%d window=%d)",
		cfg.addr, cfg.srv.Params.M, cfg.srv.Params.K, cfg.srv.Params.Eps, cfg.srv.Shards, cfg.srv.Window)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "convoyd:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain, strictly ordered: Shutdown runs synchronously so
	// every in-flight request (including long-polls) finishes before
	// srv.Close() closes the shard queues and writes the final persist —
	// otherwise a request accepted before the signal could see 503 from a
	// server that promised to drain it.
	log.Println("convoyd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Println("convoyd: shutdown timeout, closing anyway:", err)
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "convoyd: close:", err)
		os.Exit(1)
	}
}

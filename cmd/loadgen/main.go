// Command loadgen drives convoyd over the K2BI binary ingest path with
// Brinkhoff-generated city traffic and emits an SLO artifact (LOAD_N.json):
//
//	loadgen -feeds 4 -objects 60 -ticks 80 -o LOAD_6.json
//
// By default an in-process convoyd serves the run (so one command measures
// the whole path with zero setup); -addr points at an already-running
// server instead. Each feed negotiates its pattern family on first ingest
// (-pattern-mix weights convoy/flock/mc), streams its road-network traffic
// in K2BI batches — optionally out of order within the reorder window
// (-ooo), rate-limited (-rate) or in square-wave bursts (-burst square) —
// and is flushed at the end. Concurrent long-pollers timestamp every
// closed pattern as it becomes observable.
//
// With -query-rate N the run also hammers the historical query endpoints
// (GET /v1/query/*, rotating the three shapes) at N requests/sec while
// ingest is running — the mixed read/write workload the archive's
// lock-free read path exists for. The in-process server then gets a
// temp-dir archive; a remote -addr server must have one configured.
//
// The artifact records ingest latency quantiles (p50/p90/p99/max over
// accepted requests), pattern-close lag quantiles (time from accepting the
// batch that made a pattern closable — its gap tick, or the flush — to the
// pattern arriving on a poll), query latency quantiles and the archive
// block-cache hit rate (with -query-rate), 429 shed/retry counts, peak RSS
// (VmHWM; the whole process, i.e. client+server in the default in-process
// mode), and the server's per-pattern /v1/stats counters.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	convoy "repro"
	"repro/internal/datagen/brinkhoff"
	"repro/internal/server"
	"repro/internal/storage"
)

type config struct {
	addr        string
	out         string
	feeds       int
	objects     int
	objPerTick  int
	ticks       int
	mix         string
	batch       int
	ooo         float64
	window      int
	rate        float64
	burst       string
	burstPeriod int
	seed        int64
	m, k        int
	eps         float64
	shards      int
	queue       int
	queryRate   float64
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.addr, "addr", "", "base URL of a running convoyd (empty = serve in-process)")
	fs.StringVar(&cfg.out, "o", "", "write the JSON artifact to this file (default stdout)")
	fs.IntVar(&cfg.feeds, "feeds", 4, "concurrent feeds")
	fs.IntVar(&cfg.objects, "objects", 60, "initial objects per feed (Brinkhoff ObjBegin)")
	fs.IntVar(&cfg.objPerTick, "obj-tick", 2, "objects spawned per tick per feed (churn; arrivals retire)")
	fs.IntVar(&cfg.ticks, "ticks", 80, "ticks per feed")
	fs.StringVar(&cfg.mix, "pattern-mix", "convoy=2,flock=1,mc=1", "feed pattern weights, e.g. convoy=2,flock=1,mc=1")
	fs.IntVar(&cfg.batch, "batch", 8, "ticks per ingest request")
	fs.Float64Var(&cfg.ooo, "ooo", 0, "fraction of adjacent ticks swapped inside each batch (needs -window >= 1)")
	fs.IntVar(&cfg.window, "window", 4, "reorder window in ticks (in-process server; a remote -addr server must match)")
	fs.Float64Var(&cfg.rate, "rate", 0, "batches/sec per feed (0 = unthrottled)")
	fs.StringVar(&cfg.burst, "burst", "none", "arrival profile at -rate: none (uniform) or square (full-speed bursts, then idle)")
	fs.IntVar(&cfg.burstPeriod, "burst-period", 4, "batches per square-wave burst")
	fs.Int64Var(&cfg.seed, "seed", 1, "base RNG seed (feed i uses seed+i)")
	fs.IntVar(&cfg.m, "m", 3, "minimum pattern size (in-process server)")
	fs.IntVar(&cfg.k, "k", 3, "minimum pattern length (in-process server)")
	fs.Float64Var(&cfg.eps, "eps", 40, "clustering radius (in-process server; Brinkhoff space is 2000x2000)")
	fs.IntVar(&cfg.shards, "shards", 4, "shard actors (in-process server)")
	fs.IntVar(&cfg.queue, "queue", 64, "per-shard queue capacity (in-process server)")
	fs.Float64Var(&cfg.queryRate, "query-rate", 0, "GET /v1/query/* requests/sec during ingest (0 = none; in-process server gets a temp-dir archive)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if cfg.queryRate < 0 {
		return cfg, errors.New("loadgen: -query-rate must be >= 0")
	}
	if cfg.feeds < 1 || cfg.ticks < 1 || cfg.batch < 1 || cfg.objects < 0 || cfg.objPerTick < 0 {
		return cfg, errors.New("loadgen: -feeds, -ticks and -batch must be >= 1; -objects and -obj-tick >= 0")
	}
	if cfg.ooo < 0 || cfg.ooo > 1 {
		return cfg, errors.New("loadgen: -ooo must be in [0, 1]")
	}
	if cfg.ooo > 0 && cfg.window < 1 {
		return cfg, errors.New("loadgen: -ooo needs -window >= 1 or the server drops the displaced ticks as late")
	}
	if cfg.burst != "none" && cfg.burst != "square" {
		return cfg, fmt.Errorf("loadgen: unknown -burst profile %q (none or square)", cfg.burst)
	}
	if cfg.burstPeriod < 1 {
		return cfg, errors.New("loadgen: -burst-period must be >= 1")
	}
	return cfg, nil
}

// parseMix expands "convoy=2,flock=1,mc=1" into the weighted round-robin
// cycle feeds are assigned from.
func parseMix(mix string) ([]convoy.Pattern, error) {
	var cycle []convoy.Pattern
	for _, part := range strings.Split(mix, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, ws, ok := strings.Cut(part, "=")
		w := 1
		if ok {
			var err error
			if w, err = strconv.Atoi(ws); err != nil || w < 0 {
				return nil, fmt.Errorf("loadgen: bad weight in -pattern-mix entry %q", part)
			}
		}
		pat, err := convoy.ParsePattern(strings.TrimSpace(name))
		if err != nil {
			return nil, fmt.Errorf("loadgen: -pattern-mix: %v", err)
		}
		for i := 0; i < w; i++ {
			cycle = append(cycle, pat)
		}
	}
	if len(cycle) == 0 {
		return nil, errors.New("loadgen: -pattern-mix selects no patterns")
	}
	return cycle, nil
}

// quantiles summarises a latency sample set in nanoseconds.
type quantiles struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

func summarize(ns []float64) quantiles {
	if len(ns) == 0 {
		return quantiles{}
	}
	sort.Float64s(ns)
	at := func(q float64) float64 { return ns[int(q*float64(len(ns)-1))] }
	return quantiles{
		Count: len(ns),
		P50:   at(0.50),
		P90:   at(0.90),
		P99:   at(0.99),
		Max:   ns[len(ns)-1],
	}
}

type shedCounts struct {
	HTTP429 int64 `json:"http_429"`
	Retries int64 `json:"retries"`
}

type patternCount struct {
	LiveFeeds   int   `json:"live_feeds"`
	ClosedTotal int64 `json:"closed_total"`
}

// report is the "loadgen" object of the artifact.
type report struct {
	Config     config         `json:"-"`
	ConfigJSON map[string]any `json:"config"`
	WallNs     int64          `json:"wall_ns"`
	Ingest     quantiles      `json:"ingest_ns"`
	CloseLag   quantiles      `json:"close_lag_ns"`
	// Query summarises the GET /v1/query/* latencies of a -query-rate run,
	// and QueryCacheHitRate the archive block cache's hits/(hits+misses)
	// over the same window; both are zero without -query-rate.
	Query             quantiles               `json:"query_ns"`
	QueryCacheHitRate float64                 `json:"query_cache_hit_rate,omitempty"`
	Shed              shedCounts              `json:"shed"`
	PeakRSSBytes      int64                   `json:"peak_rss_bytes"`
	TicksSent         int64                   `json:"ticks_sent"`
	PointsSent        int64                   `json:"points_sent"`
	ConvoysClosed     int64                   `json:"convoys_closed"`
	Patterns          map[string]patternCount `json:"patterns"`
}

// artifact is the document -o writes: the platform it ran on plus the load
// report under "loadgen".
type artifact struct {
	GOOS    string `json:"goos,omitempty"`
	GOARCH  string `json:"goarch,omitempty"`
	Loadgen report `json:"loadgen"`
}

// metrics aggregates measurements across all feed workers, pollers and
// query hammers.
type metrics struct {
	mu       sync.Mutex
	ingestNs []float64
	lagNs    []float64
	queryNs  []float64
	shed     shedCounts
	ticks    int64
	points   int64
	convoys  int64
}

// accepted is one accepted ingest request from a feed's timeline: the
// highest tick the server has accepted so far and when it said 202. A
// pattern ending at E becomes closable the moment maxTick exceeds E (the
// gap evidence) — or at flush.
type accepted struct {
	maxTick int32
	at      time.Time
}

// feedRun is one feed's drive state shared between its worker and poller.
type feedRun struct {
	name string
	pat  convoy.Pattern

	mu       sync.Mutex
	accepts  []accepted
	flushAt  time.Time // zero until the flush request is issued
	sendDone bool
}

// evidenceAt returns when the batch proving a pattern with End=end closable
// was accepted (the first accept whose maxTick passes end), falling back to
// the flush time for flush-closed patterns, or zero if unknown.
func (fr *feedRun) evidenceAt(end int32) time.Time {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	i := sort.Search(len(fr.accepts), func(i int) bool { return fr.accepts[i].maxTick > end })
	if i < len(fr.accepts) {
		return fr.accepts[i].at
	}
	return fr.flushAt
}

// convoysResponse mirrors the server's GET /convoys JSON (the fields the
// poller needs).
type convoysResponse struct {
	Pattern string `json:"pattern"`
	Cursor  int    `json:"cursor"`
	Convoys []struct {
		End int32 `json:"end"`
	} `json:"convoys"`
	Flushed bool `json:"flushed"`
}

// statsResponse mirrors the sections of GET /v1/stats loadgen consumes.
type statsResponse struct {
	Patterns map[string]patternCount `json:"patterns"`
	Archive  *struct {
		BlockCacheHits   int64 `json:"block_cache_hits_total"`
		BlockCacheMisses int64 `json:"block_cache_misses_total"`
	} `json:"archive"`
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	art, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if cfg.out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(cfg.out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(cfg config) (*artifact, error) {
	cycle, err := parseMix(cfg.mix)
	if err != nil {
		return nil, err
	}
	base := strings.TrimRight(cfg.addr, "/")
	var shutdown func() error
	if base == "" {
		base, shutdown, err = startInProcess(cfg)
		if err != nil {
			return nil, err
		}
		defer shutdown()
	}

	client := &http.Client{}
	mets := &metrics{}
	runs := make([]*feedRun, cfg.feeds)
	for i := range runs {
		runs[i] = &feedRun{name: fmt.Sprintf("load-%d", i), pat: cycle[i%len(cycle)]}
	}

	start := time.Now()
	errs := make(chan error, 2*cfg.feeds+1)
	var wg sync.WaitGroup
	stopQueries := make(chan struct{})
	var queryWg sync.WaitGroup
	if cfg.queryRate > 0 {
		queryWg.Add(1)
		go func() {
			defer queryWg.Done()
			errs <- hammerQueries(client, base, cfg, stopQueries, mets)
		}()
	}
	for i, fr := range runs {
		wg.Add(2)
		go func(i int, fr *feedRun) {
			defer wg.Done()
			errs <- driveFeed(client, base, cfg, int64(i), fr, mets)
		}(i, fr)
		go func(fr *feedRun) {
			defer wg.Done()
			errs <- pollFeed(client, base, fr, mets)
		}(fr)
	}
	wg.Wait()
	close(stopQueries)
	queryWg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return nil, err
		}
	}
	wall := time.Since(start)

	stats, err := fetchStats(client, base)
	if err != nil {
		return nil, err
	}
	rep := report{
		Config: cfg,
		ConfigJSON: map[string]any{
			"feeds": cfg.feeds, "objects": cfg.objects, "obj_tick": cfg.objPerTick,
			"ticks": cfg.ticks, "pattern_mix": cfg.mix, "batch": cfg.batch,
			"ooo": cfg.ooo, "window": cfg.window, "rate": cfg.rate,
			"burst": cfg.burst, "seed": cfg.seed, "query_rate": cfg.queryRate,
			"m": cfg.m, "k": cfg.k, "eps": cfg.eps, "shards": cfg.shards,
			"in_process": cfg.addr == "",
		},
		WallNs:        wall.Nanoseconds(),
		Ingest:        summarize(mets.ingestNs),
		CloseLag:      summarize(mets.lagNs),
		Query:         summarize(mets.queryNs),
		Shed:          mets.shed,
		PeakRSSBytes:  peakRSS(),
		TicksSent:     mets.ticks,
		PointsSent:    mets.points,
		ConvoysClosed: mets.convoys,
		Patterns:      stats.Patterns,
	}
	if a := stats.Archive; a != nil && a.BlockCacheHits+a.BlockCacheMisses > 0 {
		rep.QueryCacheHitRate = float64(a.BlockCacheHits) /
			float64(a.BlockCacheHits+a.BlockCacheMisses)
	}
	return &artifact{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Loadgen: rep}, nil
}

// startInProcess serves convoyd on a loopback port inside this process.
// With -query-rate the server also gets a throwaway archive (the query
// endpoints need one), persisted aggressively so queries have data to hit
// while ingest is still running.
func startInProcess(cfg config) (string, func() error, error) {
	scfg := server.Config{
		Params:   convoy.Params{M: cfg.m, K: cfg.k, Eps: cfg.eps},
		Shards:   cfg.shards,
		QueueLen: cfg.queue,
		Window:   int32(cfg.window),
	}
	cleanup := func() {}
	if cfg.queryRate > 0 {
		dir, err := os.MkdirTemp("", "loadgen-archive-")
		if err != nil {
			return "", nil, err
		}
		scfg.PersistPath = filepath.Join(dir, "closed.k2cl")
		scfg.ArchiveDir = filepath.Join(dir, "archive")
		scfg.PersistEvery = 25 * time.Millisecond
		cleanup = func() { os.RemoveAll(dir) }
	}
	srv, err := server.New(scfg)
	if err != nil {
		cleanup()
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		cleanup()
		return "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	shutdown := func() error {
		hs.Close()
		err := srv.Close()
		cleanup()
		return err
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

// hammerQueries issues GET /v1/query/* requests at cfg.queryRate per
// second, rotating the three query shapes, until stop closes. Successful
// page latencies feed the metrics; any non-200 fails the run (a remote
// -addr server must have an archive configured).
func hammerQueries(client *http.Client, base string, cfg config, stop <-chan struct{}, mets *metrics) error {
	urls := []string{
		fmt.Sprintf("%s/v1/query/time?from=0&to=%d", base, cfg.ticks),
		base + "/v1/query/object?oid=1",
		base + "/v1/query/convoys?min_size=2",
	}
	per := time.Duration(float64(time.Second) / cfg.queryRate)
	for i := 0; ; i++ {
		select {
		case <-stop:
			return nil
		default:
		}
		begin := time.Now()
		resp, err := client.Get(urls[i%len(urls)])
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("query status %d (is an archive configured on the -addr server?)", resp.StatusCode)
		}
		took := time.Since(begin)
		mets.mu.Lock()
		mets.queryNs = append(mets.queryNs, float64(took.Nanoseconds()))
		mets.mu.Unlock()
		if d := per - took; d > 0 {
			time.Sleep(d)
		}
	}
}

// driveFeed generates one feed's Brinkhoff traffic and streams it in K2BI
// batches, then flushes. Accepted-request latencies, shed counts and the
// accept timeline feed the metrics.
func driveFeed(client *http.Client, base string, cfg config, idx int64, fr *feedRun, mets *metrics) error {
	ds := brinkhoff.Generate(brinkhoff.Params{
		Seed: cfg.seed + idx, GridW: 8, GridH: 8, SpaceW: 2000, SpaceH: 2000,
		MaxTime: int32(cfg.ticks), ObjBegin: cfg.objects, ObjPerTick: cfg.objPerTick,
		Classes: 3, PlatoonFraction: 0.5, PlatoonSize: 4, PlatoonSpread: 20, Jitter: 10,
	})
	rng := rand.New(rand.NewSource(cfg.seed ^ (idx << 32)))
	ts, te := ds.TimeRange()
	var ticks []int32
	for tt := ts; tt <= te; tt++ {
		ticks = append(ticks, tt)
	}

	url := base + "/v1/feeds/" + fr.name + "/ingest?pattern=" + string(fr.pat)
	per := time.Duration(0)
	if cfg.rate > 0 {
		per = time.Duration(float64(time.Second) / cfg.rate)
	}
	for off, batchIdx := 0, 0; off < len(ticks); off, batchIdx = off+cfg.batch, batchIdx+1 {
		chunk := ticks[off:min(off+cfg.batch, len(ticks))]
		order := append([]int32(nil), chunk...)
		// Out-of-order injection: swap adjacent ticks (displacement 1, so
		// any window >= 1 reorders them back losslessly).
		for i := 0; i+1 < len(order); i += 2 {
			if rng.Float64() < cfg.ooo {
				order[i], order[i+1] = order[i+1], order[i]
			}
		}
		var body []byte
		var nPoints int64
		var err error
		for _, tt := range order {
			pos := ds.Snapshot(tt)
			nPoints += int64(len(pos))
			if body, err = storage.AppendBatchFrame(body, tt, pos); err != nil {
				return err
			}
		}
		if err := postAccepted(client, url, body, mets); err != nil {
			return fmt.Errorf("feed %s: %w", fr.name, err)
		}
		fr.mu.Lock()
		fr.accepts = append(fr.accepts, accepted{maxTick: chunk[len(chunk)-1], at: time.Now()})
		fr.mu.Unlock()
		mets.mu.Lock()
		mets.ticks += int64(len(chunk))
		mets.points += nPoints
		mets.mu.Unlock()

		if per > 0 {
			if cfg.burst == "square" {
				if (batchIdx+1)%cfg.burstPeriod == 0 {
					time.Sleep(time.Duration(cfg.burstPeriod) * per)
				}
			} else {
				time.Sleep(per)
			}
		}
	}

	fr.mu.Lock()
	fr.flushAt = time.Now()
	fr.sendDone = true
	fr.mu.Unlock()
	resp, err := client.Post(base+"/v1/feeds/"+fr.name+"/flush", "application/json", nil)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("feed %s: flush status %d", fr.name, resp.StatusCode)
	}
	return nil
}

// postAccepted sends one K2BI batch, retrying 429 shed responses with the
// server's Retry-After hint, and records the accepted request's latency.
func postAccepted(client *http.Client, url string, body []byte, mets *metrics) error {
	for {
		begin := time.Now()
		resp, err := client.Post(url, "application/x-k2bi", bytes.NewReader(body))
		if err != nil {
			return err
		}
		took := time.Since(begin)
		payload, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			mets.mu.Lock()
			mets.ingestNs = append(mets.ingestNs, float64(took.Nanoseconds()))
			mets.mu.Unlock()
			return nil
		case http.StatusTooManyRequests:
			backoff := 25 * time.Millisecond
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
				backoff = time.Duration(ra) * time.Second
			}
			mets.mu.Lock()
			mets.shed.HTTP429++
			mets.shed.Retries++
			mets.mu.Unlock()
			time.Sleep(backoff)
		default:
			return fmt.Errorf("ingest status %d: %s", resp.StatusCode, payload)
		}
	}
}

// pollFeed long-polls one feed's closed patterns, timestamping each arrival
// against the accept timeline to measure close lag. It exits when the flush
// state becomes observable.
func pollFeed(client *http.Client, base string, fr *feedRun, mets *metrics) error {
	cursor := 0
	for {
		resp, err := client.Get(fmt.Sprintf("%s/v1/feeds/%s/convoys?cursor=%d&wait=2s", base, fr.name, cursor))
		if err != nil {
			return err
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			// The worker has not created the feed yet.
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if resp.StatusCode == http.StatusGone {
			// A persisting server (always the case with -query-rate)
			// truncates published history once it reaches the log; a poller
			// that falls behind restarts from the feed's truncated_before,
			// as the cursor contract prescribes. The skipped convoys are in
			// the log/archive — only their close-lag samples are lost.
			tb, err := truncatedBefore(client, base, fr.name)
			if err != nil {
				return fmt.Errorf("feed %s: 410 recovery: %w", fr.name, err)
			}
			if tb <= cursor {
				return fmt.Errorf("feed %s: poll status 410 outside truncation (domain start %d): %s", fr.name, tb, data)
			}
			cursor = tb
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("feed %s: poll status %d: %s", fr.name, resp.StatusCode, data)
		}
		now := time.Now()
		var cr convoysResponse
		if err := json.Unmarshal(data, &cr); err != nil {
			return fmt.Errorf("feed %s: poll body: %w", fr.name, err)
		}
		for _, c := range cr.Convoys {
			if at := fr.evidenceAt(c.End); !at.IsZero() {
				mets.mu.Lock()
				mets.lagNs = append(mets.lagNs, float64(now.Sub(at).Nanoseconds()))
				mets.mu.Unlock()
			}
		}
		mets.mu.Lock()
		mets.convoys += int64(len(cr.Convoys))
		mets.mu.Unlock()
		cursor = cr.Cursor
		if cr.Flushed {
			return nil
		}
	}
}

// truncatedBefore reads one feed's live-cursor-domain lower bound from
// /v1/stats (the machine-readable form of the 410 error's prose).
func truncatedBefore(client *http.Client, base, feed string) (int, error) {
	var st struct {
		Feeds map[string]struct {
			TruncatedBefore int `json:"truncated_before"`
		} `json:"feeds"`
	}
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("stats status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, err
	}
	f, ok := st.Feeds[feed]
	if !ok {
		return 0, fmt.Errorf("feed %s missing from stats", feed)
	}
	return f.TruncatedBefore, nil
}

func fetchStats(client *http.Client, base string) (statsResponse, error) {
	var st statsResponse
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// peakRSS reads the process high-water RSS from /proc (0 where /proc is
// unavailable — the artifact field is best-effort off Linux).
func peakRSS() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fs := strings.Fields(rest)
			if len(fs) >= 1 {
				kb, err := strconv.ParseInt(fs[0], 10, 64)
				if err == nil {
					return kb * 1024
				}
			}
		}
	}
	return 0
}

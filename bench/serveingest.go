package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	convoy "repro"
	"repro/internal/server"
	"repro/internal/storage"
)

// serveInput is a serving workload after set-up: generated feeds with
// their request bodies, and a child convoyd ready to take them.
type serveInput struct {
	feeds []*feedInput
	srv   *child
	dir   string
	// logRecords is the synthetic convoy log the child was started on
	// (serve-mixed).
	logRecords []storage.LoggedConvoy
}

func (in *serveInput) teardown() {
	in.srv.kill()
	os.RemoveAll(in.dir)
}

// serverArgs are convoyd's flags common to both serving workloads.
func serverArgs(sc scale, dir string, queue int) []string {
	return []string{
		"-m", fmt.Sprint(sc.ServeM), "-k", fmt.Sprint(sc.ServeK), "-eps", fmt.Sprint(sc.ServeEps),
		"-shards", fmt.Sprint(sc.ServeShards), "-queue", fmt.Sprint(queue),
		"-window", fmt.Sprint(sc.ServeWindow), "-enqueue-wait", "10s",
		"-persist", filepath.Join(dir, "closed.k2cl"), "-archive-dir", filepath.Join(dir, "archive"),
	}
}

func patternParams(sc scale) convoy.PatternParams {
	return convoy.PatternParams{Params: convoy.Params{M: sc.ServeM, K: sc.ServeK, Eps: sc.ServeEps}}
}

// convoysBody is the JSON of a flush or convoys response.
type convoysBody struct {
	Cursor          int  `json:"cursor"`
	TruncatedBefore int  `json:"truncated_before"`
	Flushed         bool `json:"flushed"`
	Convoys         []struct {
		Objs     []int32   `json:"objs"`
		Start    int32     `json:"start"`
		End      int32     `json:"end"`
		Clusters [][]int32 `json:"clusters"`
	} `json:"convoys"`
}

// canonical renders the patterns of a response, sorted, one per line.
func (b *convoysBody) canonical() string {
	lines := make([]string, len(b.Convoys))
	for i, c := range b.Convoys {
		lines[i] = fmt.Sprintf("%v [%d,%d] %v", c.Objs, c.Start, c.End, c.Clusters)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// canonicalResults renders in-process results exactly as canonical renders
// a response. ObjSet prints itself as {1,2}; the conversions undo that.
func canonicalResults(rs []convoy.PatternResult) string {
	lines := make([]string, len(rs))
	for i, r := range rs {
		clusters := make([][]int32, len(r.Clusters))
		for j, cl := range r.Clusters {
			clusters[j] = cl
		}
		lines[i] = fmt.Sprintf("%v [%d,%d] %v", []int32(r.Objs), r.Start, r.End, clusters)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// postBody sends one K2BI body and reports how long the 202 took.
func postBody(client *http.Client, url string, body []byte) (time.Duration, error) {
	start := time.Now()
	resp, err := client.Post(url, "application/x-k2bi", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	payload, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	took := time.Since(start)
	if resp.StatusCode != http.StatusAccepted {
		return took, fmt.Errorf("ingest status %d: %s", resp.StatusCode, bytes.TrimSpace(payload))
	}
	return took, nil
}

// flushFeed ends a feed and returns the server's full result set for it.
func flushFeed(client *http.Client, base, feed string) (*convoysBody, error) {
	resp, err := client.Post(base+"/v1/feeds/"+feed+"/flush", "application/json", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		payload, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("flush status %d: %s", resp.StatusCode, bytes.TrimSpace(payload))
	}
	var body convoysBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	return &body, nil
}

// replayFeed mines the first n ticks of a feed in-process, as the batch
// reference for what the server must answer at flush.
func replayFeed(sc scale, f *feedInput, n int) ([]convoy.PatternResult, error) {
	mn, err := convoy.NewPatternMiner(f.pattern, patternParams(sc))
	if err != nil {
		return nil, err
	}
	for t := 0; t < n; t++ {
		if err := mn.Observe(int32(t), f.ticks[t]); err != nil {
			return nil, err
		}
	}
	return mn.Flush(), nil
}

func setupServeIngest(ctx *runCtx, bin string, rep int) (*serveInput, error) {
	feeds, err := genIngestFeeds(ctx.sc, ctx.seed)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(ctx.workDir, fmt.Sprintf("ingest-%d", rep))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	srv, err := startChild(bin, serverArgs(ctx.sc, dir, ctx.sc.IngestQueue)...)
	if err != nil {
		return nil, err
	}
	return &serveInput{feeds: feeds, srv: srv, dir: dir}, nil
}

// ingestConn is what one connection did during the measured phase.
type ingestConn struct {
	feeds  []*ingestFeed
	lat    []float64 // ms per accepted POST
	rounds []float64 // ms per round: one body of each of the connection's feeds
	points int64
	errs   []error
	posts  int64
}

// ingestFeed is one feed's progress; only its connection touches it.
type ingestFeed struct {
	*feedInput
	sent  int          // bodies accepted, warm-up included
	flush *convoysBody // the server's final answer
}

func runServeIngest(ctx *runCtx) error {
	rep, sc := ctx.rep, ctx.sc
	bin, buildTook, err := buildConvoyd(ctx)
	if err != nil {
		return err
	}
	n := 0
	in, err := timedSetup(rep,
		func() (*serveInput, error) { n++; return setupServeIngest(ctx, bin, n) },
		(*serveInput).teardown)
	if err != nil {
		return err
	}
	defer in.teardown()
	srv := in.srv
	ctx.phase("set up")

	// Connection c drives every second feed, so both carry the same mix.
	conns := []*ingestConn{{}, {}}
	clients := []*http.Client{oneConn(), oneConn()}
	feeds := make([]*ingestFeed, len(in.feeds))
	for i, f := range in.feeds {
		feeds[i] = &ingestFeed{feedInput: f}
		conns[i%2].feeds = append(conns[i%2].feeds, feeds[i])
	}
	// Warm-up: the first body of every feed creates the feed and opens
	// the connection; it is mined but not measured.
	for c, cn := range conns {
		for _, f := range cn.feeds {
			_, err := postBody(clients[c], f.url(srv.base), f.bodies[0])
			if !rep.op(err == nil, "warm-up %s: %v", f.name, err) {
				return nil
			}
			f.sent = 1
		}
	}

	// A traced run sends a fixed number of ticks so that its counts repeat;
	// an untraced one sends for -seconds.
	maxBodies := len(in.feeds[0].bodies)
	deadline := ctx.seconds
	if ctx.traced {
		maxBodies = min(maxBodies, sc.IngestTraceTicks/sc.IngestBatchTicks)
		deadline = time.Hour
	}
	cpu0, err := srv.cpuTime()
	if err != nil {
		return err
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c, cn := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 1; b < maxBodies && time.Since(start) < deadline; b++ {
				roundStart := time.Now()
				for _, f := range cn.feeds {
					took, err := postBody(clients[c], f.url(srv.base), f.bodies[b])
					cn.posts++
					if err != nil {
						cn.errs = append(cn.errs, fmt.Errorf("%s body %d: %w", f.name, b, err))
						continue
					}
					cn.lat = append(cn.lat, ms(took))
					cn.points += f.bodyPoints[b]
					f.sent = b + 1
				}
				cn.rounds = append(cn.rounds, ms(time.Since(roundStart)))
			}
			for _, f := range cn.feeds {
				var err error
				if f.flush, err = flushFeed(clients[c], srv.base, f.name); err != nil {
					cn.errs = append(cn.errs, fmt.Errorf("flush %s: %w", f.name, err))
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	ctx.phase("measured")
	cpu1, err := srv.cpuTime()
	if err != nil {
		return err
	}

	var lat, rounds []float64
	var points int64
	for _, cn := range conns {
		rep.attempted += cn.posts + int64(len(cn.feeds)) // every POST and every flush
		for _, err := range cn.errs {
			rep.fail("%v", err)
		}
		lat = append(lat, cn.lat...)
		rounds = append(rounds, cn.rounds...)
		points += cn.points
	}
	if points == 0 {
		return fmt.Errorf("no points accepted: %s", srv.stderr.String())
	}
	mpoints := float64(points) / 1e6
	rep.set("points_per_s", float64(points)/wall.Seconds(), 1)
	// At saturation a POST waits for queue space behind whichever feed the
	// shard is mining, so single POSTs fall into several modes; a round
	// (one body of each of the connection's feeds) adds them up.
	rep.set("latency_p50_ms", median(rounds), len(rounds))
	rep.set("client.ingest_p50_ms", median(lat), len(lat))
	rep.set("client.ingest_p99_ms", quantile(lat, 0.99), len(lat))
	rep.set("cpu_s_per_mpoint", (cpu1-cpu0).Seconds()/mpoints, 1)
	rep.set("server.cores_used", (cpu1-cpu0).Seconds()/wall.Seconds(), 1)
	rep.set("client.build_s", buildTook.Seconds(), 1)
	rep.set("server.restart_s", srv.ready.Seconds(), 1)
	rep.info["points_sent"] = points
	rep.info["measured_s"] = wall.Seconds()
	fmt.Fprintf(os.Stderr, "# %d points in %d bodies over %.2f s (first POST to last flush response)\n", points, len(lat), wall.Seconds())

	// Gates on the server's own account of the run.
	st, err := srv.stats(clients[0])
	if err != nil {
		return err
	}
	var ticksMined, late int64
	for _, f := range feeds {
		fs := st.Feeds[f.name]
		want := int64(f.sent * sc.IngestBatchTicks)
		rep.op(fs.TicksMined == want && fs.LateDropped == 0,
			"%s: server mined %d ticks (%d late), %d were sent", f.name, fs.TicksMined, fs.LateDropped, want)
		rep.op(f.flush != nil && f.flush.Flushed && fs.ClosedTotal > 0,
			"%s: flush missing or nothing closed (closed_total %d)", f.name, fs.ClosedTotal)
		ticksMined += fs.TicksMined
		late += fs.LateDropped
	}
	shed := st.Admission.QueueFullTotal + st.Admission.RateLimitedTotal + st.Admission.BreakerRejectedTotal
	rep.op(shed == 0, "server shed %d requests with 429", shed)
	recordServerStats(rep, st, ticksMined, late, shed)

	rss, err := peakRSSMB(srv.pid())
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", rss, 1)
	shutdown, err := srv.stop()
	rep.op(err == nil, "convoyd shutdown: %v", err)
	rep.set("server.shutdown_s", shutdown.Seconds(), 1)
	ctx.phase("server stopped")

	// Gate: what the server answered at flush equals batch mining the same
	// ticks in-process. The untraced run checks the cheap feeds; the
	// traced run, which replays every class anyway, checks one of each.
	checked := map[string]bool{"parked": true, "flock": true}
	if ctx.traced {
		checked["moving"], checked["mc"] = true, true
	}
	for _, f := range feeds {
		if !checked[f.class] || f.flush == nil {
			continue
		}
		checked[f.class] = false
		ref, err := replayFeed(sc, f.feedInput, f.sent*sc.IngestBatchTicks)
		if rep.op(err == nil, "replay %s: %v", f.name, err) {
			rep.op(canonicalResults(ref) == f.flush.canonical(),
				"%s: flush response (%d patterns) differs from the in-process replay (%d)",
				f.name, len(f.flush.Convoys), len(ref))
		}
	}

	ctx.phase("flush responses checked against in-process replays")
	if ctx.traced {
		if err := traceWire(ctx, in.feeds[0]); err != nil {
			return err
		}
		if err := traceMiners(ctx, in.feeds); err != nil {
			return err
		}
		recs := genLogRecords(subSeed(ctx.seed, 3), sc.IngestLogRecords, sc.MixedLogFeeds, sc.MixedLogOIDs, sc.MixedLogEndSpan)
		return traceStorage(ctx, recs)
	}
	return nil
}

// recordServerStats turns the child's /v1/stats into server.* metrics.
func recordServerStats(rep *report, st server.Stats, ticksMined, late, shed int64) {
	maxFeeds, total := 0, 0
	for _, sh := range st.Shards {
		maxFeeds = max(maxFeeds, sh.Feeds)
		total += sh.Feeds
	}
	if total > 0 {
		rep.set("server.shard_feed_skew", float64(maxFeeds)*float64(len(st.Shards))/float64(total), 1)
	}
	rep.set("server.http_429", float64(shed), 1)
	rep.set("server.late_dropped", float64(late), 1)
	rep.set("server.ticks_mined", float64(ticksMined), 1)
	rep.set("server.closed_total.convoy", float64(st.Patterns["convoy"].ClosedTotal), 1)
	rep.set("server.closed_total.flock", float64(st.Patterns["flock"].ClosedTotal), 1)
	rep.set("server.closed_total.mc", float64(st.Patterns["mc"].ClosedTotal), 1)
	rep.set("server.heap_alloc_mb", float64(st.Memory.HeapAllocBytes)/(1<<20), 1)
	if a := st.Archive; a != nil {
		rep.set("archive.block_cache_hit_rate", rate(a.BlockCacheHits, a.BlockCacheMisses), 1)
		rep.set("archive.bloom_hit_rate", rate(a.BloomHits, a.BloomMisses), 1)
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func setupServeMixed(ctx *runCtx, bin string, rep int) (*serveInput, error) {
	sc := ctx.sc
	dir := filepath.Join(ctx.workDir, fmt.Sprintf("mixed-%d", rep))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in := &serveInput{dir: dir}
	in.logRecords = genLogRecords(subSeed(ctx.seed, 3), sc.MixedLogRecords, sc.MixedLogFeeds, sc.MixedLogOIDs, sc.MixedLogEndSpan)
	if err := writeLog(filepath.Join(dir, "closed.k2cl"), in.logRecords); err != nil {
		return nil, err
	}
	bodies := int((sc.MixedWarmup+ctx.seconds)/sc.MixedBatchEvery) + 1 // as many as mixedSchedule can ask for
	var err error
	if in.feeds, err = genLiveFeeds(sc, ctx.seed, bodies*sc.MixedBatchTicks); err != nil {
		return nil, err
	}
	// The archive directory starts empty: the child replays the log and
	// backfills the archive from it before it listens.
	args := append(serverArgs(sc, dir, sc.ServeQueue), "-persist-every", sc.MixedPersistEvery.String())
	if in.srv, err = startChild(bin, args...); err != nil {
		return nil, err
	}
	return in, nil
}

// mixedEvent is one request of connection A's schedule.
type mixedEvent struct {
	due   time.Duration // since the schedule began
	feed  int           // ingest: index of the live feed; query: -1
	index int           // body or query number
}

// mixedSchedule lays out ingest and queries so that no two requests are
// due at the same instant: feed i's bodies at b·every + i·every/feeds,
// queries 7 ms after every multiple of the query period.
func mixedSchedule(sc scale, total time.Duration) []mixedEvent {
	var evs []mixedEvent
	for b := 0; time.Duration(b)*sc.MixedBatchEvery < total; b++ {
		for i := 0; i < sc.MixedLiveFeeds; i++ {
			due := time.Duration(b)*sc.MixedBatchEvery + time.Duration(i)*sc.MixedBatchEvery/time.Duration(sc.MixedLiveFeeds)
			evs = append(evs, mixedEvent{due: due, feed: i, index: b})
		}
	}
	for j := 0; ; j++ {
		due := time.Duration(j)*sc.MixedQueryEvery + 7*time.Millisecond
		if due >= total {
			break
		}
		evs = append(evs, mixedEvent{due: due, feed: -1, index: j})
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].due < evs[b].due })
	return evs
}

// arrival is one closed pattern seen by the long-poller.
type arrival struct {
	end int32
	at  time.Time
}

// pollClosed long-polls a feed's closed patterns until the feed is flushed,
// stamping each pattern's arrival. A poller that falls behind history
// truncation restarts from the feed's truncated_before, as the cursor
// contract prescribes.
func pollClosed(client *http.Client, srv *child, feed string) ([]arrival, error) {
	var out []arrival
	cursor := 0
	for {
		resp, err := client.Get(fmt.Sprintf("%s/v1/feeds/%s/convoys?cursor=%d&wait=2s", srv.base, feed, cursor))
		if err != nil {
			return out, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		now := time.Now()
		if err != nil {
			return out, err
		}
		switch resp.StatusCode {
		case http.StatusNotFound: // not created yet
			time.Sleep(2 * time.Millisecond)
			continue
		case http.StatusGone:
			st, err := srv.stats(client)
			if err != nil {
				return out, err
			}
			tb := st.Feeds[feed].TruncatedBefore
			if tb <= cursor {
				return out, fmt.Errorf("poll %s: 410 outside truncation: %s", feed, data)
			}
			cursor = tb
			continue
		case http.StatusOK:
		default:
			return out, fmt.Errorf("poll %s: status %d: %s", feed, resp.StatusCode, data)
		}
		var body convoysBody
		if err := json.Unmarshal(data, &body); err != nil {
			return out, err
		}
		for _, c := range body.Convoys {
			out = append(out, arrival{end: c.End, at: now})
		}
		cursor = body.Cursor
		if body.Flushed {
			return out, nil
		}
	}
}

func runServeMixed(ctx *runCtx) error {
	rep, sc := ctx.rep, ctx.sc
	bin, buildTook, err := buildConvoyd(ctx)
	if err != nil {
		return err
	}
	n := 0
	in, err := timedSetup(rep,
		func() (*serveInput, error) { n++; return setupServeMixed(ctx, bin, n) },
		(*serveInput).teardown)
	if err != nil {
		return err
	}
	defer in.teardown()
	srv := in.srv
	ctx.phase("set up")
	rep.set("server.restart_s", srv.ready.Seconds(), 1)
	rep.set("client.build_s", buildTook.Seconds(), 1)

	total := sc.MixedWarmup + ctx.seconds
	events := mixedSchedule(sc, total)
	nQueries := 0
	for _, ev := range events {
		if ev.feed < 0 {
			nQueries++
		}
	}
	queries := genQueries(subSeed(ctx.seed, 5), nQueries, sc.MixedLogOIDs, sc.MixedLogEndSpan)

	connA, connB := oneConn(), oneConn()
	type polled struct {
		arrivals []arrival
		err      error
	}
	pollDone := make(chan polled, 1)
	go func() {
		a, err := pollClosed(connB, srv, in.feeds[0].name)
		pollDone <- polled{a, err}
	}()

	var (
		ingestLat, queryLat, late []float64
		byShape                   = map[string][]float64{}
		points                    int64
		sentTicks                 = make([]int64, len(in.feeds))
		cpu0                      time.Duration
		measuredFrom              time.Time
	)
	start := time.Now()
	free := start // when connection A's previous request completed
	for _, ev := range events {
		due := start.Add(ev.due)
		sleepUntil(due)
		measured := ev.due >= sc.MixedWarmup
		if measured && measuredFrom.IsZero() {
			measuredFrom = due
			if cpu0, err = srv.cpuTime(); err != nil {
				return err
			}
		}
		sent := time.Now()
		if ev.feed >= 0 {
			f := in.feeds[ev.feed]
			_, err := postBody(connA, f.url(srv.base), f.bodies[ev.index])
			ok := rep.op(err == nil, "%s body %d: %v", f.name, ev.index, err)
			if ok {
				sentTicks[ev.feed] += int64(sc.MixedBatchTicks)
			}
			if ok && measured {
				ingestLat = append(ingestLat, ms(time.Since(due)))
				points += f.bodyPoints[ev.index]
			}
		} else {
			q := queries[ev.index]
			err := getDiscard(connA, q.url(srv.base))
			ok := rep.op(err == nil, "%s query: %v", q.shape, err)
			if ok && measured {
				took := ms(time.Since(due))
				queryLat = append(queryLat, took)
				byShape[q.shape] = append(byShape[q.shape], took)
			}
		}
		// How late the generator sent, where the connection was free at
		// the due time: a request still waiting for the previous answer is
		// the server's lateness, and its latency from the due time has it.
		if measured && !free.After(due) {
			late = append(late, ms(sent.Sub(due)))
		}
		free = time.Now()
	}
	end := free
	ctx.phase("measured")
	cpu1, err := srv.cpuTime()
	if err != nil {
		return err
	}

	// End the live feeds (outside the measured phase): the poller sees the
	// flush and returns, and the server's counts stop moving.
	for _, f := range in.feeds {
		_, err := flushFeed(connA, srv.base, f.name)
		rep.op(err == nil, "flush %s: %v", f.name, err)
	}
	pd := <-pollDone
	rep.op(pd.err == nil, "long-poll: %v", pd.err)

	// Close lag: a pattern ending at E can close once tick E+1 is sealed,
	// which takes a body reaching tick E+1+window. Lag runs from that
	// body's due time to the pattern's arrival on the long-poll, so it
	// includes queue wait and excludes the reorder-window hold.
	live := in.feeds[0]
	var lag []float64
	for _, a := range pd.arrivals {
		need := a.end + 1 + int32(sc.ServeWindow)
		b := sort.Search(len(live.bodyMaxTick), func(i int) bool { return live.bodyMaxTick[i] >= need })
		if b == len(live.bodyMaxTick) {
			continue // closed by the final flush
		}
		due := time.Duration(b) * sc.MixedBatchEvery
		if due < sc.MixedWarmup || due >= total {
			continue
		}
		lag = append(lag, ms(a.at.Sub(start.Add(due))))
	}

	wall := end.Sub(measuredFrom)
	mpoints := float64(points) / 1e6
	if points == 0 || len(ingestLat) == 0 || len(queryLat) == 0 {
		return fmt.Errorf("nothing measured: %s", srv.stderr.String())
	}
	rep.set("points_per_s", float64(points)/wall.Seconds(), 1)
	rep.set("latency_p50_ms", median(queryLat), len(queryLat))
	rep.set("cpu_s_per_mpoint", (cpu1-cpu0).Seconds()/mpoints, 1)
	rep.set("server.cores_used", (cpu1-cpu0).Seconds()/wall.Seconds(), 1)
	rep.set("client.ingest_p50_ms", median(ingestLat), len(ingestLat))
	rep.set("client.ingest_p99_ms", quantile(ingestLat, 0.99), len(ingestLat))
	rep.set("client.query_p50_ms", median(queryLat), len(queryLat))
	rep.set("client.query_p99_ms", quantile(queryLat, 0.99), len(queryLat))
	for shape, xs := range byShape {
		rep.set("client.query_p50_ms."+shape, median(xs), len(xs))
	}
	rep.set("client.close_lag_p50_ms", median(lag), len(lag))
	rep.set("client.close_lag_p99_ms", quantile(lag, 0.99), len(lag))
	lateP99 := quantile(late, 0.99)
	rep.set("client.sched_late_p99_ms", lateP99, len(late))
	rep.op(lateP99 <= ms(sc.MixedQueryEvery),
		"the generator ran %.2f ms late at p99, more than one %s schedule period: it, not the server, was the bottleneck",
		lateP99, sc.MixedQueryEvery)
	rep.info["points_sent"] = points
	fmt.Fprintf(os.Stderr, "# restart_s %.3f  ingest p50 %.3f ms  query p50 %.3f ms  close lag p50 %.3f ms (n=%d)  late p99 %.3f ms\n",
		srv.ready.Seconds(), median(ingestLat), median(queryLat), median(lag), len(lag), lateP99)

	st, err := srv.stats(connA)
	if err != nil {
		return err
	}
	var ticksMined, lateDropped int64
	for i, f := range in.feeds {
		fs := st.Feeds[f.name]
		rep.op(fs.TicksMined == sentTicks[i] && fs.LateDropped == 0,
			"%s: server mined %d ticks (%d late), %d were sent", f.name, fs.TicksMined, fs.LateDropped, sentTicks[i])
		ticksMined += fs.TicksMined
		lateDropped += fs.LateDropped
	}
	shed := st.Admission.QueueFullTotal + st.Admission.RateLimitedTotal + st.Admission.BreakerRejectedTotal
	rep.op(shed == 0, "server shed %d requests with 429", shed)
	recordServerStats(rep, st, ticksMined, lateDropped, shed)

	// Gate: paging the whole time axis to exhaustion returns every record
	// of the log the child was started on, exactly once.
	got, err := countArchived(connA, srv.base, "hist-")
	if rep.op(err == nil, "paging the archive: %v", err) {
		rep.op(got == len(in.logRecords), "archive returned %d historical records, the log holds %d", got, len(in.logRecords))
	}

	rss, err := peakRSSMB(srv.pid())
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", rss, 1)
	shutdown, err := srv.stop()
	rep.op(err == nil, "convoyd shutdown: %v", err)
	rep.set("server.shutdown_s", shutdown.Seconds(), 1)
	ctx.phase("archive paged, server stopped")

	if ctx.traced {
		if err := traceWire(ctx, live); err != nil {
			return err
		}
		return traceStorage(ctx, in.logRecords)
	}
	return nil
}

// sleepUntil returns at t to within microseconds. The runtime wakes a
// sleeper up to a millisecond late, which would be added to every latency
// timed from its due time; so sleep short and spin the rest.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// getDiscard issues a GET and reads the whole body.
func getDiscard(client *http.Client, url string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// countArchived pages /v1/query/time over the whole axis and counts the
// records whose feed name starts with prefix.
func countArchived(client *http.Client, base, prefix string) (int, error) {
	count := 0
	cursor := ""
	for {
		url := base + "/v1/query/time?limit=1000"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		resp, err := client.Get(url)
		if err != nil {
			return count, err
		}
		var page struct {
			Convoys []struct {
				Feed string `json:"feed"`
			} `json:"convoys"`
			Cursor string `json:"cursor"`
			More   bool   `json:"more"`
		}
		err = json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if err != nil {
			return count, err
		}
		if resp.StatusCode != http.StatusOK {
			return count, fmt.Errorf("status %d", resp.StatusCode)
		}
		for _, c := range page.Convoys {
			if strings.HasPrefix(c.Feed, prefix) {
				count++
			}
		}
		if !page.More {
			return count, nil
		}
		cursor = page.Cursor
	}
}

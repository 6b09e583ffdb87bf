// Command loadgen sends city traffic to a running convoyd over the K2BI
// binary ingest path:
//
//	loadgen -addr http://localhost:8080 -feeds 4 -ooo 0.2 -rate 50 -burst square
//
// Feed i sends minetest.City(seed+i, -objects, -obj-tick) under the next
// family in -patterns, -batch ticks per request, then flushes. -ooo swaps
// that fraction of adjacent ticks in each batch (a server with -window >= 1
// restores the order); -rate and -burst shape arrivals; a 429 is retried
// after its Retry-After. The one JSON line printed holds ingest latency,
// 429s, points sent, wall time, points/s and late_dropped summed over the
// run's feeds from GET /v1/stats, so disorder the server could not absorb
// shows as loss. bench/'s serve-ingest and serve-mixed measure convoyd.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	convoy "repro"
	"repro/internal/minetest"
	"repro/internal/model"
	"repro/internal/storage"
)

// burstPeriod is the number of batches in one -burst square burst.
const burstPeriod = 4

type config struct {
	addr       string
	feeds      int
	objects    int
	objPerTick int
	patterns   []convoy.Pattern
	batch      int
	ooo        float64
	rate       float64
	burstLen   int // batches sent back to back before idling: 1, or burstPeriod
	seed       int64
}

// parseFlags defines loadgen's flags on fs and parses args.
func parseFlags(fs *flag.FlagSet, args []string) (config, error) {
	var cfg config
	var patterns, burst string
	fs.StringVar(&cfg.addr, "addr", "", "base URL of the convoyd to drive (required)")
	fs.IntVar(&cfg.feeds, "feeds", 4, "concurrent feeds")
	fs.IntVar(&cfg.objects, "objects", 60, "initial objects per feed (Brinkhoff ObjBegin)")
	fs.IntVar(&cfg.objPerTick, "obj-tick", 2, "objects spawned per tick per feed (churn; arrivals retire)")
	fs.StringVar(&patterns, "patterns", "convoy,flock,mc", "pattern families, cycled over the feeds")
	fs.IntVar(&cfg.batch, "batch", 8, "ticks per ingest request")
	fs.Float64Var(&cfg.ooo, "ooo", 0, "fraction of adjacent ticks swapped inside each batch (the server needs -window >= 1)")
	fs.Float64Var(&cfg.rate, "rate", 0, "batches/sec per feed (0 = unthrottled)")
	fs.StringVar(&burst, "burst", "none", "arrival profile at -rate: none (uniform) or square (full-speed bursts, then idle)")
	fs.Int64Var(&cfg.seed, "seed", 1, "base RNG seed (feed i uses seed+i)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.addr = strings.TrimRight(cfg.addr, "/")
	if cfg.addr == "" {
		return cfg, errors.New("-addr is required")
	}
	if cfg.feeds < 1 || cfg.batch < 1 || cfg.objects < 0 || cfg.objPerTick < 0 || cfg.rate < 0 || cfg.ooo < 0 || cfg.ooo > 1 {
		return cfg, errors.New("-feeds and -batch must be >= 1, -objects, -obj-tick and -rate >= 0, and -ooo in [0, 1]")
	}
	if cfg.burstLen = map[string]int{"none": 1, "square": burstPeriod}[burst]; cfg.burstLen == 0 {
		return cfg, fmt.Errorf("unknown -burst profile %q (none or square)", burst)
	}
	for _, name := range strings.Split(patterns, ",") {
		pat, err := convoy.ParsePattern(strings.TrimSpace(name))
		if err != nil {
			return cfg, fmt.Errorf("-patterns: %v", err)
		}
		cfg.patterns = append(cfg.patterns, pat)
	}
	return cfg, nil
}

// quantiles summarises a latency sample set in nanoseconds.
type quantiles struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

func summarize(ns []float64) quantiles {
	if len(ns) == 0 {
		return quantiles{}
	}
	sort.Float64s(ns)
	at := func(q float64) float64 { return ns[int(q*float64(len(ns)-1))] }
	return quantiles{Count: len(ns), P50: at(0.50), P99: at(0.99), Max: ns[len(ns)-1]}
}

// report is the JSON line the tool prints. Every 429 is retried, so
// HTTP429 is also the retry count.
type report struct {
	Ingest      quantiles `json:"ingest_ns"`
	HTTP429     int64     `json:"http_429"`
	PointsSent  int64     `json:"points_sent"`
	WallS       float64   `json:"wall_s"`
	PointsPerS  float64   `json:"points_per_s"`
	LateDropped int64     `json:"late_dropped"`
}

// tally is what one feed's sender measured.
type tally struct {
	ingestNs []float64
	http429  int64
}

func main() {
	cfg, err := parseFlags(flag.CommandLine, os.Args[1:])
	var rep report
	if err == nil {
		rep, err = run(cfg)
	}
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func feedName(i int) string { return fmt.Sprintf("load-%d", i) }

func run(cfg config) (report, error) {
	var rep report
	traffic := make([][][]model.ObjPos, cfg.feeds)
	for i := range traffic {
		traffic[i] = minetest.City(cfg.seed+int64(i), cfg.objects, cfg.objPerTick)
		for _, snap := range traffic[i] {
			rep.PointsSent += int64(len(snap))
		}
	}
	tallies := make([]tally, cfg.feeds)
	errs := make([]error, cfg.feeds)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range traffic {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = driveFeed(cfg, i, traffic[i], &tallies[i])
		}()
	}
	wg.Wait()
	rep.WallS = time.Since(start).Seconds()
	if err := errors.Join(errs...); err != nil {
		return rep, err
	}
	var ingestNs []float64
	for _, tl := range tallies {
		ingestNs = append(ingestNs, tl.ingestNs...)
		rep.HTTP429 += tl.http429
	}
	rep.Ingest = summarize(ingestNs)
	rep.PointsPerS = float64(rep.PointsSent) / rep.WallS
	resp, err := http.Get(cfg.addr + "/v1/stats")
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	var st struct {
		Feeds map[string]struct {
			LateDropped int64 `json:"late_dropped"`
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("GET /v1/stats: status %d: %v", resp.StatusCode, err)
	}
	for i := range traffic {
		rep.LateDropped += st.Feeds[feedName(i)].LateDropped
	}
	return rep, nil
}

// driveFeed streams feed i's ticks in K2BI batches, then flushes it.
func driveFeed(cfg config, i int, ticks [][]model.ObjPos, tl *tally) error {
	feed := cfg.addr + "/v1/feeds/" + feedName(i)
	ingest := feed + "/ingest?pattern=" + string(cfg.patterns[i%len(cfg.patterns)])
	rng := rand.New(rand.NewSource(cfg.seed ^ int64(i)<<32))
	for off := 0; off < len(ticks); off += cfg.batch {
		order := make([]int32, 0, cfg.batch)
		for t := off; t < min(off+cfg.batch, len(ticks)); t++ {
			order = append(order, int32(t))
		}
		// Swapping adjacent ticks displaces each by one, which any reorder
		// window >= 1 undoes losslessly.
		for j := 0; j+1 < len(order); j += 2 {
			if rng.Float64() < cfg.ooo {
				order[j], order[j+1] = order[j+1], order[j]
			}
		}
		var body []byte
		for _, t := range order {
			var err error
			if body, err = storage.AppendBatchFrame(body, t, ticks[t]); err != nil {
				return err
			}
		}
		took, err := post(ingest, "application/x-k2bi", body, http.StatusAccepted, tl)
		if err != nil {
			return err
		}
		tl.ingestNs = append(tl.ingestNs, float64(took.Nanoseconds()))
		// After a burst of n batches, idle for as long as n take at -rate.
		if n := cfg.burstLen; cfg.rate > 0 && (off/cfg.batch+1)%n == 0 {
			time.Sleep(time.Duration(float64(n) * float64(time.Second) / cfg.rate))
		}
	}
	_, err := post(feed+"/flush", "application/json", nil, http.StatusOK, tl)
	return err
}

// post sends body to url until the server answers want, waiting out each
// 429 for its Retry-After, and returns how long the answered request took.
func post(url, contentType string, body []byte, want int, tl *tally) (time.Duration, error) {
	for {
		begin := time.Now()
		resp, err := http.Post(url, contentType, bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		took := time.Since(begin)
		payload, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		switch resp.StatusCode {
		case want:
			return took, nil
		case http.StatusTooManyRequests:
			backoff := 25 * time.Millisecond
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
				backoff = time.Duration(ra) * time.Second
			}
			tl.http429++
			time.Sleep(backoff)
		default:
			return 0, fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, payload)
		}
	}
}

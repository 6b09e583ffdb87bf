package main

import (
	"flag"
	"net/http/httptest"
	"os"
	"testing"

	convoy "repro"
	"repro/internal/minetest"
	"repro/internal/server"
)

func parse(args ...string) (config, error) {
	return parseFlags(flag.NewFlagSet("loadgen", flag.ContinueOnError), args)
}

func TestParseFlagsValidation(t *testing.T) {
	for _, args := range [][]string{
		{}, // no -addr
		{"-addr", "http://x", "-ooo", "1.5"},
		{"-addr", "http://x", "-burst", "sine"},
		{"-addr", "http://x", "-patterns", "convoy,swarm"},
		{"-addr", "http://x", "-feeds", "0"},
		{"-addr", "http://x", "-rate", "-1"},
	} {
		if _, err := parse(args...); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
	cfg, err := parse("-addr", "http://x/", "-patterns", "mc, flock")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != "http://x" || len(cfg.patterns) != 2 ||
		cfg.patterns[0] != convoy.PatternMC || cfg.patterns[1] != convoy.PatternFlock {
		t.Fatalf("parsed %+v", cfg)
	}
}

func TestSummarize(t *testing.T) {
	q := summarize([]float64{40, 10, 30, 20})
	if q.Count != 4 || q.P50 != 20 || q.Max != 40 {
		t.Fatalf("quantiles %+v", q)
	}
	if z := summarize(nil); z.Count != 0 || z.Max != 0 {
		t.Fatalf("empty quantiles %+v", z)
	}
}

// serve runs a real convoyd handler with the given reorder window.
func serve(t *testing.T, window int32) (*server.Server, string) {
	srv, err := server.New(server.Config{
		Params: convoy.Params{M: 3, K: 3, Eps: minetest.CityEps},
		Shards: 2,
		Window: window,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts.URL
}

// TestLoadgenSmoke drives a real server at miniature scale: all three
// pattern families, out-of-order batches and square-wave bursts. With a
// reorder window of 2 the swapped ticks must all be put back, so every
// feed mines every tick and nothing is dropped as late.
func TestLoadgenSmoke(t *testing.T) {
	srv, addr := serve(t, 2)
	cfg, err := parse(
		"-addr", addr, "-feeds", "3", "-objects", "30", "-obj-tick", "1", "-batch", "6",
		"-patterns", "convoy,flock,mc", "-ooo", "0.25", "-rate", "2000", "-burst", "square",
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ingest.Count == 0 || rep.Ingest.P50 <= 0 || rep.Ingest.P99 < rep.Ingest.P50 {
		t.Fatalf("ingest quantiles: %+v", rep.Ingest)
	}
	if rep.PointsSent == 0 || rep.PointsPerS <= 0 || rep.WallS <= 0 {
		t.Fatalf("report %+v", rep)
	}
	if rep.LateDropped != 0 {
		t.Fatalf("report late_dropped = %d, want 0", rep.LateDropped)
	}

	st := srv.Stats()
	if len(st.Feeds) != 3 {
		t.Fatalf("%d feeds on the server, want 3", len(st.Feeds))
	}
	for name, f := range st.Feeds {
		if f.TicksMined != minetest.CityTicks {
			t.Errorf("feed %s: ticks_mined = %d, want %d", name, f.TicksMined, minetest.CityTicks)
		}
		if f.LateDropped != 0 {
			t.Errorf("feed %s: late_dropped = %d on the server", name, f.LateDropped)
		}
	}
	for _, pat := range []string{"convoy", "flock", "mc"} {
		if ps := st.Patterns[pat]; ps.LiveFeeds != 1 || ps.ClosedTotal == 0 {
			t.Errorf("pattern %s: %+v", pat, ps)
		}
	}
}

// TestLoadgenReportsLateDrops swaps ticks against a strict in-order server:
// the loss must reach the report, counted over exactly the run's feeds.
func TestLoadgenReportsLateDrops(t *testing.T) {
	srv, addr := serve(t, 0)
	cfg, err := parse("-addr", addr, "-feeds", "2", "-objects", "10", "-obj-tick", "0", "-ooo", "1")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, f := range srv.Stats().Feeds {
		want += f.LateDropped
	}
	if rep.LateDropped == 0 || rep.LateDropped != want {
		t.Fatalf("report late_dropped = %d, server %d", rep.LateDropped, want)
	}
}

// TestFlagsMatchREADME diffs README's loadgen flag table against the flags
// parseFlags defines, in both directions.
func TestFlagsMatchREADME(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	parseFlags(fs, nil) // only the definitions are needed; the missing -addr is an error
	diff, err := minetest.FlagTableDiff(string(readme), "### Driving a remote convoyd", fs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diff {
		t.Error(d)
	}
}

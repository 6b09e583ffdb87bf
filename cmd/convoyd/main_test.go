package main

import (
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/minetest"
)

func parse(args ...string) (config, error) {
	return parseFlags(flag.NewFlagSet("convoyd", flag.ContinueOnError), args)
}

func TestParseFlagsRejects(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-window", "-3"}, "-window -3 out of range"},
		{[]string{"-window", "2147483648"}, "-window 2147483648 out of range"},
		{[]string{"-window", "4294967300"}, "-window 4294967300 out of range"},
		{[]string{"-archive-dir", "a"}, "-archive-dir requires -persist"},
		{[]string{"-persist", "p", "-archive-dir", "a", "-retention", "-1"}, "-retention -1 out of range"},
		{[]string{"-persist", "p", "-archive-dir", "a", "-retention", "2147483648"}, "-retention 2147483648 out of range"},
		{[]string{"-retention", "5"}, "-retention requires -archive-dir"},
		{[]string{"-shards", "-3"}, "-shards, -queue"},
		{[]string{"-queue", "-1"}, "-shards, -queue"},
		{[]string{"-max-feeds", "-1"}, "-shards, -queue"},
		{[]string{"-persist-every", "-1s"}, "-enqueue-wait, -persist-every"},
		{[]string{"-feed-ttl", "-1m"}, "-enqueue-wait, -persist-every"},
		{[]string{"-enqueue-wait", "-1s"}, "-enqueue-wait, -persist-every"},
		{[]string{"-ingest-rate", "-1"}, "must be >= 0"},
	} {
		if _, err := parse(tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseFlags(%q) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}

func TestParseFlagsAccepts(t *testing.T) {
	cfg, err := parse("-window", "2147483647", "-persist", "p", "-archive-dir", "a", "-retention", "100",
		"-ingest-rate", "50")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.srv.Window != 2147483647 || cfg.srv.Retention != 100 || cfg.srv.IngestRate != 50 {
		t.Fatalf("parsed %+v", cfg.srv)
	}
	// 0 keeps its documented meaning (a default, or "off") everywhere.
	if _, err := parse("-shards", "0", "-queue", "0", "-max-feeds", "0",
		"-persist-every", "0", "-feed-ttl", "0", "-enqueue-wait", "0"); err != nil {
		t.Fatal(err)
	}
}

// TestFlagsMatchREADME diffs README's convoyd flag table against the
// flags parseFlags defines, in both directions.
func TestFlagsMatchREADME(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("convoyd", flag.ContinueOnError)
	if _, err := parseFlags(fs, nil); err != nil {
		t.Fatal(err)
	}
	diff, err := minetest.FlagTableDiff(string(readme), "### convoyd flags", fs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diff {
		t.Error(d)
	}
}

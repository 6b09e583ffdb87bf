package minetest

import (
	"flag"
	"reflect"
	"testing"
)

func TestFlagTableDiff(t *testing.T) {
	const doc = "intro\n### tool flags\n\n| Flag | Default | Meaning |\n|---|---|---|\n" +
		"| `-a`, `-b` | 1 | both |\n| `-c` | 2 | gone |\n| `-c` | 2 | twice |\n\n## Next\n| `-d` | 3 | another section |\n"
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	for _, name := range []string{"a", "b", "d", "e"} {
		fs.Bool(name, false, "")
	}
	diff, err := FlagTableDiff(doc, "### tool flags", fs)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"-c is documented but not defined",
		"-c is documented twice",
		"-d is defined but not documented",
		"-e is defined but not documented",
	}
	if !reflect.DeepEqual(diff, want) {
		t.Fatalf("diff = %q, want %q", diff, want)
	}
	if _, err := FlagTableDiff(doc, "### other flags", fs); err == nil {
		t.Fatal("missing heading accepted")
	}
}

package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func TestWriteFileReplacesAndLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "META")
	for _, data := range [][]byte{[]byte("first, and longer than what replaces it"), []byte("second"), {}} {
		if err := WriteFile(path, data); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("content %q, want %q", got, data)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("temp file left behind: %v", err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "META" {
		t.Fatalf("directory holds %v, want only META", entries)
	}
}

// A WriteFile that cannot create its temp file fails before it touches the
// target: the old content survives byte for byte.
func TestWriteFileFailureKeepsOldContent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "MANIFEST")
	old := []byte("old manifest\x00\xff")
	if err := WriteFile(path, old); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path+".tmp", 0o755); err != nil { // the temp path cannot be opened as a file
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("new")); err == nil {
		t.Fatal("WriteFile succeeded with a directory at its temp path")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatalf("content %q after a failed WriteFile, want %q", got, old)
	}
}

func TestSyncDir(t *testing.T) {
	dir := t.TempDir()
	if err := SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := SyncDir(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("SyncDir of a missing directory succeeded")
	}
}

func TestCrash(t *testing.T) {
	if CrashPoint != nil {
		t.Fatal("CrashPoint is set outside a crash test")
	}
	Crash("before-hook") // no hook: a no-op
	var got []string
	CrashPoint = func(name string) { got = append(got, name) }
	t.Cleanup(func() { CrashPoint = nil })
	Crash("a")
	Crash("b")
	if want := []string{"a", "b"}; !slices.Equal(got, want) {
		t.Fatalf("hook saw %v, want %v", got, want)
	}
}

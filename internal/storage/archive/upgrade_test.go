package archive

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

// copyTree copies the regular files under src into dst, keeping their
// relative paths.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(dst, filepath.Dir(rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// testdata/archive-k2s2 is an archive written by a build whose SSTables
// carried a bloom filter (table format K2S2) and whose META had no format
// number: closed.k2cl holds 80 convoy records, archive/ the indexes over
// all of them. Opening it must discard those indexes and rebuild them from
// the whole log, and the rebuilt archive must answer every query exactly —
// same records, same order — as one built fresh over the same log.
func TestArchiveUpgradeRebuildsOldFormat(t *testing.T) {
	const records = 80
	old, fresh := t.TempDir(), t.TempDir()
	copyTree(t, filepath.Join("testdata", "archive-k2s2"), old)
	copyTree(t, filepath.Join("testdata", "archive-k2s2"), fresh)
	if err := os.RemoveAll(filepath.Join(fresh, "archive")); err != nil {
		t.Fatal(err)
	}
	meta, err := os.ReadFile(filepath.Join(old, "archive", metaName))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(meta, []byte(`"format"`)) {
		t.Fatalf("fixture META %s already names a format", meta)
	}

	up, added, rebuilt, err := OpenAndBackfill(filepath.Join(old, "archive"), filepath.Join(old, "closed.k2cl"), nil)
	if err != nil {
		t.Fatalf("open of an older-format archive: %v", err)
	}
	defer up.Close()
	if !rebuilt || added != records {
		t.Fatalf("open of an older-format archive: rebuilt=%v added=%d, want rebuilt of all %d records", rebuilt, added, records)
	}
	ref, added, rebuilt, err := OpenAndBackfill(filepath.Join(fresh, "archive"), filepath.Join(fresh, "closed.k2cl"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if rebuilt || added != records {
		t.Fatalf("fresh archive: rebuilt=%v added=%d, want %d added", rebuilt, added, records)
	}

	same := func(label string, run func(a *Archive, q Query) (Result, error), q Query) {
		t.Helper()
		got := collect(t, func(q Query) (Result, error) { return run(up, q) }, q)
		want := collect(t, func(q Query) (Result, error) { return run(ref, q) }, q)
		if len(got) != len(want) {
			t.Fatalf("%s %+v: %d records, fresh archive gives %d", label, q, len(got), len(want))
		}
		for i := range got {
			if g, w := got[i].Feed+" "+got[i].Convoy.Key(), want[i].Feed+" "+want[i].Convoy.Key(); g != w {
				t.Fatalf("%s %+v: record %d is %q, fresh archive gives %q", label, q, i, g, w)
			}
		}
	}
	for _, q := range []Query{{}, {Limit: 7}, {MinSize: 4, Limit: 5}, {MinDur: 10}, {Feed: "osaka", Limit: 3}} {
		same("convoys", func(a *Archive, q Query) (Result, error) { return a.QueryConvoys(q) }, q)
		for from := int32(-30); from < 170; from += 25 {
			from := from
			same(fmt.Sprintf("time [%d,%d]", from, from+20), func(a *Archive, q Query) (Result, error) {
				return a.QueryTime(from, from+20, q)
			}, q)
		}
		for oid := int32(-10); oid < 60; oid += 3 {
			oid := oid
			same(fmt.Sprintf("object %d", oid), func(a *Archive, q Query) (Result, error) { return a.QueryObject(oid, q) }, q)
		}
	}
	if n := up.Count(); n != records {
		t.Fatalf("rebuilt archive counts %d records, want %d", n, records)
	}

	// The rebuild wrote META in this build's format: the next open trusts it.
	if err := up.Close(); err != nil {
		t.Fatal(err)
	}
	again, added, rebuilt, err := OpenAndBackfill(filepath.Join(old, "archive"), filepath.Join(old, "closed.k2cl"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if rebuilt || added != 0 {
		t.Fatalf("reopen after the rebuild: rebuilt=%v added=%d, want neither", rebuilt, added)
	}
	var scanned int
	if _, err := storage.ScanConvoyLog(filepath.Join(old, "closed.k2cl"), func(r storage.LoggedConvoy) error {
		if !storage.IsMarker(r.Convoy) {
			scanned++
		}
		return nil
	}); err != nil || scanned != records {
		t.Fatalf("fixture log holds %d records (%v), want %d", scanned, err, records)
	}
}

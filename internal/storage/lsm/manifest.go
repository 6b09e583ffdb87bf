package lsm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/storage/durable"
)

// The MANIFEST is the database's single commit point: it lists the live
// sstables, oldest first. Flush, compaction and WriteDataset stage their
// output files first and only then rewrite the manifest, so any file not
// referenced by it is garbage by construction and swept on Open.
//
//	sst-000003.sst
//	sst-000007.sst
const manifestName = "MANIFEST"

// loadManifest opens every table listed in the manifest (none when it is
// missing: a fresh database).
func (db *DB) loadManifest() error {
	data, err := os.ReadFile(filepath.Join(db.dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("lsm: read manifest: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(line, "sst-%d.sst", &n); err != nil || line != tableName(n) {
			return fmt.Errorf("lsm: manifest line %q names no sstable", line)
		}
		t, err := openSSTable(filepath.Join(db.dir, line))
		if err != nil {
			return err
		}
		db.tables = append(db.tables, t)
		if n >= db.seq {
			db.seq = n + 1
		}
	}
	return nil
}

// writeManifest atomically and durably records the current table list.
func (db *DB) writeManifest() error {
	return durable.WriteFile(filepath.Join(db.dir, manifestName), manifestData(db.tableNames()))
}

// tableNames lists the live tables' file names, oldest first.
func (db *DB) tableNames() []string {
	names := make([]string, len(db.tables))
	for i, t := range db.tables {
		names[i] = filepath.Base(t.path)
	}
	return names
}

// manifestData renders a table list, oldest first, as a manifest.
func manifestData(names []string) []byte {
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintln(&b, name)
	}
	return []byte(b.String())
}

// tableName is the file name of the sstable numbered seq.
func tableName(seq int) string { return fmt.Sprintf("sst-%06d.sst", seq) }

// sweepOrphans removes lsm-owned files in dir that the committed manifest,
// which names the live tables, does not reference: sstables from flushes,
// compactions or bulk writes that never committed or were replaced, and a
// leftover MANIFEST.tmp. Only names matching the engine's own patterns are
// touched.
func sweepOrphans(dir string, live []string) {
	keep := make(map[string]bool, len(live))
	for _, name := range live {
		keep[name] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "sst-") && strings.HasSuffix(name, ".sst"):
			if !keep[name] {
				os.Remove(filepath.Join(dir, name))
			}
		case name == manifestName+".tmp":
			os.Remove(filepath.Join(dir, name))
		}
	}
}

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
// sstables, oldest first. Flush and compaction stage their output files
// first and only then rewrite the manifest, so any file not referenced by
// it is garbage by construction and swept on Open.
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
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == "wal" {
			// Legacy: earlier builds named a write-ahead log here. Nothing
			// reads it back; sweepOrphans removes the file.
			continue
		}
		for _, name := range fields {
			t, err := openSSTable(filepath.Join(db.dir, name))
			if err != nil {
				return err
			}
			db.tables = append(db.tables, t)
			var n int
			fmt.Sscanf(name, "sst-%d.sst", &n)
			if n >= db.seq {
				db.seq = n + 1
			}
		}
	}
	return nil
}

// writeManifest atomically and durably records the current table list.
func (db *DB) writeManifest() error {
	var b strings.Builder
	for _, t := range db.tables {
		fmt.Fprintln(&b, filepath.Base(t.path))
	}
	return durable.WriteFile(filepath.Join(db.dir, manifestName), []byte(b.String()))
}

// sweepOrphans removes lsm-owned files in dir that the committed manifest
// does not reference: sstables from flushes or compactions that never
// committed, a leftover MANIFEST.tmp, and the wal-*.log an earlier build
// kept (there is no log now). Only names matching the engine's own
// patterns are touched.
func (db *DB) sweepOrphans() {
	live := make(map[string]bool, len(db.tables))
	for _, t := range db.tables {
		live[filepath.Base(t.path)] = true
	}
	entries, err := os.ReadDir(db.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "sst-") && strings.HasSuffix(name, ".sst"):
			if !live[name] {
				os.Remove(filepath.Join(db.dir, name))
			}
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"),
			name == manifestName+".tmp":
			os.Remove(filepath.Join(db.dir, name))
		}
	}
}

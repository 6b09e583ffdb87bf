// Package durable holds the crash-safety primitives the LSM engine and the
// convoy archive share: the atomic file replacement both use for their
// commit points (MANIFEST, META) and the named crash-point hook their
// kill-anywhere tests drive.
package durable

import (
	"errors"
	"os"
	"path/filepath"
)

// CrashPoint, when non-nil (crash tests only), is called at each named
// point between two durable steps; tests install a hook that panics with
// ErrSimulatedCrash to model a process kill at exactly that point.
// Production never sets it.
var CrashPoint func(name string)

// ErrSimulatedCrash is the panic value of a simulated kill.
var ErrSimulatedCrash = errors.New("durable: simulated crash")

// Crash marks the named crash point.
func Crash(name string) {
	if CrashPoint != nil {
		CrashPoint(name)
	}
}

// WriteFile atomically and durably replaces path with data: the temp file
// is fsynced before the rename and the directory after it, so a power loss
// surfaces either the old or the new content, never an empty or torn file
// (nor an unrecorded rename).
func WriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory so renames and unlinks inside it are durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

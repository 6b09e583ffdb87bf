package flatfile

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/storage/storetest"
)

func writeTemp(t *testing.T, ds *model.Dataset) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.k2f")
	if err := WriteDataset(path, ds); err != nil {
		t.Fatalf("WriteDataset: %v", err)
	}
	return path
}

// runConformance writes ds to a flat file, loads it back, and runs the
// store conformance suite on the loaded dataset: a flat file serves the
// miners' two access paths through the in-memory store.
func runConformance(t *testing.T, ds *model.Dataset) {
	t.Helper()
	got, err := Load(writeTemp(t, ds))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	storetest.Run(t, storage.NewMemStore(got), ds)
}

func TestConformance(t *testing.T) {
	runConformance(t, storetest.RandomDataset(1, 40, 30, 0.8))
}

func TestConformanceSparse(t *testing.T) {
	runConformance(t, storetest.RandomDataset(2, 10, 50, 0.2))
}

func TestLoadRoundTrip(t *testing.T) {
	ds := storetest.RandomDataset(3, 20, 20, 0.9)
	got, err := Load(writeTemp(t, ds))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.NumPoints() != ds.NumPoints() {
		t.Fatalf("Load points = %d, want %d", got.NumPoints(), ds.NumPoints())
	}
	gp, wp := got.Points(), ds.Points()
	for i := range gp {
		if gp[i] != wp[i] {
			t.Fatalf("point %d = %v, want %v", i, gp[i], wp[i])
		}
	}
}

func TestOutOfOrderAppendRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.k2f")
	if err := writePoints(path, []model.Point{{OID: 5, T: 3}, {OID: 4, T: 3}}); err == nil {
		t.Fatalf("out-of-order append should fail")
	}
	if err := writePoints(path, []model.Point{{OID: 5, T: 3}, {OID: 5, T: 3}}); err == nil {
		t.Fatalf("duplicate append should fail")
	}
	if err := writePoints(path, []model.Point{{OID: 5, T: 3}, {OID: 1, T: 4}}); err != nil {
		t.Fatalf("ordered append: %v", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "garbage")
	if err := os.WriteFile(path, []byte("this is not a flat file at all......"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatalf("Load of garbage should fail")
	}
	if _, err := Load(filepath.Join(dir, "missing")); err == nil {
		t.Fatalf("Load of missing file should fail")
	}

	// A valid file cut short, or carrying bytes past its last record, no
	// longer matches its header's count.
	data, err := os.ReadFile(writeTemp(t, storetest.RandomDataset(5, 10, 10, 1.0)))
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{
		"header only":    data[:headerSize],
		"torn record":    data[:len(data)-7],
		"trailing bytes": append(append([]byte(nil), data...), 1, 2, 3),
	} {
		p := filepath.Join(dir, "cut")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(p); err == nil {
			t.Fatalf("%s: Load should fail", name)
		}
	}
}

func TestEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.k2f")
	if err := WriteDataset(path, model.NewDataset(nil)); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load empty: %v", err)
	}
	if got.NumPoints() != 0 {
		t.Fatalf("empty file loaded %d points", got.NumPoints())
	}
}

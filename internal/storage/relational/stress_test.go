package relational

import (
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/model"
	"repro/internal/storage"
)

// A tiny buffer pool forces constant eviction; correctness must not depend
// on cache capacity.
func TestTinyBufferPool(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	want := map[[2]int32]float64{}
	var pts []model.Point
	for i := 0; i < 4000; i++ {
		k := [2]int32{int32(rng.Intn(100)), int32(rng.Intn(100))}
		x := rng.Float64()
		want[k] = x
		pts = append(pts, model.Point{T: k[0], OID: k[1], X: x})
	}
	path := filepath.Join(t.TempDir(), "tiny.k2r")
	if err := WriteDataset(path, model.NewDataset(pts), nil); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, &Options{CachePages: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for k, x := range want {
		rows, err := s2.Fetch(k[0], model.NewObjSet(k[1]))
		if err != nil || len(rows) != 1 || rows[0].X != x {
			t.Fatalf("fetch %v = %v, %v (want x=%f)", k, rows, err, x)
		}
	}
}

// Snapshot must stop exactly at the timestamp boundary even when the
// boundary falls mid-page and at the last page.
func TestSnapshotBoundaries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bound.k2r")
	var pts []model.Point
	for tt := int32(0); tt < 5; tt++ {
		for oid := int32(0); oid < 77; oid++ { // 77 not aligned to leaf size
			pts = append(pts, model.Point{T: tt, OID: oid, X: float64(tt*1000 + oid)})
		}
	}
	if err := writeTable(path, pts); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for tt := int32(0); tt < 5; tt++ {
		snap, err := s.Snapshot(tt)
		if err != nil || len(snap) != 77 {
			t.Fatalf("Snapshot(%d) = %d rows, %v", tt, len(snap), err)
		}
		for i, r := range snap {
			if r.OID != int32(i) || r.X != float64(int(tt)*1000+i) {
				t.Fatalf("Snapshot(%d)[%d] = %v", tt, i, r)
			}
		}
	}
}

func BenchmarkBtreePointGet(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.k2r")
	var pts []model.Point
	for i := 0; i < 100000; i++ {
		pts = append(pts, model.Point{T: int32(i / 100), OID: int32(i % 100), X: float64(i)})
	}
	s := openBench(b, path, pts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := storage.EncodeKey(int32(i%1000), int32(i%100))
		if _, err := s.tree.get(key[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBtreeSnapshotScan(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench2.k2r")
	var pts []model.Point
	for i := 0; i < 100000; i++ {
		pts = append(pts, model.Point{T: int32(i / 1000), OID: int32(i % 1000), X: float64(i)})
	}
	s := openBench(b, path, pts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Snapshot(int32(i % 100)); err != nil {
			b.Fatal(err)
		}
	}
}

func openBench(b *testing.B, path string, pts []model.Point) *Store {
	b.Helper()
	if err := writeTable(path, pts); err != nil {
		b.Fatal(err)
	}
	s, err := Open(path, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

package relational

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/storage/storetest"
)

var _ storage.Store = (*Store)(nil)

func TestConformanceBulkLoad(t *testing.T) {
	ds := storetest.RandomDataset(10, 40, 30, 0.8)
	path := filepath.Join(t.TempDir(), "table.k2r")
	if err := WriteDataset(path, ds, nil); err != nil {
		t.Fatalf("WriteDataset: %v", err)
	}
	s, err := Open(path, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	storetest.Run(t, s, ds)
}

// Property test: a table built from random points (with duplicate keys,
// last value wins) behaves like a sorted map under gets of present and
// absent keys and an ordered full scan.
func TestBtreeMatchesMapModel(t *testing.T) {
	for _, n := range []int{1, 10, 200, 5000} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n)))
			modelMap := map[[storage.KeySize]byte][storage.ValueSize]byte{}
			pts := make([]model.Point, 0, n)
			for i := 0; i < n; i++ {
				p := model.Point{T: int32(rng.Intn(50)), OID: int32(rng.Intn(50)), X: rng.Float64(), Y: rng.Float64()}
				modelMap[storage.EncodeKey(p.T, p.OID)] = storage.EncodeValue(p.X, p.Y)
				pts = append(pts, p)
			}
			path := filepath.Join(t.TempDir(), "t.k2r")
			if err := WriteDataset(path, model.NewDataset(pts), nil); err != nil {
				t.Fatal(err)
			}
			s, err := Open(path, &Options{CachePages: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			// Point gets.
			for key, val := range modelMap {
				got, err := s.tree.get(key[:])
				if err != nil {
					t.Fatalf("get: %v", err)
				}
				if !bytes.Equal(got, val[:]) {
					t.Fatalf("get(%v) = %v, want %v", key, got, val)
				}
			}
			// Absent key.
			absent := storage.EncodeKey(999, 999)
			if got, err := s.tree.get(absent[:]); err != nil || got != nil {
				t.Fatalf("absent get = %v, %v", got, err)
			}
			// Ordered scan visits every key exactly once, ascending.
			start := storage.EncodeKey(-1<<31, -1<<31)
			c := s.tree.seek(start[:])
			var prev []byte
			count := 0
			for ; c.valid(); c.next() {
				k := c.key()
				if prev != nil && bytes.Compare(prev, k) >= 0 {
					t.Fatalf("scan out of order")
				}
				var kk [storage.KeySize]byte
				copy(kk[:], k)
				want, ok := modelMap[kk]
				if !ok {
					t.Fatalf("scan visited unknown key %v", kk)
				}
				if !bytes.Equal(c.value(), want[:]) {
					t.Fatalf("scan value mismatch")
				}
				prev = append(prev[:0], k...)
				count++
			}
			if c.err != nil {
				t.Fatalf("cursor error: %v", c.err)
			}
			if count != len(modelMap) {
				t.Fatalf("scan count = %d, want %d", count, len(modelMap))
			}
		})
	}
}

func TestBulkLoadRejectsDisorder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.k2r")
	err := writeTable(path, []model.Point{
		{OID: 2, T: 1}, {OID: 1, T: 1},
	})
	if err == nil {
		t.Fatalf("bulk load of unsorted points should fail")
	}
	// The meta page is written last, so the aborted build is not a table.
	if s, err := Open(path, nil); err == nil {
		s.Close()
		t.Fatalf("Open of an aborted build should fail")
	}
}

func TestLargeBulkLoadMultiLevel(t *testing.T) {
	// Enough points to force at least two internal levels:
	// leaves hold ~153, inner ~306 children, so >153*306 records needs depth 3.
	n := 60000
	pts := make([]model.Point, 0, n)
	for i := 0; i < n; i++ {
		pts = append(pts, model.Point{OID: int32(i % 100), T: int32(i / 100), X: float64(i), Y: 1})
	}
	path := filepath.Join(t.TempDir(), "big.k2r")
	if err := writeTable(path, pts); err != nil {
		t.Fatalf("writeTable: %v", err)
	}
	s, err := Open(path, &Options{CachePages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Spot-check snapshots and fetches.
	snap, err := s.Snapshot(100)
	if err != nil || len(snap) != 100 {
		t.Fatalf("Snapshot(100) = %d rows, err %v", len(snap), err)
	}
	rows, err := s.Fetch(599, model.NewObjSet(0, 50, 99))
	if err != nil || len(rows) != 3 {
		t.Fatalf("Fetch = %v, %v", rows, err)
	}
	if rows[1].X != float64(599*100+50) {
		t.Fatalf("Fetch value wrong: %v", rows[1])
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage")
	if err := writeGarbage(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, nil); err == nil {
		t.Fatalf("Open of garbage should fail")
	}
}

func TestStatsAccounting(t *testing.T) {
	ds := storetest.RandomDataset(12, 20, 10, 1.0)
	path := filepath.Join(t.TempDir(), "t.k2r")
	if err := WriteDataset(path, ds, nil); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, &Options{CachePages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Snapshot(3); err != nil {
		t.Fatal(err)
	}
	st := s.Stats().Snapshot()
	if st.SnapshotScans != 1 || st.PointsRead != 20 {
		t.Fatalf("scan stats: %+v", st)
	}
	if _, err := s.Fetch(3, model.NewObjSet(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	st = s.Stats().Snapshot()
	if st.PointQueries != 3 || st.Seeks < 3 {
		t.Fatalf("fetch stats: %+v", st)
	}
	if s.PageReads() == 0 {
		t.Fatalf("expected physical page reads with tiny cache")
	}
}

func writeGarbage(path string) error {
	data := make([]byte, PageSize*2)
	copy(data, "NOPE")
	return os.WriteFile(path, data, 0o644)
}

// The builder writes exactly the pages of one tree: every page but the
// meta page is reached from the root once, the leaf chain visits the keys
// in order and ends in 0, and the file holds nothing else.
func TestTablePagesAllReachable(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n, depth int
	}{
		{"empty", 0, 1},
		{"one", 1, 1},
		{"leafCap", leafCap, 2},
		{"leafCap+1", leafCap + 1, 2},
		{"three-levels", perLeaf*perInner + 1, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pts := make([]model.Point, 0, tc.n)
			for i := 0; i < tc.n; i++ {
				pts = append(pts, model.Point{T: int32(i / 100), OID: int32(i % 100), X: float64(i)})
			}
			path := filepath.Join(t.TempDir(), "t.k2r")
			if err := writeTable(path, pts); err != nil {
				t.Fatal(err)
			}
			s, err := Open(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			visits := map[uint32]int{}
			var leaves []uint32 // in key order
			depth := 0
			var walk func(id uint32, d int)
			walk = func(id uint32, d int) {
				visits[id]++
				p, err := s.pg.read(id)
				if err != nil {
					t.Fatal(err)
				}
				switch pageType(p) {
				case typeLeaf:
					if depth != 0 && depth != d {
						t.Fatalf("leaf %d at depth %d, others at %d", id, d, depth)
					}
					depth = d
					leaves = append(leaves, id)
				case typeInternal:
					for i := 0; i <= innerN(p); i++ {
						walk(innerChild(p, i), d+1)
					}
				default:
					t.Fatalf("page %d has type %d", id, pageType(p))
				}
			}
			walk(s.tree.root, 1)
			if depth < tc.depth {
				t.Fatalf("depth %d, want ≥ %d", depth, tc.depth)
			}
			for id := uint32(1); id < s.pg.numPages; id++ {
				if visits[id] != 1 {
					t.Fatalf("page %d reached %d times", id, visits[id])
				}
			}
			if visits[0] != 0 || len(visits) != int(s.pg.numPages)-1 {
				t.Fatalf("reached %d pages (meta %d times), file has %d", len(visits), visits[0], s.pg.numPages)
			}
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() != int64(1+len(visits))*PageSize {
				t.Fatalf("file is %d bytes, want %d", st.Size(), (1+len(visits))*PageSize)
			}

			var chain []uint32
			var prev []byte
			keys := 0
			for id := leaves[0]; id != 0; {
				chain = append(chain, id)
				p, err := s.pg.read(id)
				if err != nil || pageType(p) != typeLeaf {
					t.Fatalf("chain page %d: type %d, %v", id, pageType(p), err)
				}
				for i := 0; i < leafN(p); i++ {
					if prev != nil && bytes.Compare(prev, leafKey(p, i)) >= 0 {
						t.Fatalf("leaf chain out of order at page %d entry %d", id, i)
					}
					prev = leafKey(p, i)
					keys++
				}
				id = leafNext(p)
			}
			if fmt.Sprint(chain) != fmt.Sprint(leaves) || keys != tc.n {
				t.Fatalf("leaf chain %v with %d keys, tree leaves %v with %d", chain, keys, leaves, tc.n)
			}
			storetest.Run(t, s, model.NewDataset(pts))
		})
	}
}

// Mining a table reads it and nothing else: neither its bytes nor its
// modification time change, and a read-only file opens.
func TestReadingDoesNotModifyTable(t *testing.T) {
	ds := storetest.RandomDataset(13, 30, 40, 0.7)
	path := filepath.Join(t.TempDir(), "t.k2r")
	if err := WriteDataset(path, ds, nil); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-time.Hour).Truncate(time.Second)
	if err := os.Chtimes(path, past, past); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	s, err := Open(path, &Options{CachePages: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts, te := s.TimeRange()
	for tt := ts; tt <= te; tt++ {
		if _, err := s.Snapshot(tt); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		oids := model.NewObjSet(int32(rng.Intn(40)), int32(rng.Intn(40)), int32(rng.Intn(40)))
		if _, err := s.Fetch(ts+int32(rng.Intn(int(te-ts)+1)), oids); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("reading changed the table's bytes")
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !st.ModTime().Equal(past) {
		t.Fatalf("reading changed ModTime %v → %v", past, st.ModTime())
	}

	t.Run("mode-0444", func(t *testing.T) {
		if os.Geteuid() == 0 {
			t.Skip("permission bits do not bind root")
		}
		if err := os.Chmod(path, 0o444); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path, nil)
		if err != nil {
			t.Fatalf("Open of a 0444 table: %v", err)
		}
		defer s.Close()
		if _, err := s.Snapshot(ts); err != nil {
			t.Fatal(err)
		}
	})
}

// Package flatfile implements the paper's k2-File storage variant: the
// dataset is one binary file of fixed-size records sorted by (t, oid).
//
// Flat files are good at sequential scans but have no index, so a snapshot
// read locates the timestamp via binary search over record offsets (cheap)
// while a Fetch of scattered (t, oid) pairs still has to binary-search per
// object — the access pattern the paper identifies as the reason k2-File
// loses to the indexed engines on large data.
//
// File layout:
//
//	header:  magic "K2FF" | version u32 | count u64 | ts i32 | te i32
//	records: count × (key[8] | value[16])   sorted ascending by key
package flatfile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/model"
	"repro/internal/storage"
)

const (
	magic      = "K2FF"
	version    = 1
	headerSize = 4 + 4 + 8 + 4 + 4
)

// Store reads a flat file and implements storage.Store.
type Store struct {
	f      *os.File
	count  int64
	ts, te int32
	stats  storage.IOStats
}

// Open opens an existing flat file.
func Open(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("flatfile: open: %w", err)
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("flatfile: read header: %w", err)
	}
	if string(hdr[0:4]) != magic {
		f.Close()
		return nil, errors.New("flatfile: bad magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != version {
		f.Close()
		return nil, fmt.Errorf("flatfile: unsupported version %d", v)
	}
	s := &Store{
		f:     f,
		count: int64(binary.LittleEndian.Uint64(hdr[8:16])),
		ts:    int32(binary.LittleEndian.Uint32(hdr[16:20])),
		te:    int32(binary.LittleEndian.Uint32(hdr[20:24])),
	}
	return s, nil
}

// WriteDataset writes ds into a new flat file at path, truncating any
// existing file.
func WriteDataset(path string, ds *model.Dataset) error {
	return writePoints(path, ds.Points())
}

// writePoints writes pts, which must be strictly ascending by (t, oid),
// behind a reserved header that is filled in once the records are down.
func writePoints(path string, pts []model.Point) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("flatfile: create: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	var hdr [headerSize]byte
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("flatfile: reserve header: %w", err)
	}
	var prev [storage.KeySize]byte
	for i, p := range pts {
		key := storage.EncodeKey(p.T, p.OID)
		if i > 0 && bytesCompare(key[:], prev[:]) <= 0 {
			return fmt.Errorf("flatfile: out-of-order append at t=%d oid=%d", p.T, p.OID)
		}
		prev = key
		val := storage.EncodeValue(p.X, p.Y)
		if _, err := w.Write(key[:]); err != nil {
			return err
		}
		if _, err := w.Write(val[:]); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	var ts, te int32
	if len(pts) > 0 {
		ts, te = pts[0].T, pts[len(pts)-1].T
	}
	copy(hdr[0:4], magic)
	binary.LittleEndian.PutUint32(hdr[4:8], version)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(pts)))
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(ts))
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(te))
	_, err = f.WriteAt(hdr[:], 0)
	return err
}

// TimeRange implements storage.Store.
func (s *Store) TimeRange() (int32, int32) { return s.ts, s.te }

// Stats implements storage.Store.
func (s *Store) Stats() *storage.IOStats { return &s.stats }

// Close implements storage.Store.
func (s *Store) Close() error { return s.f.Close() }

// Count returns the number of records in the file.
func (s *Store) Count() int64 { return s.count }

// readRecord reads record i into buf (RecordSize bytes).
func (s *Store) readRecord(i int64, buf []byte) error {
	off := int64(headerSize) + i*storage.RecordSize
	if _, err := s.f.ReadAt(buf, off); err != nil {
		return fmt.Errorf("flatfile: read record %d: %w", i, err)
	}
	s.stats.AddBytes(len(buf))
	return nil
}

// lowerBound returns the index of the first record with key ≥ target.
// Each probe is one seek + one small read.
func (s *Store) lowerBound(target [storage.KeySize]byte) (int64, error) {
	lo, hi := int64(0), s.count
	var buf [storage.KeySize]byte
	for lo < hi {
		mid := (lo + hi) / 2
		off := int64(headerSize) + mid*storage.RecordSize
		if _, err := s.f.ReadAt(buf[:], off); err != nil {
			return 0, err
		}
		s.stats.AddSeeks(1)
		s.stats.AddBytes(storage.KeySize)
		if bytesCompare(buf[:], target[:]) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// Snapshot implements storage.Store: one binary search then a sequential
// scan of the timestamp's contiguous records.
func (s *Store) Snapshot(t int32) ([]model.ObjPos, error) {
	if t < s.ts || t > s.te {
		return nil, nil
	}
	start, err := s.lowerBound(storage.EncodeKey(t, -1<<31))
	if err != nil {
		return nil, err
	}
	s.stats.AddSeeks(1)
	var out []model.ObjPos
	buf := make([]byte, storage.RecordSize*256) // read in record batches
	for i := start; i < s.count; {
		n := int64(256)
		if i+n > s.count {
			n = s.count - i
		}
		chunk := buf[:n*storage.RecordSize]
		if _, err := s.f.ReadAt(chunk, int64(headerSize)+i*storage.RecordSize); err != nil {
			return nil, err
		}
		s.stats.AddBytes(len(chunk))
		for r := int64(0); r < n; r++ {
			rec := chunk[r*storage.RecordSize:]
			kt, oid := storage.DecodeKey(rec[:storage.KeySize])
			s.stats.AddScanned(1)
			if kt != t {
				s.stats.AddScan(len(out))
				return out, nil
			}
			x, y := storage.DecodeValue(rec[storage.KeySize:storage.RecordSize])
			out = append(out, model.ObjPos{OID: oid, X: x, Y: y})
		}
		i += n
	}
	s.stats.AddScan(len(out))
	return out, nil
}

// Fetch implements storage.Store: one binary search per requested object.
// This is the flat file's weakness — there is no secondary structure, so
// every point lookup costs O(log n) seeks.
func (s *Store) Fetch(t int32, oids model.ObjSet) ([]model.ObjPos, error) {
	if t < s.ts || t > s.te || len(oids) == 0 {
		return nil, nil
	}
	out := make([]model.ObjPos, 0, len(oids))
	var rec [storage.RecordSize]byte
	for _, oid := range oids {
		idx, err := s.lowerBound(storage.EncodeKey(t, oid))
		if err != nil {
			return nil, err
		}
		if idx >= s.count {
			continue
		}
		if err := s.readRecord(idx, rec[:]); err != nil {
			return nil, err
		}
		s.stats.AddSeeks(1)
		s.stats.AddScanned(1)
		kt, koid := storage.DecodeKey(rec[:storage.KeySize])
		if kt != t || koid != oid {
			continue
		}
		x, y := storage.DecodeValue(rec[storage.KeySize:])
		out = append(out, model.ObjPos{OID: oid, X: x, Y: y})
	}
	s.stats.AddPointQueries(len(oids), len(out))
	return out, nil
}

// Load reads the entire file back into an in-memory dataset, mirroring how
// the paper's k2-File variant mines small datasets entirely in memory.
func (s *Store) Load() (*model.Dataset, error) {
	pts := make([]model.Point, 0, s.count)
	r := bufio.NewReaderSize(io.NewSectionReader(s.f, headerSize, s.count*storage.RecordSize), 1<<20)
	var rec [storage.RecordSize]byte
	for i := int64(0); i < s.count; i++ {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			return nil, fmt.Errorf("flatfile: load: %w", err)
		}
		t, oid := storage.DecodeKey(rec[:storage.KeySize])
		x, y := storage.DecodeValue(rec[storage.KeySize:])
		pts = append(pts, model.Point{OID: oid, T: t, X: x, Y: y})
	}
	s.stats.AddBytes(int(s.count) * storage.RecordSize)
	s.stats.AddScanned(int(s.count))
	s.stats.AddSeeks(1)
	return model.NewDataset(pts), nil
}

func bytesCompare(a, b []byte) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

package relational

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/model"
	"repro/internal/storage"
)

// Meta page (page 0) layout:
//
//	off 0  : magic "K2RT"
//	off 4  : u32 version
//	off 8  : u32 root page id
//	off 12 : u64 record count
//	off 20 : i32 ts
//	off 24 : i32 te
const (
	metaMagic   = "K2RT"
	metaVersion = 1
)

// Store is a disk-backed table of trajectory points with a clustered B+tree
// on (t, oid). It implements storage.Store.
type Store struct {
	f      *os.File
	pg     *pager
	tree   *btree
	count  uint64
	ts, te int32
	stats  storage.IOStats
}

// Options configures engine knobs.
type Options struct {
	// CachePages is the buffer-pool capacity in pages (default 256 = 1MiB).
	CachePages int
}

func (o *Options) withDefaults() Options {
	out := Options{CachePages: 256}
	if o != nil && o.CachePages > 0 {
		out.CachePages = o.CachePages
	}
	return out
}

// Open opens a table written by WriteDataset. The file is opened
// read-only: mining a table never modifies it.
func Open(path string, opts *Options) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("relational: open: %w", err)
	}
	o := opts.withDefaults()
	pg, err := newPager(f, o.CachePages)
	if err != nil {
		f.Close()
		return nil, err
	}
	meta, err := pg.read(0)
	if err != nil {
		f.Close()
		return nil, err
	}
	if string(meta[0:4]) != metaMagic {
		f.Close()
		return nil, errors.New("relational: bad magic")
	}
	if v := getU32(meta, 4); v != metaVersion {
		f.Close()
		return nil, fmt.Errorf("relational: unsupported version %d", v)
	}
	s := &Store{
		f:     f,
		pg:    pg,
		tree:  &btree{pg: pg, root: getU32(meta, 8)},
		count: getU64(meta, 12),
		ts:    int32(getU32(meta, 20)),
		te:    int32(getU32(meta, 24)),
	}
	return s, nil
}

// Close closes the table file.
func (s *Store) Close() error { return s.f.Close() }

// Count returns the number of stored points.
func (s *Store) Count() uint64 { return s.count }

// TimeRange implements storage.Store.
func (s *Store) TimeRange() (int32, int32) { return s.ts, s.te }

// Stats implements storage.Store.
func (s *Store) Stats() *storage.IOStats { return &s.stats }

// Snapshot implements storage.Store: a clustered-index range scan
// [ (t, min_oid), (t+1, min_oid) ).
func (s *Store) Snapshot(t int32) ([]model.ObjPos, error) {
	if s.te < s.ts || t < s.ts || t > s.te {
		return nil, nil
	}
	start := storage.EncodeKey(t, -1<<31)
	before := s.pg.reads()
	c := s.tree.seek(start[:])
	var out []model.ObjPos
	for ; c.valid(); c.next() {
		kt, oid := storage.DecodeKey(c.key())
		if kt != t {
			break
		}
		x, y := storage.DecodeValue(c.value())
		out = append(out, model.ObjPos{OID: oid, X: x, Y: y})
		s.stats.AddScanned(1)
	}
	if c.err != nil {
		return nil, c.err
	}
	s.stats.AddScan(len(out))
	s.stats.AddSeeks(1)
	s.stats.AddBytes(int(s.pg.reads()-before) * PageSize)
	return out, nil
}

// Fetch implements storage.Store: one index point-lookup per object.
func (s *Store) Fetch(t int32, oids model.ObjSet) ([]model.ObjPos, error) {
	if s.te < s.ts || t < s.ts || t > s.te || len(oids) == 0 {
		return nil, nil
	}
	before := s.pg.reads()
	out := make([]model.ObjPos, 0, len(oids))
	for _, oid := range oids {
		key := storage.EncodeKey(t, oid)
		v, err := s.tree.get(key[:])
		if err != nil {
			return nil, err
		}
		s.stats.AddSeeks(1)
		if v == nil {
			continue
		}
		x, y := storage.DecodeValue(v)
		out = append(out, model.ObjPos{OID: oid, X: x, Y: y})
		s.stats.AddScanned(1)
	}
	s.stats.AddPointQueries(len(oids), len(out))
	s.stats.AddBytes(int(s.pg.reads()-before) * PageSize)
	return out, nil
}

// PageReads returns the number of physical page reads performed so far.
func (s *Store) PageReads() int64 { return s.pg.reads() }

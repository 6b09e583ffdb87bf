// Package storage defines the persistent-storage abstraction of the paper's
// §5 together with I/O accounting. k/2-hop has two access paths:
//
//  1. full snapshot scans at benchmark points (range scan by timestamp), and
//  2. point queries by (timestamp, oid) inside hop-windows.
//
// Three engines mirror the paper's k2-File, k2-RDBMS and k2-LSMT variants.
// Each is written once, in one pass over the dataset's sorted points:
//
//   - storage/flatfile: a sorted binary file with no index. It is read one
//     way, loaded whole into a Dataset that MemStore serves — the paper's
//     k2-File setup — so it does not implement the interface itself;
//   - storage/relational: a clustered B+tree on (t, oid) whose leaves hold
//     the records, built bottom-up once and opened read-only;
//   - storage/lsm: a log-structured merge-tree keyed by (t, oid); a dataset
//     is written as one bottom-level run — an SSTable of sorted data blocks
//     plus a block index — committed by one manifest write. A record is
//     its 8-byte key and 16-byte value, 24 bytes. Tables written by builds
//     before format K2S4 (K2S2 carried a bloom filter, K2S3 a tombstone
//     flag per record) do not open; such a dataset must be rewritten with
//     lsm.WriteDataset.
//
// Both indexed engines answer Fetch(t, oids) as one forward walk rather
// than one probe per object: oids is sorted and a tick's keys are
// contiguous, so the B+tree stays on its current leaf and each LSM run on
// its held block while the next key falls inside it, and only a key past
// it descends again (a B+tree root) or loads a block through the block
// index (an LSM run). Each LSM block-cache hit is one map lookup into the
// slot that holds the CLOCK used bit. Caching the fetched rows themselves
// across calls (a run-scoped survivor table and groups memo in core) was
// measured and rejected: see "Point-read cost" in docs/ARCHITECTURE.md.
//
// The in-memory Store in this package backs unit tests and the sequential
// baselines, which always read whole snapshots anyway.
package storage

import (
	"encoding/binary"
	"math"
	"sync/atomic"

	"repro/internal/model"
)

// Store is the reader interface every convoy miner consumes.
//
// Implementations must tolerate concurrent Snapshot/Fetch/TimeRange/Stats
// calls: the parallel mining engine fans reads out over a worker pool
// (one worker per core by default), so a store written for sequential
// access must serialise internally (as the bundled B+tree engine does),
// read from an immutable snapshot (as the LSM engine does, lock-free) or
// never change after construction (as MemStore does).
type Store interface {
	// TimeRange returns the inclusive [Ts, Te] tick range of the dataset.
	TimeRange() (ts, te int32)
	// Snapshot returns all objects present at tick t, sorted by OID.
	Snapshot(t int32) ([]model.ObjPos, error)
	// Fetch returns the positions of the requested objects at tick t (in
	// OID order), omitting objects absent at t.
	Fetch(t int32, oids model.ObjSet) ([]model.ObjPos, error)
	// Stats exposes the store's I/O counters.
	Stats() *IOStats
	// Close releases resources held by the store.
	Close() error
}

// IOStats counts the logical and physical I/O a store performed. All fields
// are updated atomically so parallel miners can share one store.
type IOStats struct {
	SnapshotScans int64 // full-snapshot range scans
	PointQueries  int64 // point lookups by (t, oid)
	PointsRead    int64 // points returned to the caller
	PointsScanned int64 // points physically touched (≥ PointsRead)
	BytesRead     int64 // bytes read from the underlying medium
	Seeks         int64 // distinct positioning operations
}

// AddScan records one snapshot scan touching n points.
func (s *IOStats) AddScan(n int) {
	atomic.AddInt64(&s.SnapshotScans, 1)
	atomic.AddInt64(&s.PointsRead, int64(n))
}

// AddPointQueries records n point queries returning hits results.
func (s *IOStats) AddPointQueries(n, hits int) {
	atomic.AddInt64(&s.PointQueries, int64(n))
	atomic.AddInt64(&s.PointsRead, int64(hits))
}

// AddScanned records n physically touched points.
func (s *IOStats) AddScanned(n int) { atomic.AddInt64(&s.PointsScanned, int64(n)) }

// AddBytes records b bytes read from the medium.
func (s *IOStats) AddBytes(b int) { atomic.AddInt64(&s.BytesRead, int64(b)) }

// AddSeeks records n positioning operations.
func (s *IOStats) AddSeeks(n int) { atomic.AddInt64(&s.Seeks, int64(n)) }

// Snapshot returns a consistent copy of the counters.
func (s *IOStats) Snapshot() IOStats {
	return IOStats{
		SnapshotScans: atomic.LoadInt64(&s.SnapshotScans),
		PointQueries:  atomic.LoadInt64(&s.PointQueries),
		PointsRead:    atomic.LoadInt64(&s.PointsRead),
		PointsScanned: atomic.LoadInt64(&s.PointsScanned),
		BytesRead:     atomic.LoadInt64(&s.BytesRead),
		Seeks:         atomic.LoadInt64(&s.Seeks),
	}
}

// Reset zeroes all counters.
func (s *IOStats) Reset() {
	atomic.StoreInt64(&s.SnapshotScans, 0)
	atomic.StoreInt64(&s.PointQueries, 0)
	atomic.StoreInt64(&s.PointsRead, 0)
	atomic.StoreInt64(&s.PointsScanned, 0)
	atomic.StoreInt64(&s.BytesRead, 0)
	atomic.StoreInt64(&s.Seeks, 0)
}

// --- Key/value codec shared by the disk engines -------------------------

// KeySize and ValueSize are the fixed on-disk record sizes: the key is the
// order-preserving big-endian encoding of (t, oid) and the value is the
// little-endian (x, y) pair.
const (
	KeySize    = 8
	ValueSize  = 16
	RecordSize = KeySize + ValueSize
)

// EncodeKey encodes (t, oid) into an 8-byte key whose lexicographic order
// equals the numeric order of (t, oid), including negative values.
func EncodeKey(t, oid int32) [KeySize]byte {
	var k [KeySize]byte
	binary.BigEndian.PutUint32(k[0:4], uint32(t)^0x80000000)
	binary.BigEndian.PutUint32(k[4:8], uint32(oid)^0x80000000)
	return k
}

// DecodeKey is the inverse of EncodeKey.
func DecodeKey(k []byte) (t, oid int32) {
	t = int32(binary.BigEndian.Uint32(k[0:4]) ^ 0x80000000)
	oid = int32(binary.BigEndian.Uint32(k[4:8]) ^ 0x80000000)
	return t, oid
}

// EncodeValue encodes a coordinate pair into 16 bytes.
func EncodeValue(x, y float64) [ValueSize]byte {
	var v [ValueSize]byte
	binary.LittleEndian.PutUint64(v[0:8], math.Float64bits(x))
	binary.LittleEndian.PutUint64(v[8:16], math.Float64bits(y))
	return v
}

// DecodeValue is the inverse of EncodeValue.
func DecodeValue(v []byte) (x, y float64) {
	x = math.Float64frombits(binary.LittleEndian.Uint64(v[0:8]))
	y = math.Float64frombits(binary.LittleEndian.Uint64(v[8:16]))
	return x, y
}

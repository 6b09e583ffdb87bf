// Package flatfile implements the paper's k2-File storage variant: the
// dataset is one binary file of fixed-size records sorted by (t, oid).
//
// A flat file has no index, so it is written once and read one way: Load
// streams the whole file back into an in-memory dataset, and the miners
// read that through storage.MemStore. This is the paper's k2-File setup —
// one sequential read, then mining in memory. Serving Snapshot and Fetch
// from the file itself would cost a binary search of seeks per tick and
// per object, the access pattern the paper names as k2-File's weakness on
// large data, and no miner here reads a flat file that way.
//
// File layout:
//
//	header:  magic "K2FF" | version u32 | count u64 | ts i32 | te i32
//	records: count × (key[8] | value[16])   sorted ascending by key
package flatfile

import (
	"bufio"
	"bytes"
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
		if i > 0 && bytes.Compare(key[:], prev[:]) <= 0 {
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

// Load reads the flat file at path back into an in-memory dataset with one
// sequential read. A file whose size does not match its header's record
// count — truncated, or not a flat file — is rejected.
func Load(path string) (*model.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("flatfile: open: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("flatfile: read header: %w", err)
	}
	if string(hdr[0:4]) != magic {
		return nil, errors.New("flatfile: bad magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != version {
		return nil, fmt.Errorf("flatfile: unsupported version %d", v)
	}
	count := binary.LittleEndian.Uint64(hdr[8:16])
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("flatfile: %w", err)
	}
	body := st.Size() - headerSize
	if body%storage.RecordSize != 0 || uint64(body/storage.RecordSize) != count {
		return nil, fmt.Errorf("flatfile: header names %d records, file holds %d bytes of them", count, body)
	}
	pts := make([]model.Point, 0, count)
	var rec [storage.RecordSize]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			return nil, fmt.Errorf("flatfile: load: %w", err)
		}
		t, oid := storage.DecodeKey(rec[:storage.KeySize])
		x, y := storage.DecodeValue(rec[storage.KeySize:])
		pts = append(pts, model.Point{OID: oid, T: t, X: x, Y: y})
	}
	return model.NewDataset(pts), nil
}

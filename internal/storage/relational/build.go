package relational

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/model"
	"repro/internal/storage"
)

// Fill factors of the bottom-up build: leaves take 90% of leafCap entries
// and inner nodes 90% of innerCap separators (plus one child).
const (
	perLeaf  = leafCap * 9 / 10  // 153
	perInner = innerCap*9/10 + 1 // 307 children
	writeBuf = 64 * PageSize     // builder's write buffer
)

// WriteDataset builds a table at path containing ds, truncating any
// existing file. Building uses no buffer pool, so opts is not consulted;
// it is accepted so a table is written and opened with the same options.
func WriteDataset(path string, ds *model.Dataset, _ *Options) error {
	return writeTable(path, ds.Points())
}

// writeTable builds a table from pts, which must be strictly ascending by
// (t, oid). Pages are written in id order: the meta page's slot, the leaves
// left to right, then each inner level up to the root. The meta page is
// written last, so a build that fails leaves a file Open rejects. An empty
// table is one empty leaf root.
func writeTable(path string, pts []model.Point) (err error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("relational: create: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	buf := make([]byte, 0, writeBuf) // pages not yet written to f
	page := make([]byte, PageSize)
	next := uint32(0) // id of the next page written
	emit := func() error {
		next++
		buf = append(buf, page...)
		if len(buf) < cap(buf) {
			return nil
		}
		_, err := f.Write(buf)
		buf = buf[:0]
		return err
	}
	if err := emit(); err != nil { // meta slot, filled in last
		return err
	}

	// A sep names one node of a level by its first key.
	type sep struct {
		key [storage.KeySize]byte
		id  uint32
	}
	nLeaves := max(1, (len(pts)+perLeaf-1)/perLeaf)
	level := make([]sep, 0, nLeaves)
	var prev [storage.KeySize]byte
	for l := 0; l < nLeaves; l++ {
		lo, hi := l*perLeaf, min((l+1)*perLeaf, len(pts))
		clear(page)
		initLeaf(page)
		putU16(page, 2, uint16(hi-lo))
		if l+1 < nLeaves {
			putU32(page, 4, next+1)
		}
		for j := lo; j < hi; j++ {
			key := storage.EncodeKey(pts[j].T, pts[j].OID)
			if j > 0 && bytes.Compare(key[:], prev[:]) <= 0 {
				return fmt.Errorf("relational: bulk load out of order at %d", j)
			}
			prev = key
			val := storage.EncodeValue(pts[j].X, pts[j].Y)
			off := leafHdr + (j-lo)*leafEntry
			copy(page[off:], key[:])
			copy(page[off+storage.KeySize:], val[:])
		}
		s := sep{id: next}
		if hi > lo {
			s.key = storage.EncodeKey(pts[lo].T, pts[lo].OID)
		}
		level = append(level, s)
		if err := emit(); err != nil {
			return err
		}
	}
	for len(level) > 1 {
		up := make([]sep, 0, (len(level)+perInner-1)/perInner)
		for i := 0; i < len(level); i += perInner {
			kids := level[i:min(i+perInner, len(level))]
			clear(page)
			initInner(page, kids[0].id)
			putU16(page, 2, uint16(len(kids)-1))
			for j, k := range kids[1:] {
				off := innerHdr + j*innerEntry
				copy(page[off:], k.key[:])
				putU32(page, off+storage.KeySize, k.id)
			}
			up = append(up, sep{key: kids[0].key, id: next})
			if err := emit(); err != nil {
				return err
			}
		}
		level = up
	}
	if _, err := f.Write(buf); err != nil {
		return fmt.Errorf("relational: write: %w", err)
	}

	ts, te := int32(0), int32(-1)
	if len(pts) > 0 {
		ts, te = pts[0].T, pts[len(pts)-1].T
	}
	clear(page)
	copy(page[0:4], metaMagic)
	putU32(page, 4, metaVersion)
	putU32(page, 8, level[0].id)
	putU64(page, 12, uint64(len(pts)))
	putU32(page, 20, uint32(ts))
	putU32(page, 24, uint32(te))
	if _, err := f.WriteAt(page, 0); err != nil {
		return fmt.Errorf("relational: write meta: %w", err)
	}
	return nil
}

package experiments

import (
	"fmt"
	"math/rand"
	"sync"

	convoy "repro"
	"repro/internal/datagen"
	"repro/internal/datagen/brinkhoff"
	"repro/internal/model"
	"repro/internal/storage"
)

func init() {
	register("table4", table4)
	register("table5", table5)
}

// table4 reproduces the paper's Table 4: properties of the generated
// Brinkhoff dataset.
func table4(s Scale) (Table, error) {
	spec := BrinkhoffSpec()
	ds := spec.Build(s)
	st := datagen.Describe(ds)

	// Rebuild the network deterministically to report its size.
	p := brinkhoff.DefaultParams(3)
	switch s {
	case Tiny:
		p.GridW, p.GridH, p.MaxTime, p.ObjBegin, p.ObjPerTick = 10, 10, 150, 120, 3
	case Small:
		p.MaxTime, p.ObjBegin, p.ObjPerTick = 300, 900, 18
	case Mid:
		p.MaxTime, p.ObjBegin, p.ObjPerTick = 500, 2000, 40
	}
	nw := brinkhoff.NewNetwork(p, rand.New(rand.NewSource(p.Seed)))

	t := Table{
		ID:      "table4",
		Title:   "Brinkhoff dataset properties (scaled; paper values in parentheses)",
		Columns: []string{"property", "value", "paper"},
	}
	add := func(name, value, paper string) {
		t.Rows = append(t.Rows, []string{name, value, paper})
	}
	add("MaxTime", itoa(int(p.MaxTime)), "25000")
	add("ObjBegin", itoa(p.ObjBegin), "5000")
	add("ObjPerTick", itoa(p.ObjPerTick), "100")
	add("data space width", fmt.Sprintf("%.0f", p.SpaceW), "23572")
	add("data space height", fmt.Sprintf("%.0f", p.SpaceH), "26915")
	add("number of nodes", itoa(len(nw.Nodes)), "6105")
	add("number of edges", itoa(nw.NumEdges()), "7035")
	add("moving objects", itoa(st.Objects), "2505000")
	add("points", itoa(st.Points), "122014762")
	add("timestamps", itoa(st.Timestamps), "25000")
	return t, nil
}

// table5 reproduces the paper's Table 5: how much of each dataset k/2-hop
// prunes, as min/max over the (k, m) parameter grid. A point counts as
// processed once however often it is re-read, so pruning is computed from
// the distinct rows the miner touched; the reads, re-reads included, are
// reported beside them.
func table5(s Scale) (Table, error) {
	t := Table{
		ID:      "table5",
		Title:   "k/2-hop data pruning performance",
		Columns: []string{"", "Trucks", "T-Drive", "Brinkhoff"},
		Notes:   "paper: >99% pruned in most cases (its datasets are far larger and sparser in convoys)",
	}
	totals := []string{"Total points"}
	minReads := []string{"Min points read"}
	maxReads := []string{"Max points read"}
	minPts := []string{"Min points processed"}
	maxPts := []string{"Max points processed"}
	minPrune := []string{"Min pruning"}
	maxPrune := []string{"Max pruning"}
	for _, spec := range Datasets() {
		ds := spec.Build(s)
		total := int64(ds.NumPoints())
		readLo, readHi := int64(1)<<62, int64(0)
		lo, hi := int64(1)<<62, int64(0)
		ks := spec.Ks(ds)
		for _, k := range []int{ks[1], ks[3], ks[5]} {
			for _, m := range []int{3, 6} {
				st := newDistinctStore(convoy.NewMemStore(ds))
				r, err := convoy.Mine(st, convoy.Params{M: m, K: k, Eps: spec.Eps}, seqOpts(nil))
				if err != nil {
					return t, err
				}
				readLo, readHi = min(readLo, r.PointsProcessed), max(readHi, r.PointsProcessed)
				pts := st.distinct()
				lo, hi = min(lo, pts), max(hi, pts)
			}
		}
		totals = append(totals, itoa(int(total)))
		minReads = append(minReads, itoa(int(readLo)))
		maxReads = append(maxReads, itoa(int(readHi)))
		minPts = append(minPts, itoa(int(lo)))
		maxPts = append(maxPts, itoa(int(hi)))
		minPrune = append(minPrune, fmt.Sprintf("%.2f%%", 100*(1-float64(hi)/float64(total))))
		maxPrune = append(maxPrune, fmt.Sprintf("%.2f%%", 100*(1-float64(lo)/float64(total))))
	}
	t.Rows = [][]string{totals, minReads, maxReads, minPts, maxPts, minPrune, maxPrune}
	return t, nil
}

// distinctStore wraps a Store and records every distinct (t, oid) row that
// its Snapshot and Fetch return. It is safe for concurrent use.
type distinctStore struct {
	storage.Store
	mu   sync.Mutex
	rows map[[2]int32]struct{}
}

func newDistinctStore(st storage.Store) *distinctStore {
	return &distinctStore{Store: st, rows: map[[2]int32]struct{}{}}
}

func (s *distinctStore) Snapshot(t int32) ([]model.ObjPos, error) {
	rows, err := s.Store.Snapshot(t)
	s.record(t, rows)
	return rows, err
}

func (s *distinctStore) Fetch(t int32, oids model.ObjSet) ([]model.ObjPos, error) {
	rows, err := s.Store.Fetch(t, oids)
	s.record(t, rows)
	return rows, err
}

func (s *distinctStore) record(t int32, rows []model.ObjPos) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range rows {
		s.rows[[2]int32{t, r.OID}] = struct{}{}
	}
}

// distinct returns the number of distinct rows returned so far.
func (s *distinctStore) distinct() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.rows))
}

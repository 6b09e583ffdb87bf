package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/datagen/brinkhoff"
	"repro/internal/datagen/tdrive"
	"repro/internal/datagen/trucks"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/storage/flatfile"
	"repro/internal/storage/lsm"
	"repro/internal/storage/relational"
)

// DatasetSpec bundles a named dataset with the parameter grid the paper
// sweeps on it. Eps/M are the defaults; Ks returns the k sweep as fractions
// of the dataset timeline, mirroring the paper's 200..1200 over ~3000-25000
// tick datasets.
type DatasetSpec struct {
	Name string
	// Eps is the default clustering radius, calibrated to the generator's
	// platoon spread + GPS jitter.
	Eps float64
	// M is the default minimum convoy size.
	M     int
	build func(Scale) *model.Dataset
}

// Datasets returns the three dataset specs in the paper's order.
func Datasets() []DatasetSpec {
	return []DatasetSpec{TrucksSpec(), TDriveSpec(), BrinkhoffSpec()}
}

// TrucksSpec is the Trucks stand-in (smallest dataset).
func TrucksSpec() DatasetSpec {
	return DatasetSpec{
		Name: "Trucks",
		Eps:  40,
		M:    3,
		build: func(s Scale) *model.Dataset {
			p := trucks.DefaultParams(1)
			switch s {
			case Tiny:
				p.Trucks, p.Days, p.TicksPerDay = 25, 2, 120
			case Small:
				p.Trucks, p.Days, p.TicksPerDay = 50, 4, 250
			case Mid:
				p.Trucks, p.Days, p.TicksPerDay = 50, 8, 400
			}
			return trucks.Generate(p)
		},
	}
}

// TDriveSpec is the T-Drive stand-in (medium dataset).
func TDriveSpec() DatasetSpec {
	return DatasetSpec{
		Name: "T-Drive",
		Eps:  120,
		M:    3,
		build: func(s Scale) *model.Dataset {
			p := tdrive.DefaultParams(2)
			switch s {
			case Tiny:
				p.Taxis, p.Ticks = 150, 120
			case Small:
				p.Taxis, p.Ticks = 1200, 250
			case Mid:
				p.Taxis, p.Ticks = 3000, 400
			}
			return tdrive.Generate(p)
		},
	}
}

// BrinkhoffSpec is the Brinkhoff generator stand-in (largest dataset).
func BrinkhoffSpec() DatasetSpec {
	return DatasetSpec{
		Name: "Brinkhoff",
		Eps:  180,
		M:    3,
		build: func(s Scale) *model.Dataset {
			p := brinkhoff.DefaultParams(3)
			switch s {
			case Tiny:
				p.GridW, p.GridH, p.MaxTime, p.ObjBegin, p.ObjPerTick = 10, 10, 150, 120, 3
			case Small:
				p.MaxTime, p.ObjBegin, p.ObjPerTick = 300, 900, 18
			case Mid:
				p.MaxTime, p.ObjBegin, p.ObjPerTick = 500, 2000, 40
			}
			return brinkhoff.Generate(p)
		},
	}
}

// Ks returns the k sweep for a dataset at a scale: six values spanning
// ~5%..40% of the timeline, the paper's relative range.
func (d DatasetSpec) Ks(ds *model.Dataset) []int {
	ts, te := ds.TimeRange()
	ticks := int(te-ts) + 1
	fracs := []float64{0.05, 0.10, 0.15, 0.20, 0.30, 0.40}
	ks := make([]int, 0, len(fracs))
	for _, f := range fracs {
		k := int(float64(ticks) * f)
		if k < 2 {
			k = 2
		}
		ks = append(ks, k)
	}
	return ks
}

// KMid returns the middle of the k sweep (the default k).
func (d DatasetSpec) KMid(ds *model.Dataset) int {
	ks := d.Ks(ds)
	return ks[len(ks)/2]
}

// datasetCache memoises generated datasets per (name, scale) — experiments
// share them, and benchmarks re-run experiments repeatedly.
var (
	dsMu    sync.Mutex
	dsCache = map[string]*model.Dataset{}
)

// Build returns the (cached) dataset for a scale.
func (d DatasetSpec) Build(s Scale) *model.Dataset {
	dsMu.Lock()
	defer dsMu.Unlock()
	key := d.Name + "/" + string(s)
	if ds, ok := dsCache[key]; ok {
		return ds
	}
	ds := d.build(s)
	dsCache[key] = ds
	return ds
}

// StoreKind names a storage engine variant (paper §5 / k2-* algorithms).
type StoreKind string

// Available store kinds.
const (
	StoreMem   StoreKind = "mem"
	StoreFile  StoreKind = "k2-File"
	StoreRDBMS StoreKind = "k2-RDBMS"
	StoreLSMT  StoreKind = "k2-LSMT"
)

// OpenStore materialises ds under the given engine in dir and opens it.
// The returned cleanup closes the store and removes what it wrote in dir,
// which the caller owns — use a temp dir. A flat file is read the one way
// it can be, loaded whole into an in-memory store.
func OpenStore(kind StoreKind, ds *model.Dataset, dir string) (storage.Store, func(), error) {
	switch kind {
	case StoreMem:
		ms := storage.NewMemStore(ds)
		return ms, func() {}, nil
	case StoreFile:
		path := filepath.Join(dir, "data.k2f")
		if err := flatfile.WriteDataset(path, ds); err != nil {
			return nil, nil, err
		}
		mem, err := flatfile.Load(path)
		if err != nil {
			return nil, nil, err
		}
		return storage.NewMemStore(mem), func() { os.Remove(path) }, nil
	case StoreRDBMS:
		path := filepath.Join(dir, "data.k2r")
		if err := relational.WriteDataset(path, ds, nil); err != nil {
			return nil, nil, err
		}
		rs, err := relational.Open(path, nil)
		if err != nil {
			return nil, nil, err
		}
		return rs, func() { rs.Close(); os.Remove(path) }, nil
	case StoreLSMT:
		ldir := filepath.Join(dir, "lsm")
		if err := lsm.WriteDataset(ldir, ds); err != nil {
			return nil, nil, err
		}
		db, err := lsm.Open(ldir, nil)
		if err != nil {
			return nil, nil, err
		}
		return db, func() { db.Close(); os.RemoveAll(ldir) }, nil
	default:
		return nil, nil, fmt.Errorf("experiments: unknown store kind %q", kind)
	}
}

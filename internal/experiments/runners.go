package experiments

import (
	"os"
	"path/filepath"
	"time"

	convoy "repro"
	"repro/internal/model"
	"repro/internal/storage/flatfile"
)

// MineResult is one measured mining run.
type MineResult struct {
	Convoys  []model.Convoy
	Duration time.Duration
	Points   int64 // points read from the store
	Report   *convoy.K2HopReport
	PreVal   int
}

// seqOpts pins unset worker counts to a single worker: the
// paper-reproduction experiments compare algorithms on one core (the
// paper's sequential setups), so their gain tables must not silently
// inherit the library's workers-per-core default, which would skew
// k/2-hop's measured gains by the machine's core count. Both nil options
// and options with Workers == 0 are pinned — callers that really want the
// parallel engine must say so explicitly (cmd/convoymine resolves its
// per-core default itself). The parallel engine is measured on its own by
// BenchmarkK2HopParallel and the Compare runner.
func seqOpts(opts *convoy.Options) *convoy.Options {
	if opts == nil {
		return &convoy.Options{Workers: 1}
	}
	if opts.Workers == 0 {
		o := *opts
		o.Workers = 1
		return &o
	}
	return opts
}

// MineOn runs an algorithm against a dataset materialised under a storage
// engine and measures wall clock including all store I/O. Nil opts or an
// unset Workers means the paper's sequential setup (Workers: 1), not the
// library default.
//
// StoreFile reproduces the paper's k2-File semantics: the flat file is
// loaded into memory first (that cost is part of the measured time) and the
// miner runs in memory — a flat file has no index, so that is the one way
// it is read.
func MineOn(kind StoreKind, ds *model.Dataset, params convoy.Params, opts *convoy.Options) (*MineResult, error) {
	opts = seqOpts(opts)
	dir, err := os.MkdirTemp("", "k2exp")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	if kind == StoreFile {
		path := filepath.Join(dir, "data.k2f")
		if err := flatfile.WriteDataset(path, ds); err != nil {
			return nil, err
		}
		start := time.Now()
		mem, err := flatfile.Load(path)
		if err != nil {
			return nil, err
		}
		res, err := convoy.MineDataset(mem, params, opts)
		if err != nil {
			return nil, err
		}
		return &MineResult{
			Convoys:  res.Convoys,
			Duration: time.Since(start),
			Points:   int64(mem.NumPoints()), // whole file touched
			Report:   res.K2Hop,
			PreVal:   res.PreValidation,
		}, nil
	}

	st, cleanup, err := OpenStore(kind, ds, dir)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	res, err := convoy.Mine(st, params, opts)
	if err != nil {
		return nil, err
	}
	return &MineResult{
		Convoys:  res.Convoys,
		Duration: res.Duration,
		Points:   res.PointsProcessed,
		Report:   res.K2Hop,
		PreVal:   res.PreValidation,
	}, nil
}

// MineMem runs an algorithm on the in-memory store. Nil opts or an unset
// Workers means the paper's sequential setup (Workers: 1), not the
// library default.
func MineMem(ds *model.Dataset, params convoy.Params, opts *convoy.Options) (*MineResult, error) {
	res, err := convoy.MineDataset(ds, params, seqOpts(opts))
	if err != nil {
		return nil, err
	}
	return &MineResult{
		Convoys:  res.Convoys,
		Duration: res.Duration,
		Points:   res.PointsProcessed,
		Report:   res.K2Hop,
		PreVal:   res.PreValidation,
	}, nil
}

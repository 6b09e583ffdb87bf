// Package convoy is the public API of the k/2-hop reproduction: exact
// mining of fully connected (m,eps)-convoys — groups of at least m objects
// that stay density-connected among themselves for at least k consecutive
// timestamps — from trajectory data, following
//
//	Orakzai, Calders, Pedersen: "k/2-hop: Fast Mining of Convoy Patterns
//	With Effective Pruning", PVLDB 12(9), 2019.
//
// The default algorithm is k/2-hop, which clusters only every ⌊k/2⌋-th
// timestamp in full and prunes everything that cannot span two consecutive
// benchmark points. The baselines the paper compares against (VCoDA,
// VCoDA*, PCCD, CuTS, DCM, SPARE) are available through Options.Algorithm.
//
// Data access goes through the Store interface; bundled engines are the
// in-memory store (NewMemStore), a flat file (repro/internal is wrapped by
// the cmd tools), a B+tree table and an LSM-tree — see the storage
// subpackages and the examples directory.
//
// Quick start:
//
//	ds := convoy.NewDataset(points)
//	res, err := convoy.Mine(convoy.NewMemStore(ds), convoy.Params{M: 3, K: 10, Eps: 50})
//	for _, c := range res.Convoys { fmt.Println(c) }
package convoy

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cmc"
	"repro/internal/core"
	"repro/internal/cuts"
	"repro/internal/dcm"
	"repro/internal/mapreduce"
	"repro/internal/model"
	"repro/internal/spare"
	"repro/internal/storage"
	"repro/internal/vcoda"
)

// Re-exported data types. These are aliases, so values flow freely between
// the public API and the internal packages.
type (
	// Point is one trajectory sample <oid, t, x, y>.
	Point = model.Point
	// Convoy is a mined convoy: an object set plus an inclusive lifespan.
	Convoy = model.Convoy
	// ObjSet is a sorted set of object identifiers.
	ObjSet = model.ObjSet
	// Interval is an inclusive timestamp interval.
	Interval = model.Interval
	// Dataset is an immutable in-memory trajectory dataset.
	Dataset = model.Dataset
	// Store is the storage abstraction miners read from.
	Store = storage.Store
	// IOStats counts the I/O a store performed.
	IOStats = storage.IOStats
	// K2HopReport carries k/2-hop's per-phase timings and pruning counters.
	K2HopReport = core.Report
)

// NewDataset builds a dataset from raw points.
func NewDataset(points []Point) *Dataset { return model.NewDataset(points) }

// NewObjSet builds an object set from ids.
func NewObjSet(ids ...int32) ObjSet { return model.NewObjSet(ids...) }

// NewMemStore wraps a dataset as an in-memory Store.
func NewMemStore(ds *Dataset) Store { return storage.NewMemStore(ds) }

// Params are the convoy parameters of Definition 8: at least M objects
// density-connected within Eps for at least K consecutive timestamps.
type Params struct {
	M   int
	K   int
	Eps float64
}

func (p Params) validate() error {
	if p.M < 1 {
		return errors.New("convoy: M must be ≥ 1")
	}
	if p.K < 1 {
		return errors.New("convoy: K must be ≥ 1")
	}
	if !(p.Eps >= 0) {
		return errors.New("convoy: Eps must be ≥ 0")
	}
	return nil
}

// Algorithm selects a mining algorithm.
type Algorithm string

// Available algorithms. K2Hop, VCoDA and VCoDAStar mine fully connected
// convoys; PCCD, CuTS, DCM and SPARE mine partially connected convoys (the
// pattern class those baselines were defined for).
const (
	K2Hop     Algorithm = "k2hop"
	VCoDA     Algorithm = "vcoda"
	VCoDAStar Algorithm = "vcoda*"
	PCCD      Algorithm = "pccd"
	CuTS      Algorithm = "cuts"
	DCM       Algorithm = "dcm"
	SPARE     Algorithm = "spare"
)

// Options tune the run. The zero value means: k/2-hop, one worker per
// core.
type Options struct {
	// Algorithm selects the miner (default K2Hop).
	Algorithm Algorithm
	// Workers bounds the parallelism of the run: the k/2-hop pipeline fans
	// its benchmark clusterings, hop-windows (candidate clusters, then
	// HWMT), extensions and validation checks out over a pool of this size,
	// and DCM/SPARE use it as their per-node task slots. The default (0) is
	// one worker per core, runtime.GOMAXPROCS(0); 1 forces the sequential
	// path. Mining results are byte-identical for every worker count.
	// Negative values are rejected.
	Workers int
	// Nodes simulates a multi-node cluster for DCM and SPARE: tasks pay a
	// scheduling latency and their inputs/outputs are serialised (default 1
	// node, in-process).
	Nodes int
	// Lambda is the partition/piece length for DCM and CuTS (0 = default).
	Lambda int
	// DisableReExtend turns off k/2-hop's post-extension fixpoint (paper
	// fidelity mode; see DESIGN.md §3).
	DisableReExtend bool
}

// Result carries the mined convoys and run metadata.
type Result struct {
	Convoys   []Convoy
	Algorithm Algorithm
	Duration  time.Duration
	// PointsProcessed is the number of points read from the store.
	PointsProcessed int64
	// PreValidation is the number of candidates entering FC validation
	// (k/2-hop and VCoDA variants only).
	PreValidation int
	// K2Hop holds the per-phase report when Algorithm is K2Hop.
	K2Hop *K2HopReport
}

// Mine runs a convoy miner against a store.
func Mine(store Store, p Params, opts *Options) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	o := Options{Algorithm: K2Hop, Workers: runtime.GOMAXPROCS(0), Nodes: 1}
	if opts != nil {
		if opts.Workers < 0 {
			return nil, errors.New("convoy: Workers must be ≥ 0")
		}
		if opts.Nodes < 0 {
			return nil, errors.New("convoy: Nodes must be ≥ 0")
		}
		if opts.Algorithm != "" {
			o.Algorithm = opts.Algorithm
		}
		if opts.Workers > 0 {
			o.Workers = opts.Workers
		}
		if opts.Nodes > 0 {
			o.Nodes = opts.Nodes
		}
		o.Lambda = opts.Lambda
		o.DisableReExtend = opts.DisableReExtend
	}
	res := &Result{Algorithm: o.Algorithm}
	before := store.Stats().Snapshot().PointsRead
	start := time.Now()
	var err error
	switch o.Algorithm {
	case K2Hop:
		if p.K == 1 {
			// k/2-hop needs k ≥ 2; for k = 1 every miner degenerates to a
			// full sweep, so use VCoDA*.
			var rep vcoda.Report
			res.Convoys, rep, err = vcoda.MineStar(store, p.M, p.K, p.Eps)
			res.PreValidation = rep.PreValidation
			break
		}
		cfg := core.DefaultConfig(p.M, p.K, p.Eps)
		cfg.ReExtend = !o.DisableReExtend
		cfg.Workers = o.Workers
		var rep *core.Report
		res.Convoys, rep, err = core.Mine(store, cfg)
		res.K2Hop = rep
		if rep != nil {
			res.PreValidation = rep.PreValidation
		}
	case VCoDA:
		var rep vcoda.Report
		res.Convoys, rep, err = vcoda.Mine(store, p.M, p.K, p.Eps)
		res.PreValidation = rep.PreValidation
	case VCoDAStar:
		var rep vcoda.Report
		res.Convoys, rep, err = vcoda.MineStar(store, p.M, p.K, p.Eps)
		res.PreValidation = rep.PreValidation
	case PCCD:
		res.Convoys, err = cmc.Mine(store, p.M, p.K, p.Eps)
	case CuTS:
		res.Convoys, err = cuts.Mine(store, cuts.Config{M: p.M, K: p.K, Eps: p.Eps, Lambda: o.Lambda})
	case DCM:
		res.Convoys, err = dcm.Mine(store, dcm.Config{
			M: p.M, K: p.K, Eps: p.Eps, Lambda: o.Lambda, Cluster: clusterFor(o),
		})
	case SPARE:
		res.Convoys, err = spare.Mine(store, spare.Config{
			M: p.M, K: p.K, Eps: p.Eps, Cluster: clusterFor(o),
		})
	default:
		return nil, fmt.Errorf("convoy: unknown algorithm %q", o.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	res.Duration = time.Since(start)
	res.PointsProcessed = store.Stats().Snapshot().PointsRead - before
	return res, nil
}

// MineDataset is a convenience for in-memory data.
func MineDataset(ds *Dataset, p Params, opts *Options) (*Result, error) {
	return Mine(NewMemStore(ds), p, opts)
}

func clusterFor(o Options) mapreduce.Cluster {
	if o.Nodes > 1 {
		return mapreduce.Yarn(o.Nodes, o.Workers)
	}
	return mapreduce.Local(o.Workers)
}

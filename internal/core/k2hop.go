// Package core implements the paper's contribution: the k/2-hop convoy
// mining algorithm (§4). The pipeline is
//
//	benchmark clustering → candidate clusters → HWMT per hop-window →
//	DCM-merge → extend right, then left → full-connectivity validation
//
// Only the benchmark points (every ⌊k/2⌋-th timestamp) are clustered in
// full; everything else touches only the objects that survived the
// candidate-cluster intersection, which is why the algorithm prunes the
// vast majority of the data (paper Table 5).
//
// The independent units of work — benchmark clusterings, candidate-cluster
// intersections and HWMT runs per hop-window, extension walks, and each
// candidate's validation check — fan out over a bounded worker pool
// (Config.Workers); results are collected index-addressed so the output is
// byte-identical for every worker count. See docs/ARCHITECTURE.md for the
// pipeline diagram and where the pool hooks in.
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/dcm"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/postings"
	"repro/internal/storage"
	"repro/internal/vcoda"
)

// Config carries the mining parameters.
type Config struct {
	// M is the minimum convoy size (objects), K the minimum lifetime
	// (timestamps, ≥ 2), Eps the density-connection radius.
	M   int
	K   int
	Eps float64
	// Workers bounds the goroutines of the parallel phases: benchmark
	// clustering (each benchmark DBSCAN run is independent), candidate
	// clusters and HWMT (each hop-window is independent once the clusters
	// it reads are fixed), extension (each merged convoy extends
	// independently) and validation's whole-tick check (each candidate's is
	// independent; the sweeps of the candidates that fail stay in candidate
	// order). Results are collected index-addressed, so the output is
	// byte-identical for every worker count. ≤ 0 means one worker per core
	// (runtime.GOMAXPROCS); 1 is the sequential path. The store must
	// tolerate concurrent reads — all bundled engines do.
	Workers int
}

// Report exposes per-phase wall-clock timings and pruning counters (paper
// Fig 8i and Table 5).
type Report struct {
	BenchmarkTime time.Duration // benchmark-point clustering
	CandidateTime time.Duration // cluster-set intersection
	HWMTTime      time.Duration // hop-window mining
	MergeTime     time.Duration // DCM merge
	ExtendRight   time.Duration
	ExtendLeft    time.Duration
	ValidateTime  time.Duration

	Workers int // worker-pool size the run used

	BenchmarkPoints int // number of benchmark timestamps clustered
	HopWindows      int // windows with non-empty candidate sets
	Spanning        int // 1st-order spanning convoys
	Merged          int // maximal spanning convoys
	PreValidation   int // convoys entering validation (Fig 8j)
	Convoys         int // final FC convoys

	PointsProcessed int64 // points read from the store during the run
}

// Mine runs k/2-hop against a store and returns the maximal fully connected
// (M,Eps)-convoys with lifetime ≥ K.
func Mine(store storage.Store, cfg Config) ([]model.Convoy, *Report, error) {
	candidates, rep, err := MineCandidates(store, cfg, ConvoyGrouper(cfg.M, cfg.Eps))
	if err != nil {
		return nil, rep, err
	}
	rep.PreValidation = len(candidates)

	// Phase 6: full-connectivity validation (convoy-specific; the generic
	// pipeline only guarantees partially connected candidates). The same
	// step as phases 3–5 — fetch a candidate's rows at a tick, cluster them.
	// Each candidate's check runs on the pool; the sweeps of those that fail
	// run in candidate order.
	readsBefore := store.Stats().Snapshot().PointsRead - rep.PointsProcessed
	start := time.Now()
	res, err := vcoda.Validate(store, candidates, cfg.M, cfg.K, cfg.Eps, rep.Workers)
	if err != nil {
		return nil, rep, err
	}
	rep.ValidateTime = time.Since(start)
	rep.Convoys = len(res)
	rep.PointsProcessed = store.Stats().Snapshot().PointsRead - readsBefore
	return res, rep, nil
}

// MineCandidates runs the pattern-generic part of the k/2-hop pipeline
// (phases 1–5: benchmark grouping, candidate intersection, HWMT, merge,
// extension) and returns the maximal candidates of size ≥ M and length ≥ K.
// Convoy mining validates these for full connectivity afterwards; patterns
// without a connectivity subtlety (flocks) use them directly.
func MineCandidates(store storage.Store, cfg Config, grouper Grouper) ([]model.Convoy, *Report, error) {
	if cfg.K < 2 {
		return nil, nil, errors.New("core: K must be ≥ 2 (use a full-sweep miner for K=1)")
	}
	if cfg.M < 1 {
		return nil, nil, errors.New("core: M must be ≥ 1")
	}
	workers := pool.Size(cfg.Workers)
	rep := &Report{Workers: workers}
	readsBefore := store.Stats().Snapshot().PointsRead
	defer func() {
		rep.PointsProcessed = store.Stats().Snapshot().PointsRead - readsBefore
	}()

	ts, te := store.TimeRange()
	if te < ts || int(te-ts)+1 < cfg.K {
		return nil, rep, nil // dataset shorter than K: no patterns possible
	}
	mi := &miner{store: store, ts: ts, te: te, grouper: grouper, workers: workers}

	spanning, err := mi.spanning(cfg, rep)
	if err != nil {
		return nil, rep, err
	}

	// Phase 4: merge spanning convoys across windows.
	start := time.Now()
	merged := dcm.Merge(spanning, cfg.M)
	rep.Merged = len(merged)
	rep.MergeTime = time.Since(start)

	// Phase 5: extend to the true starts and ends.
	extended, err := mi.extendAll(merged, rep)
	if err != nil {
		return nil, rep, err
	}
	// Only candidates satisfying K and M can be (or cover) final patterns.
	var candidates []model.Convoy
	for _, v := range extended {
		if v.Len() >= cfg.K && v.Size() >= cfg.M {
			candidates = append(candidates, v)
		}
	}
	return candidates, rep, nil
}

// spanning runs phases 1–3 — benchmark grouping, candidate intersection and
// HWMT — and returns the 1st-order spanning convoys of each hop-window, the
// slices phase 4 merges.
func (mi *miner) spanning(cfg Config, rep *Report) ([][]model.Convoy, error) {
	// Phase 1: benchmark points and benchmark clusters. Every benchmark
	// DBSCAN run is independent, so the snapshots fan out over the pool;
	// results land in index-addressed slots to keep the order deterministic.
	start := time.Now()
	hop := int32(cfg.K / 2)
	var bps []int32
	for b := mi.ts; b <= mi.te; b += hop {
		bps = append(bps, b)
	}
	rep.BenchmarkPoints = len(bps)
	benchClusters := make([][]model.ObjSet, len(bps))
	err := pool.ForEach(mi.workers, len(bps), func(i int) error {
		snap, err := mi.store.Snapshot(bps[i])
		if err != nil {
			return fmt.Errorf("core: benchmark snapshot %d: %w", bps[i], err)
		}
		benchClusters[i] = mi.grouper(snap)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.BenchmarkTime = time.Since(start)

	// Phase 2: candidate clusters per hop-window, each window a task.
	start = time.Now()
	cc := make([][]model.ObjSet, len(bps)-1)
	_ = pool.ForEach(mi.workers, len(cc), func(i int) error { // no task can fail
		cc[i] = intersectClusterSets(benchClusters[i], benchClusters[i+1], cfg.M)
		return nil
	})
	for i := range cc {
		if len(cc[i]) > 0 {
			rep.HopWindows++
		}
	}
	rep.CandidateTime = time.Since(start)

	// Phase 3: HWMT per hop-window → 1st-order spanning convoys. Windows
	// are independent once the candidate clusters are fixed; fan out and
	// collect per-window so the spanning order matches the sequential run.
	start = time.Now()
	spanning := make([][]model.Convoy, len(cc))
	err = pool.ForEach(mi.workers, len(cc), func(i int) error {
		if len(cc[i]) == 0 {
			return nil
		}
		surv, err := mi.hwmt(bps[i]+1, bps[i+1]-1, cc[i])
		if err != nil {
			return err
		}
		for _, objs := range surv {
			spanning[i] = append(spanning[i], model.Convoy{Objs: objs, Start: bps[i], End: bps[i+1]})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range spanning {
		rep.Spanning += len(spanning[i])
	}
	rep.HWMTTime = time.Since(start)
	return spanning, nil
}

// miner carries the store and parameters through the phases.
type miner struct {
	store   storage.Store
	ts, te  int32
	grouper Grouper
	workers int
}

// recluster fetches the positions of objs at t and groups them among
// themselves (restricted grouping), returning groups of size ≥ M.
func (mi *miner) recluster(t int32, objs model.ObjSet) ([]model.ObjSet, error) {
	rows, err := mi.store.Fetch(t, objs)
	if err != nil {
		return nil, fmt.Errorf("core: fetch t=%d: %w", t, err)
	}
	return mi.grouper(rows), nil
}

// intersectClusterSets computes the candidate clusters CC = {c ∩ c' : |c ∩
// c'| ≥ m} of two benchmark cluster sets, in (left cluster, right cluster)
// order.
//
// The sweep is output-sensitive — it pays for what intersects, not for
// |a|×|b| pairs: a postings.Index over the right-hand clusters (they may
// overlap — DBSCAN's clusters share border points at m ≥ 4, and
// flock.DiskGroups produces overlapping covers) counts what each left
// cluster shares with every right cluster it touches, and only the pairs
// that share m objects are materialized, by one sorted merge.
//
// Distinct benchmark pairs frequently produce the same intersection; such
// duplicates are emitted once, at their first position. Downstream cost
// (HWMT re-clustering) is per-set, and identical sets behave identically
// through every later phase, so duplicate candidates only multiply work
// without ever changing the mined convoys.
func intersectClusterSets(a, b []model.ObjSet, m int) []model.ObjSet {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	var idx postings.Index
	idx.Build(len(b), func(j int) model.ObjSet { return b[j] })
	var out []model.ObjSet
	seen := map[string]bool{}
	var keyBuf []byte
	for _, c := range a {
		for _, h := range idx.Overlaps(c) {
			if int(h.N) < m {
				continue
			}
			cc := c.Intersect(b[h.Set])
			keyBuf = cc.AppendKey(keyBuf[:0])
			if seen[string(keyBuf)] {
				continue
			}
			seen[string(keyBuf)] = true
			out = append(out, cc)
		}
	}
	return out
}

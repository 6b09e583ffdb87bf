// Package dcm implements the Distributed Convoy Mining algorithm of
// Orakzai et al. (MDM'16) — the paper's distributed baseline (Fig 7g) — on
// the in-process map-reduce runtime:
//
//	map:    the time axis is split into λ-length partitions that overlap by
//	        one timestamp; each partition is mined independently with PCCD,
//	        keeping every partial convoy that touches a partition border
//	        (regardless of length) plus interior convoys of length ≥ k;
//	reduce: the per-partition convoy sets are folded left-to-right with
//	        Merge (merge.go), the DCM merge k/2-hop's phase 4 also uses,
//	        and the k filter is applied at the end.
//
// DCM mines partially connected convoys, like the original; the experiment
// harness compares wall-clock against k/2-hop the way the paper does. Note
// the cost structure the paper criticises: every partition clusters every
// snapshot it covers, so the whole dataset is read and clustered once even
// when it contains no convoys at all.
package dcm

import (
	"fmt"

	"repro/internal/cmc"
	"repro/internal/dbscan"
	"repro/internal/mapreduce"
	"repro/internal/model"
	"repro/internal/storage"
)

// Config carries DCM's parameters.
type Config struct {
	M   int
	K   int
	Eps float64
	// Lambda is the partition length in ticks (default 4k; the paper notes
	// performance is very sensitive to this data-dependent choice).
	Lambda int
	// Cluster is the simulated execution substrate.
	Cluster mapreduce.Cluster
}

// Mine runs DCM against a store.
func Mine(store storage.Store, cfg Config) ([]model.Convoy, error) {
	parts, err := mineParts(store, cfg)
	if err != nil {
		return nil, err
	}
	// Reduce phase: merge across partitions, sequentially left to right.
	// The merged set is maximal and sorted, so the k filter keeps it so.
	var out []model.Convoy
	for _, c := range Merge(parts, cfg.M) {
		if c.Len() >= cfg.K {
			out = append(out, c)
		}
	}
	return out, nil
}

// mineParts is the map phase: it mines every partition and returns their
// convoy sets left to right, the slices Merge folds. Partial convoys
// touching a border are kept regardless of length so the reduce phase can
// merge them.
func mineParts(store storage.Store, cfg Config) ([][]model.Convoy, error) {
	if cfg.Lambda <= 0 {
		cfg.Lambda = 4 * cfg.K
	}
	if cfg.Lambda < cfg.K {
		cfg.Lambda = cfg.K
	}
	ts, te := store.TimeRange()
	if te < ts {
		return nil, nil
	}
	// Build partitions [start, end] overlapping by one tick.
	type part struct{ Start, End int32 }
	var parts []part
	for s := ts; s <= te; s += int32(cfg.Lambda) {
		e := s + int32(cfg.Lambda)
		if e > te {
			e = te
		}
		parts = append(parts, part{Start: s, End: e})
		if e == te {
			break
		}
	}

	return mapreduce.Run(cfg.Cluster, parts, func(p part) ([]model.Convoy, error) {
		keep := func(c model.Convoy) bool {
			return c.Len() >= cfg.K || c.Start == p.Start || c.End == p.End
		}
		mn := cmc.NewMinerKeep(cfg.M, keep)
		for t := p.Start; t <= p.End; t++ {
			snap, err := store.Snapshot(t)
			if err != nil {
				return nil, fmt.Errorf("dcm: snapshot %d: %w", t, err)
			}
			mn.Step(t, dbscan.Cluster(snap, cfg.Eps, cfg.M))
		}
		return mn.Finish(), nil
	})
}

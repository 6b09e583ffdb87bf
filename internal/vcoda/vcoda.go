// Package vcoda implements the fully-connected-convoy baselines of Yoon &
// Shahabi (ICDMW'09) as the paper uses them: PCCD mining of maximal
// partially connected convoys followed by a validation phase that reduces
// them to maximal fully connected (FC) convoys.
//
// Validation follows the paper's §4.6 observation: (O, T) is an FC convoy
// exactly when (O, T) is a convoy of the dataset restricted to objects O
// and timespan T. Validate therefore fetches a candidate's rows tick by
// tick: a candidate whose rows form the one cluster O at every tick of T is
// FC as it stands, and one that fails somewhere is swept with PCCD, whose
// smaller convoys are re-validated the same way. The whole-tick checks are
// independent and run on the worker pool; the sweeps run in candidate
// order, since which of them are needed depends on what earlier candidates
// confirmed. Coverage of all maximal FC convoys follows from DBSCAN
// monotonicity: adding objects never splits a cluster, so an FC convoy
// remains a convoy in every restriction of a superset of its objects.
//
// Two variants mirror the paper's measurements; they differ only in the
// store Validate reads:
//
//   - VCoDA  — the store that was mined, paying point queries per
//     validation round;
//   - VCoDA* — an in-memory copy of the snapshots the mining sweep read (the
//     paper's faster variant).
//
// Both validate on one worker, as the paper's sequential baselines do.
package vcoda

import (
	"fmt"
	"time"

	"repro/internal/cmc"
	"repro/internal/dbscan"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/storage"
)

// Report carries phase timings and counters for the experiment harness.
type Report struct {
	PreValidation int           // convoys entering validation (paper Fig 8j)
	MineTime      time.Duration // PCCD sweep
	ValidateTime  time.Duration
	Convoys       int
}

// MineStar runs VCoDA*: the PCCD sweep keeps the snapshots it reads, and
// validation reads that in-memory copy.
func MineStar(store storage.Store, m, k int, eps float64) ([]model.Convoy, Report, error) {
	return mine(store, m, k, eps, true)
}

// Mine runs plain VCoDA: the PCCD sweep does not retain the data, so every
// validation round fetches its rows from the store.
func Mine(store storage.Store, m, k int, eps float64) ([]model.Convoy, Report, error) {
	return mine(store, m, k, eps, false)
}

// mine is the PCCD sweep over every snapshot followed by Validate, on the
// store itself or, with retain, on a MemStore of the snapshots the sweep read.
func mine(store storage.Store, m, k int, eps float64, retain bool) ([]model.Convoy, Report, error) {
	var rep Report
	ts, te := store.TimeRange()
	mn := cmc.NewMiner(m, k)
	start := time.Now()
	var pts []model.Point
	for t := ts; t <= te; t++ {
		snap, err := store.Snapshot(t)
		if err != nil {
			return nil, rep, fmt.Errorf("vcoda: snapshot %d: %w", t, err)
		}
		if retain {
			for _, p := range snap {
				pts = append(pts, model.Point{OID: p.OID, T: t, X: p.X, Y: p.Y})
			}
		}
		mn.Step(t, dbscan.Cluster(snap, eps, m))
	}
	cands := mn.Finish()
	rep.MineTime = time.Since(start)
	rep.PreValidation = len(cands)

	start = time.Now()
	if retain {
		store = storage.NewMemStore(model.NewDataset(pts))
	}
	out, err := Validate(store, cands, m, k, eps, 1)
	if err != nil {
		return nil, rep, err
	}
	rep.ValidateTime = time.Since(start)
	rep.Convoys = len(out)
	return out, rep, nil
}

// Validate reduces candidate convoys to the maximal FC convoys they cover,
// in two steps.
//
// The first checks every candidate on its own, fanned out over up to
// workers goroutines: it fetches and clusters the candidate's rows tick by
// tick, up to the first tick whose clusters are not exactly {v.Objs}, and
// keeps that tick and its clusters in the candidate's slot. A candidate
// with no such tick is FC as it stands.
//
// The second takes the candidates in the order given, on one goroutine,
// because what it keeps depends on what came before: a (sub-)candidate
// already seen, or covered by a confirmed FC convoy, is skipped. An FC
// candidate is kept without a sweep. Any other is swept with PCCD over the
// rows the store holds for its objects and timespan — from its stored
// check, so no tick is fetched twice — and what the sweep returns instead
// of the candidate goes back on the candidate's stack, to be swept whole.
//
// Neither the output nor the reads depend on workers. A candidate that
// the second step skips — one covered by an earlier candidate, which PCCD
// and k/2-hop never return — has still paid for its check.
func Validate(store storage.Store, cands []model.Convoy, m, k int, eps float64, workers int) ([]model.Convoy, error) {
	clusterAt := func(t int32, objs model.ObjSet) ([]model.ObjSet, error) {
		rows, err := store.Fetch(t, objs)
		if err != nil {
			return nil, fmt.Errorf("vcoda: fetch %d: %w", t, err)
		}
		return dbscan.Cluster(rows, eps, m), nil
	}

	checks := make([]check, len(cands))
	err := pool.ForEach(workers, len(cands), func(i int) error {
		v := cands[i]
		if v.Size() < m || v.Len() < k {
			return nil
		}
		for t := v.Start; t <= v.End; t++ {
			clusters, err := clusterAt(t, v.Objs)
			if err != nil {
				return err
			}
			if len(clusters) != 1 || len(clusters[0]) != len(v.Objs) {
				checks[i] = check{split: true, at: t, clusters: clusters}
				return nil
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var (
		fc    []model.Convoy // confirmed FC convoys
		cover model.Cover    // fc, for the skip below
	)
	seen := make(map[string]bool)
	mn := cmc.NewMiner(m, k)
	var stack []model.Convoy
	for i, c := range cands {
		stack = append(stack[:0], c)
		for top := true; len(stack) > 0; top = false {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v.Size() < m || v.Len() < k {
				continue
			}
			key := v.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			if cover.Covers(v) {
				// Already implied by a confirmed FC convoy (a sub-convoy of an
				// FC convoy restricted-mines to itself only if it is FC, but if
				// it is covered it cannot be maximal, so skip the work).
				continue
			}
			if top && !checks[i].split {
				fc = append(fc, v) // every tick clustered to v.Objs alone
				cover.Add(v)
				continue
			}
			mn.Reset()
			from := v.Start
			if top {
				// The sweep resumes from the check: the ticks before ck.at
				// clustered to v.Objs alone.
				ck := checks[i]
				whole := []model.ObjSet{v.Objs}
				for t := v.Start; t < ck.at; t++ {
					mn.Step(t, whole)
				}
				mn.Step(ck.at, ck.clusters)
				from = ck.at + 1
			}
			for t := from; t <= v.End; t++ {
				clusters, err := clusterAt(t, v.Objs)
				if err != nil {
					return nil, err
				}
				mn.Step(t, clusters)
			}
			for _, w := range mn.Finish() {
				if w.Equal(v) {
					fc = append(fc, v)
					cover.Add(v)
				} else {
					stack = append(stack, w)
				}
			}
		}
	}
	// A later confirmed convoy may cover an earlier one.
	return model.Maximal(fc), nil
}

// check is a candidate's whole-tick test: whether some tick of it did not
// cluster to its objects alone, the first such tick, and what Cluster
// returned there.
type check struct {
	split    bool
	at       int32
	clusters []model.ObjSet
}

// Reference mines maximal FC convoys of an in-memory dataset from first
// principles (PCCD + exhaustive validation). It is the oracle the test
// suites compare every other miner against.
func Reference(ds *model.Dataset, m, k int, eps float64) []model.Convoy {
	out, _, err := Mine(storage.NewMemStore(ds), m, k, eps)
	if err != nil {
		panic(err) // a MemStore read cannot fail
	}
	return out
}

// Package vcoda implements the fully-connected-convoy baselines of Yoon &
// Shahabi (ICDMW'09) as the paper uses them: PCCD mining of maximal
// partially connected convoys followed by a validation phase that reduces
// them to maximal fully connected (FC) convoys.
//
// Validation follows the paper's §4.6 observation: (O, T) is an FC convoy
// exactly when (O, T) is a convoy of the dataset restricted to objects O
// and timespan T. Validate therefore fetches a candidate's rows tick by
// tick and sweeps them with PCCD; a candidate the sweep returns intact is
// FC, anything smaller is re-validated the same way. Coverage of all
// maximal FC convoys follows from DBSCAN monotonicity: adding objects never
// splits a cluster, so an FC convoy remains a convoy in every restriction
// of a superset of its objects.
//
// Two variants mirror the paper's measurements; they differ only in the
// store Validate reads:
//
//   - VCoDA  — the store that was mined, paying point queries per
//     validation round;
//   - VCoDA* — an in-memory copy of the snapshots the mining sweep read (the
//     paper's faster variant).
package vcoda

import (
	"fmt"
	"time"

	"repro/internal/cmc"
	"repro/internal/dbscan"
	"repro/internal/model"
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
	out, err := Validate(store, cands, m, k, eps)
	if err != nil {
		return nil, rep, err
	}
	rep.ValidateTime = time.Since(start)
	rep.Convoys = len(out)
	return out, rep, nil
}

// Validate reduces candidate convoys to the maximal FC convoys they cover.
// Candidates are taken in the order given; each is swept over the rows the
// store holds for its objects and timespan, and what the sweep returns
// instead of the candidate goes back on the candidate's stack.
func Validate(store storage.Store, cands []model.Convoy, m, k int, eps float64) ([]model.Convoy, error) {
	out := model.NewConvoySet()
	seen := make(map[string]bool)
	mn := cmc.NewMiner(m, k)
	var stack []model.Convoy
	for _, c := range cands {
		stack = append(stack[:0], c)
		for len(stack) > 0 {
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
			if out.Covers(v) {
				// Already implied by a confirmed FC convoy (a sub-convoy of an
				// FC convoy restricted-mines to itself only if it is FC, but if
				// it is covered it cannot be maximal, so skip the work).
				continue
			}
			mn.Reset()
			for t := v.Start; t <= v.End; t++ {
				rows, err := store.Fetch(t, v.Objs)
				if err != nil {
					return nil, fmt.Errorf("vcoda: fetch %d: %w", t, err)
				}
				mn.Step(t, dbscan.Cluster(rows, eps, m))
			}
			for _, w := range mn.Finish() {
				if w.Equal(v) {
					out.Update(v)
				} else {
					stack = append(stack, w)
				}
			}
		}
	}
	return out.Sorted(), nil
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

package core

import (
	"repro/internal/dbscan"
	"repro/internal/model"
)

// Grouper is the per-snapshot grouping operator that the k/2-hop pruning
// pipeline is generic over (the paper's §7 observes the technique transfers
// to other movement patterns — flocks swap density clustering for disk
// covering, see internal/flock). The pipeline calls it on full snapshots at
// benchmark points and on snapshots restricted to a candidate's objects in
// HWMT and the extension phases.
//
// Requirements for correctness of the pipeline:
//
//   - on a full snapshot it returns groups such that every pattern instance
//     alive at that timestamp has its object set contained in some group.
//     DBSCAN meets this because its clusters are maximal density-connected
//     sets (Definition 3): a border point joins every cluster that reaches
//     it, so a set that clusters as one on its own points lies inside one;
//   - it does the same on a snapshot restricted to a candidate's objects,
//     and must be restriction-monotone: if a pattern's objects group
//     together in a superset snapshot, they still group together (possibly
//     inside a smaller group) in the restriction. This is why extension
//     needs one pass each way: a pattern's objects keep grouping inside
//     whichever candidate still contains them, so some walk carries them
//     to the pattern's true end, and then to its true start;
//   - it must be deterministic — the same rows always produce the same
//     groups. The pipeline prunes duplicate candidate sets before
//     re-clustering (HWMT levels and the phase-2 intersection), which is
//     only sound when a pruned duplicate would have produced exactly the
//     groups its surviving twin produces. Both bundled groupers (DBSCAN
//     here, disk covering in internal/flock) are deterministic.
type Grouper func(rows []model.ObjPos) []model.ObjSet

// ConvoyGrouper returns the paper's grouping operator: DBSCAN with minPts=m
// and radius eps.
func ConvoyGrouper(m int, eps float64) Grouper {
	return func(rows []model.ObjPos) []model.ObjSet {
		return dbscan.Cluster(rows, eps, m)
	}
}

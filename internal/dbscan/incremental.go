package dbscan

import "repro/internal/model"

// Incremental is a stub that exists only so the frozen benchmark compiles:
// Step is Cluster and every counter reads 0. It goes when the [benchmark]
// change retires the dbscan.inc_* metrics; nothing else uses it.
type Incremental struct {
	eps    float64
	minPts int
}

// IncrementalStats holds the counters the benchmark reads; all stay 0.
type IncrementalStats struct{ GridQueries, Recomputed, Fallbacks int64 }

// NewIncremental returns a stub that clusters with eps and minPts m.
func NewIncremental(eps float64, m int) (*Incremental, error) { return &Incremental{eps, m}, nil }

// Step returns Cluster(objs, eps, minPts).
func (inc *Incremental) Step(objs []model.ObjPos) []model.ObjSet {
	return Cluster(objs, inc.eps, inc.minPts)
}

// Stats returns zero counters.
func (inc *Incremental) Stats() IncrementalStats { return IncrementalStats{} }

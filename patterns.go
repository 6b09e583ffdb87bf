package convoy

import (
	"repro/internal/flock"
	"repro/internal/movingcluster"
)

// This file exposes the movement-pattern extensions of the paper's §7
// ("the k/2-hop technique can be applied to numerous movement pattern
// mining algorithms such as moving clusters and flock patterns"):
// flock mining accelerated by the k/2-hop pipeline, and the classical
// moving-cluster miner (whose identity churn is outside the k/2-hop
// technique's reach — see package movingcluster for why). Both take the
// PatternParams a streaming PatternMiner takes, defaulted and validated by
// the same rule.

// Flock is a mined flock: ≥ m objects within one disk of radius r for ≥ k
// consecutive timestamps. Structurally identical to Convoy.
type Flock = flock.Flock

// MineFlocks mines maximal flocks of at least pp.M objects within one disk
// of radius pp.R for at least pp.K timestamps, with the k/2-hop pipeline
// (benchmark points, candidate intersection, hop-window verification,
// extension) on one worker per core. Set sweep to use the classical
// timestamp-sweep baseline instead (always sequential). k/2-hop needs
// K ≥ 2, so at K = 1 both run the sweep.
func MineFlocks(store Store, pp PatternParams, sweep bool) ([]Flock, error) {
	pp = pp.withDefaults()
	if err := pp.validate(); err != nil {
		return nil, err
	}
	cfg := flock.Config{M: pp.M, K: pp.K, R: pp.R}
	if sweep || pp.K == 1 {
		return flock.Sweep(store, cfg)
	}
	out, _, err := flock.MineK2Hop(store, cfg)
	return out, err
}

// MovingCluster is a mined moving cluster: a per-tick cluster sequence with
// bounded membership churn.
type MovingCluster = movingcluster.MovingCluster

// MineMovingClusters mines moving clusters with the classical sweep:
// DBSCAN (pp.M, pp.Eps) per snapshot, consecutive clusters chained while
// their Jaccard overlap is at least pp.Theta, kept when they live at least
// pp.K timestamps.
func MineMovingClusters(store Store, pp PatternParams) ([]MovingCluster, error) {
	pp = pp.withDefaults()
	if err := pp.validate(); err != nil {
		return nil, err
	}
	return movingcluster.Mine(store, movingcluster.Config{
		M: pp.M, Eps: pp.Eps, Theta: pp.Theta, K: pp.K,
	})
}

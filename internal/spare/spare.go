// Package spare implements the SPARE framework (Star Partitioning and
// ApRiori Enumerator) of Fan et al. (PVLDB'16), the state-of-the-art
// parallel baseline the paper compares against (Figs 7d–7f), on the
// in-process map-reduce runtime.
//
// The two MapReduce stages mirror the original:
//
//	stage 1 — snapshot clustering: timestamps are partitioned over the
//	  cluster's workers; each snapshot is DBSCAN-clustered, producing the
//	  co-clustering sequence of every object pair (a bitset over time).
//	stage 2 — star partitioning + apriori: the object graph (an edge per
//	  pair with a ≥k consecutive co-clustering run) is partitioned into
//	  stars owned by their minimum vertex; each star enumerates candidate
//	  groups apriori-style, pruning any group whose AND-ed sequence has no
//	  run of k consecutive timestamps. Where a tick's clusters are
//	  disjoint, same-cluster is transitive and anchoring sequences at the
//	  star owner is exact; where two clusters share a border point (DBSCAN
//	  at m ≥ 4), a group's runs are cut at the ticks where it lies inside
//	  no single cluster.
//
// The paper's critique — which the experiments reproduce — is that stage 1
// clusters every snapshot of the whole dataset no matter how rare convoys
// are, so SPARE pays the full clustering cost that k/2-hop prunes away.
package spare

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/bitset"
	"repro/internal/dbscan"
	"repro/internal/mapreduce"
	"repro/internal/model"
	"repro/internal/storage"
)

// Config carries SPARE's parameters.
type Config struct {
	M   int
	K   int
	Eps float64
	// Cluster is the simulated execution substrate.
	Cluster mapreduce.Cluster
}

// Mine runs SPARE against a store and returns the maximal convoys
// (partially connected, like the original framework).
func Mine(store storage.Store, cfg Config) ([]model.Convoy, error) {
	ts, te := store.TimeRange()
	if te < ts {
		return nil, nil
	}
	nTicks := int(te-ts) + 1

	// ---- Stage 1: snapshot clustering, partitioned over timestamps. ----
	type tickClusters struct {
		T        int32
		Clusters []model.ObjSet
	}
	nTasks := cfg.Cluster.Workers() * 4
	if nTasks > nTicks {
		nTasks = nTicks
	}
	var chunks [][2]int32
	chunk := (nTicks + nTasks - 1) / nTasks
	for s := ts; s <= te; s += int32(chunk) {
		e := s + int32(chunk) - 1
		if e > te {
			e = te
		}
		chunks = append(chunks, [2]int32{s, e})
	}
	clustered, err := mapreduce.Run(cfg.Cluster, chunks, func(c [2]int32) ([]tickClusters, error) {
		var out []tickClusters
		for t := c[0]; t <= c[1]; t++ {
			snap, err := store.Snapshot(t)
			if err != nil {
				return nil, fmt.Errorf("spare: snapshot %d: %w", t, err)
			}
			out = append(out, tickClusters{T: t, Clusters: dbscan.Cluster(snap, cfg.Eps, cfg.M)})
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	// Pair co-clustering sequences (the object graph's edge labels), and
	// the clusters of each tick at which some object is in two of them.
	seqs := map[pair]*bitset.Bits{}
	shared := make([][]model.ObjSet, nTicks)
	in := map[int32]bool{}
	for _, batch := range clustered {
		for _, tc := range batch {
			bit := int(tc.T - ts)
			clear(in)
			for _, cl := range tc.Clusters {
				for _, o := range cl {
					if in[o] {
						shared[bit] = tc.Clusters
					}
					in[o] = true
				}
			}
			for _, cl := range tc.Clusters {
				for i := 0; i < len(cl); i++ {
					for j := i + 1; j < len(cl); j++ {
						p := pair{a: cl[i], b: cl[j]}
						s, ok := seqs[p]
						if !ok {
							s = bitset.New(nTicks)
							seqs[p] = s
						}
						s.Set(bit)
					}
				}
			}
		}
	}

	// ---- Stage 2: star partitioning + apriori enumeration. ----
	stars := map[int32][]int32{}
	for p, s := range seqs {
		if s.MaxRun() >= cfg.K {
			stars[p.a] = append(stars[p.a], p.b)
		}
	}
	var owners []int32
	for a := range stars {
		owners = append(owners, a)
	}
	sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })
	for _, a := range owners {
		ns := stars[a]
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	}

	results, err := mapreduce.Run(cfg.Cluster, owners, func(a int32) ([]model.Convoy, error) {
		return enumerateStar(a, stars[a], seqs2(seqs, a), shared, ts, cfg), nil
	})
	if err != nil {
		return nil, err
	}
	return model.Maximal(slices.Concat(results...)), nil
}

// pair is an unordered object pair with a < b.
type pair struct{ a, b int32 }

// seqs2 projects the pair sequences of star owner a into a small map.
func seqs2(seqs map[pair]*bitset.Bits, a int32) map[int32]*bitset.Bits {
	out := map[int32]*bitset.Bits{}
	for p, s := range seqs {
		if p.a == a {
			out[p.b] = s
		}
	}
	return out
}

// enumerateStar runs the apriori candidate enumeration within one star:
// depth-first growth of groups {a} ∪ S, S ⊆ neighbours(a), AND-ing the
// anchored sequences and pruning when the longest run drops below k. Every
// surviving group emits one convoy per ≥k run of the ticks at which it lies
// inside one cluster: the AND-ed run, cut at the ticks where the group
// spans clusters that share an object. shared holds one entry per tick:
// the tick's clusters if two of them share an object, else nil. Global
// maximality filtering happens in the caller.
//
// The DFS runs on the shared set engine's reuse pattern: one bitset buffer
// per depth (siblings at a depth overwrite it, descendants use deeper
// buffers) and one shared group stack, so enumeration allocates only for
// emitted convoys — the old per-node AndNew clone made the enumerator the
// dominant allocator on dense stars.
func enumerateStar(a int32, neighbours []int32, seq map[int32]*bitset.Bits, shared [][]model.ObjSet, ts int32, cfg Config) []model.Convoy {
	var out []model.Convoy
	nTicks := len(shared)
	group := make([]int32, 0, len(neighbours)) // shared DFS stack
	emit := func(bits *bitset.Bits) {
		if len(group)+1 < cfg.M {
			return
		}
		for _, run := range bits.Runs(cfg.K) {
			from := run[0]
			for t := run[0]; t <= run[1]+1; t++ {
				if t <= run[1] && (shared[t] == nil || inOneCluster(shared[t], a, group)) {
					continue
				}
				if t-from >= cfg.K {
					objs := model.NewObjSet(append([]int32{a}, group...)...)
					out = append(out, model.Convoy{
						Objs:  objs,
						Start: ts + int32(from),
						End:   ts + int32(t-1),
					})
				}
				from = t + 1
			}
		}
	}
	var bufs []*bitset.Bits // one AND buffer per DFS depth
	var dfs func(bits *bitset.Bits, from, depth int)
	dfs = func(bits *bitset.Bits, from, depth int) {
		emit(bits)
		for i := from; i < len(neighbours); i++ {
			nb := neighbours[i]
			if depth == len(bufs) {
				bufs = append(bufs, bitset.New(nTicks))
			}
			next := bufs[depth]
			// Fewer than k set bits cannot contain a k-run; the fused count
			// skips the run scan for most pruned branches.
			if next.AndOf(bits, seq[nb]) < cfg.K || next.MaxRun() < cfg.K {
				continue // apriori pruning: supersets can only shrink runs
			}
			group = append(group, nb)
			dfs(next, i+1, depth+1)
			group = group[:len(group)-1]
		}
	}
	full := bitset.New(nTicks)
	full.SetRange(0, nTicks-1)
	dfs(full, 0, 0)
	return out
}

// inOneCluster reports whether a and every object of group lie inside one
// of clusters.
func inOneCluster(clusters []model.ObjSet, a int32, group []int32) bool {
	return slices.ContainsFunc(clusters, func(cl model.ObjSet) bool {
		return cl.Contains(a) && !slices.ContainsFunc(group, func(o int32) bool { return !cl.Contains(o) })
	})
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	convoy "repro"
	"repro/internal/experiments"
	"repro/internal/minetest"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/storage/lsm"
	"repro/internal/storage/relational"
)

// mineInput is a mining workload after set-up: each dataset behind the
// store the workload mines it from.
type mineInput struct {
	sets   []mineDataset
	stores []storage.Store
	dirs   []string // on-disk stores, for sizes
	close  func()
	// writeDataset is how long materialising the stores took.
	writeDataset time.Duration
}

// pointsPerPass is the number of dataset points one sweep mines over: each
// dataset's points times its grid points.
func (in *mineInput) pointsPerPass() int64 {
	var n int64
	for _, s := range in.sets {
		n += int64(s.points) * int64(len(s.grid))
	}
	return n
}

func setupMine(ctx *runCtx, kind experiments.StoreKind, rep int) (*mineInput, error) {
	in := &mineInput{sets: genMineDatasets(ctx.sc, ctx.seed)}
	var closers []func()
	in.close = func() {
		for _, c := range closers {
			c()
		}
	}
	for i, s := range in.sets {
		dir := filepath.Join(ctx.workDir, fmt.Sprintf("store-%d-%d", rep, i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		st, cleanup, err := experiments.OpenStore(kind, s.ds, dir)
		if err != nil {
			in.close()
			return nil, err
		}
		in.writeDataset += time.Since(start)
		in.stores = append(in.stores, st)
		in.dirs = append(in.dirs, dir)
		closers = append(closers, cleanup)
	}
	return in, nil
}

// mineCall is one Mine call of a pass: how long it took and what it found.
type mineCall struct {
	took time.Duration
	res  *convoy.Result
}

// minePass runs the 36-mine sweep once. With traceID non-nil every call
// gets a root span and reads its store through the span decorator.
func minePass(ctx *runCtx, in *mineInput, opts *convoy.Options, traceID *int32) ([]mineCall, error) {
	var calls []mineCall
	for i, s := range in.sets {
		for _, p := range s.grid {
			store := in.stores[i]
			var root int32
			if traceID != nil {
				*traceID++
				root = ctx.tr.begin(ctx.tr.name("core.mine"), 0, *traceID)
				store = &tracedStore{
					Store: store, tr: ctx.tr, parent: root, trace: *traceID,
					snapshot: ctx.tr.name("store.snapshot"), fetch: ctx.tr.name("store.fetch"),
				}
			}
			start := time.Now()
			res, err := convoy.Mine(store, p, opts)
			took := time.Since(start)
			if traceID != nil {
				ctx.tr.end(root)
			}
			if err != nil {
				return nil, fmt.Errorf("mine %s %+v: %w", s.spec.Name, p, err)
			}
			calls = append(calls, mineCall{took: took, res: res})
		}
	}
	return calls, nil
}

// resultsSHA hashes a pass's convoys in their canonical form, grid point
// by grid point: two passes with the same hash mined byte-identical sets.
func resultsSHA(calls []mineCall) string {
	h := sha256.New()
	for i, c := range calls {
		fmt.Fprintf(h, "#%d\n%s", i, minetest.Canonical(append([]model.Convoy(nil), c.res.Convoys...)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func passTime(calls []mineCall) time.Duration {
	var d time.Duration
	for _, c := range calls {
		d += c.took
	}
	return d
}

func runMine(ctx *runCtx) error {
	kind := experiments.StoreMem
	if ctx.workload == "mine-lsmt" {
		kind = experiments.StoreLSMT
	}
	rep := ctx.rep
	n := 0
	in, err := timedSetup(rep,
		func() (*mineInput, error) { n++; return setupMine(ctx, kind, n) },
		func(in *mineInput) { in.close() })
	if err != nil {
		return err
	}
	defer in.close()
	ctx.phase("set up")
	for _, s := range in.sets {
		rep.info["points."+s.spec.Name] = s.points
	}
	rep.info["mines_per_pass"] = len(in.sets[0].grid) + len(in.sets[1].grid)

	// Warm-up pass; its results are the reference every later pass must
	// reproduce.
	warm, err := minePass(ctx, in, nil, nil)
	if !rep.op(err == nil, "warm-up pass: %v", err) {
		return nil
	}
	want := resultsSHA(warm)
	rep.info["results_sha"] = want
	fmt.Fprintf(os.Stderr, "# results_sha: %s\n", want)

	// Gate: the disk store mines exactly what the in-memory store mines.
	if kind != experiments.StoreMem {
		mem := &mineInput{sets: in.sets}
		for _, s := range in.sets {
			mem.stores = append(mem.stores, convoy.NewMemStore(s.ds))
		}
		ref, err := minePass(ctx, mem, nil, nil)
		if rep.op(err == nil, "in-memory reference pass: %v", err) {
			got := resultsSHA(ref)
			rep.op(got == want, "%s results %s differ from mine-mem's %s", ctx.workload, want, got)
		}
	}
	// Gate: k/2-hop equals VCoDA* on each dataset's middle grid point.
	vcodaGain, err := crossCheckVCoDAStar(ctx, in, warm)
	if err != nil {
		return err
	}

	ctx.phase("warmed up, results cross-checked")
	if ctx.traced {
		return traceMine(ctx, in, want, vcodaGain)
	}

	// The disk store no longer needs the generated datasets in memory.
	if kind != experiments.StoreMem {
		for i := range in.sets {
			in.sets[i].ds = nil
		}
	}
	runtime.GC()
	debug.FreeOSMemory()
	resetSelfPeakRSS()

	var sweeps []float64 // seconds per 36-mine pass
	cpu0 := selfCPU()
	for start := time.Now(); len(sweeps) < 2 || time.Since(start) < ctx.seconds; {
		calls, err := minePass(ctx, in, nil, nil)
		rep.attempted += int64(len(warm)) // one operation per Mine call
		if err != nil {
			rep.fail("pass %d: %v", len(sweeps), err)
			return nil
		}
		sweeps = append(sweeps, passTime(calls).Seconds())
		got := resultsSHA(calls)
		rep.op(got == want, "pass %d mined %s, warm-up mined %s", len(sweeps), got, want)
	}
	cpu := selfCPU() - cpu0
	passes := len(sweeps)
	sweep := median(sweeps)

	// Latency is the typical pass; throughput rests on the fastest one, the
	// pass a shared box's other tenants disturbed least.
	rep.set("points_per_s", float64(in.pointsPerPass())/slices.Min(sweeps), passes)
	rep.set("latency_p50_ms", sweep*1e3, passes)
	rep.set("cpu_s_per_mpoint", cpu.Seconds()/(float64(in.pointsPerPass())*float64(passes)/1e6), passes)
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", rss, 1)
	rep.info["passes"] = passes
	rep.info["sweeps_s"] = sweeps
	fmt.Fprintf(os.Stderr, "# sweep_s (median 36-mine pass): %.4f over %d passes\n", sweep, passes)
	return nil
}

// crossCheckVCoDAStar mines each dataset's middle grid point with VCoDA*
// and requires the same convoys. It returns VCoDA* time ÷ k/2-hop time
// summed over the datasets (the paper's Fig 7a/b ratio).
func crossCheckVCoDAStar(ctx *runCtx, in *mineInput, warm []mineCall) (float64, error) {
	var star, hop time.Duration
	off := 0
	for i, s := range in.sets {
		mid := len(s.grid) / 2
		res, err := convoy.Mine(in.stores[i], s.grid[mid], &convoy.Options{Algorithm: convoy.VCoDAStar})
		if ctx.rep.op(err == nil, "VCoDA* on %s: %v", s.spec.Name, err) {
			ref := warm[off+mid].res
			same := minetest.Canonical(append([]model.Convoy(nil), res.Convoys...)) ==
				minetest.Canonical(append([]model.Convoy(nil), ref.Convoys...))
			ctx.rep.op(same, "k/2-hop and VCoDA* disagree on %s %+v", s.spec.Name, s.grid[mid])
			star += res.Duration
			hop += ref.Duration
		}
		off += len(s.grid)
	}
	if hop == 0 {
		return 0, nil
	}
	return star.Seconds() / hop.Seconds(), nil
}

// tracedStore records a span around every store call a miner makes. With
// Options.Workers = 1 the calls of one Mine are sequential, so its self
// time is exactly the root span minus these.
type tracedStore struct {
	storage.Store
	tr              *tracer
	parent          int32
	trace           int32
	snapshot, fetch nameID
}

func (s *tracedStore) Snapshot(t int32) ([]model.ObjPos, error) {
	id := s.tr.begin(s.snapshot, s.parent, s.trace)
	out, err := s.Store.Snapshot(t)
	s.tr.end(id)
	return out, err
}

func (s *tracedStore) Fetch(t int32, oids model.ObjSet) ([]model.ObjPos, error) {
	id := s.tr.begin(s.fetch, s.parent, s.trace)
	out, err := s.Store.Fetch(t, oids)
	s.tr.end(id)
	return out, err
}

// traceMine is the traced run of a mining workload: rounds of a traced
// single-worker pass, an untraced single-worker pass and an untraced
// default pass, from which the per-layer metrics follow.
func traceMine(ctx *runCtx, in *mineInput, want string, vcodaGain float64) error {
	rep := ctx.rep
	w1 := &convoy.Options{Workers: 1}
	var traced, plain, pooled []float64
	var traceID int32
	var last []mineCall
	var layers map[string]layerTime
	var allocs, allocBytes uint64
	ioBefore := make([]storage.IOStats, len(in.stores))

	rounds := 0
	for start := time.Now(); rounds < ctx.sc.TraceRounds || time.Since(start) < ctx.seconds; rounds++ {
		for i, st := range in.stores {
			ioBefore[i] = st.Stats().Snapshot()
		}
		ctx.tr.reset()
		calls, err := minePass(ctx, in, w1, &traceID)
		if !rep.op(err == nil, "traced pass: %v", err) {
			return nil
		}
		rep.op(resultsSHA(calls) == want, "traced pass mined different convoys")
		traced = append(traced, passTime(calls).Seconds())
		last, layers = calls, ctx.tr.byName()

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		calls, err = minePass(ctx, in, w1, nil)
		runtime.ReadMemStats(&m1)
		if !rep.op(err == nil, "single-worker pass: %v", err) {
			return nil
		}
		allocs, allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		plain = append(plain, passTime(calls).Seconds())

		calls, err = minePass(ctx, in, nil, nil)
		if !rep.op(err == nil, "default pass: %v", err) {
			return nil
		}
		pooled = append(pooled, passTime(calls).Seconds())
	}

	rep.set("core.sweep_s", median(pooled), rounds)
	rep.set("core.sweep_w1_s", layers["core.mine"].total.Seconds(), 1)
	rep.set("core.self_s", layers["core.mine"].self.Seconds(), 1)
	rep.set("store.snapshot_s", layers["store.snapshot"].total.Seconds(), 1)
	rep.set("store.fetch_s", layers["store.fetch"].total.Seconds(), 1)
	rep.set("store.snapshot_calls", float64(layers["store.snapshot"].calls), 1)
	rep.set("store.fetch_calls", float64(layers["store.fetch"].calls), 1)
	rep.set("trace.overhead_frac", median(traced)/median(plain)-1, rounds)
	rep.set("pool.speedup", median(plain)/median(pooled), rounds)
	rep.set("core.allocs_per_pass", float64(allocs), 1)
	rep.set("core.alloc_mb_per_pass", float64(allocBytes)/(1<<20), 1)
	rep.set("core.gain_over_vcodastar", vcodaGain, 1)

	// Phase times and pruning counters, summed over the last traced pass
	// from the public per-run report.
	var bench, cand, hwmt, merge, extend, validate time.Duration
	var benchPts, hops, preval, convoys int
	var pointsRead int64
	for _, c := range last {
		r := c.res.K2Hop
		bench += r.BenchmarkTime
		cand += r.CandidateTime
		hwmt += r.HWMTTime
		merge += r.MergeTime
		extend += r.ExtendRight + r.ExtendLeft
		validate += r.ValidateTime
		benchPts += r.BenchmarkPoints
		hops += r.HopWindows
		preval += r.PreValidation
		convoys += len(c.res.Convoys)
		pointsRead += c.res.PointsProcessed
	}
	rep.set("core.benchmark_ms", ms(bench), 1)
	rep.set("core.candidates_ms", ms(cand), 1)
	rep.set("core.hwmt_ms", ms(hwmt), 1)
	rep.set("core.merge_ms", ms(merge), 1)
	rep.set("core.extend_ms", ms(extend), 1)
	rep.set("core.validate_ms", ms(validate), 1)
	rep.set("core.benchmark_points", float64(benchPts), 1)
	rep.set("core.hop_windows", float64(hops), 1)
	rep.set("core.prevalidation", float64(preval), 1)
	rep.set("core.convoys", float64(convoys), 1)
	rep.set("store.points_read", float64(pointsRead), 1)
	rep.set("store.points_read_frac", float64(pointsRead)/float64(in.pointsPerPass()), 1)

	if ctx.workload == "mine-lsmt" {
		return traceDiskStores(ctx, in, ioBefore)
	}
	return nil
}

// traceDiskStores reports the LSM engine's own counters over the last
// round, and one sweep over the B+tree engine for the paper's Fig 7c
// contrast.
func traceDiskStores(ctx *runCtx, in *mineInput, ioBefore []storage.IOStats) error {
	rep := ctx.rep
	var io storage.IOStats
	var rs lsm.ReadStats
	var tables int
	var disk, points int64
	for i, st := range in.stores {
		now := st.Stats().Snapshot()
		io.BytesRead += now.BytesRead - ioBefore[i].BytesRead
		io.Seeks += now.Seeks - ioBefore[i].Seeks
		io.PointsScanned += now.PointsScanned - ioBefore[i].PointsScanned
		db, ok := st.(*lsm.DB)
		if !ok {
			return fmt.Errorf("store %d is %T, not *lsm.DB", i, st)
		}
		r := db.ReadStats()
		rs.BlockCacheHits += r.BlockCacheHits
		rs.BlockCacheMisses += r.BlockCacheMisses
		rs.BloomHits += r.BloomHits
		rs.BloomMisses += r.BloomMisses
		tables += db.NumTables()
		n, err := dirBytes(in.dirs[i])
		if err != nil {
			return err
		}
		disk += n
		points += int64(in.sets[i].points)
	}
	rep.set("lsm.bytes_read", float64(io.BytesRead), 1)
	rep.set("lsm.seeks", float64(io.Seeks), 1)
	rep.set("lsm.points_scanned", float64(io.PointsScanned), 1)
	rep.set("lsm.block_cache_hit_rate", rate(rs.BlockCacheHits, rs.BlockCacheMisses), 1)
	rep.set("lsm.bloom_hit_rate", rate(rs.BloomHits, rs.BloomMisses), 1)
	rep.set("lsm.tables", float64(tables), 1)
	rep.set("lsm.write_dataset_s", in.writeDataset.Seconds(), 1)
	rep.set("lsm.disk_bytes_per_point", float64(disk)/float64(points), 1)

	rel := &mineInput{sets: in.sets}
	var relDisk int64
	var relWrite time.Duration
	for i, s := range in.sets {
		path := filepath.Join(ctx.workDir, fmt.Sprintf("table-%d.k2r", i))
		start := time.Now()
		if err := relational.WriteDataset(path, s.ds, nil); err != nil {
			return err
		}
		relWrite += time.Since(start)
		st, err := relational.Open(path, nil)
		if err != nil {
			return err
		}
		defer st.Close()
		rel.stores = append(rel.stores, st)
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		relDisk += fi.Size()
	}
	calls, err := minePass(ctx, rel, nil, nil)
	if rep.op(err == nil, "k2-RDBMS pass: %v", err) {
		rep.set("relational.sweep_s", passTime(calls).Seconds(), 1)
	}
	rep.set("relational.write_dataset_s", relWrite.Seconds(), 1)
	rep.set("relational.disk_bytes_per_point", float64(relDisk)/float64(points), 1)
	return nil
}

func rate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

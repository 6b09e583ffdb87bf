package main

import (
	"fmt"
	"math/rand"

	convoy "repro"
	"repro/internal/datagen/brinkhoff"
	"repro/internal/datagen/tdrive"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/storage"
)

// Every input is made here from -seed. The program under test only ever
// sees the generated datasets, request bodies and log files.

// subSeed derives an independent seed per input from the run's seed.
func subSeed(seed int64, stream int) int64 { return seed*1000003 + int64(stream) }

// mineDataset is one dataset of the mining sweep with its parameter grid.
type mineDataset struct {
	spec   experiments.DatasetSpec
	ds     *model.Dataset
	points int
	grid   []convoy.Params
}

// genMineDatasets builds the two datasets of the sweep: the T-Drive and
// Brinkhoff stand-ins of internal/experiments with their generator seeds
// taken from seed, and the paper's grid on each: six k values × three
// eps values at the dataset's default m.
func genMineDatasets(sc scale, seed int64) []mineDataset {
	tp := tdrive.DefaultParams(subSeed(seed, 1))
	tp.Taxis, tp.Ticks = sc.TDriveTaxis, int32(sc.TDriveTicks)
	bp := brinkhoff.DefaultParams(subSeed(seed, 2))
	bp.GridW, bp.GridH = sc.BrinkGridW, sc.BrinkGridH
	bp.MaxTime, bp.ObjBegin, bp.ObjPerTick = int32(sc.BrinkMaxTime), sc.BrinkObjBegin, sc.BrinkObjPerTick
	sets := []mineDataset{
		{spec: experiments.TDriveSpec(), ds: tdrive.Generate(tp)},
		{spec: experiments.BrinkhoffSpec(), ds: brinkhoff.Generate(bp)},
	}
	for i := range sets {
		s := &sets[i]
		s.points = s.ds.NumPoints()
		for _, k := range s.spec.Ks(s.ds) {
			for _, f := range []float64{0.5, 1, 1.5} {
				s.grid = append(s.grid, convoy.Params{M: s.spec.M, K: k, Eps: f * s.spec.Eps})
			}
		}
	}
	return sets
}

// feedInput is one live feed: its ticks and the K2BI request bodies that
// carry them.
type feedInput struct {
	name    string
	pattern convoy.Pattern
	class   string // moving, parked, mc or flock
	ticks   [][]model.ObjPos

	bodies      [][]byte
	bodyPoints  []int64
	bodyMaxTick []int32
}

func (f *feedInput) url(base string) string {
	return base + "/v1/feeds/" + f.name + "/ingest?pattern=" + string(f.pattern)
}

// genCityTicks simulates Brinkhoff road traffic in a space×space area and
// returns the positions per tick. Half the spawns are platoons of four, so
// there are convoys to find.
func genCityTicks(seed int64, grid int, space float64, ticks, objBegin, objPerTick int) [][]model.ObjPos {
	ds := brinkhoff.Generate(brinkhoff.Params{
		Seed: seed, GridW: grid, GridH: grid, SpaceW: space, SpaceH: space,
		MaxTime: int32(ticks), ObjBegin: objBegin, ObjPerTick: objPerTick,
		Classes: 3, PlatoonFraction: 0.5, PlatoonSize: 4, PlatoonSpread: 20, Jitter: 10,
	})
	out := make([][]model.ObjPos, ticks)
	for t := range out {
		out[t] = ds.Snapshot(int32(t))
	}
	return out
}

// park makes a low-churn feed out of a moving one: at every tick each
// object re-reports its previous position with probability stay, so about
// 1-stay of the positions change per tick. This is the one input property
// incremental DBSCAN depends on.
func park(ticks [][]model.ObjPos, stay float64, rng *rand.Rand) [][]model.ObjPos {
	out := make([][]model.ObjPos, len(ticks))
	prev := map[int32]model.ObjPos{}
	for t, snap := range ticks {
		cur := make([]model.ObjPos, len(snap))
		next := make(map[int32]model.ObjPos, len(snap))
		for i, p := range snap {
			if old, ok := prev[p.OID]; ok && rng.Float64() < stay {
				p = old
			}
			cur[i] = p
			next[p.OID] = p
		}
		out[t], prev = cur, next
	}
	return out
}

// encodeBodies cuts a feed's ticks into request bodies of batchTicks ticks
// each. With swap > 0, adjacent ticks inside a body are swapped with that
// probability: displacement 1, which any reorder window ≥ 1 puts back.
func (f *feedInput) encodeBodies(batchTicks int, swap float64, rng *rand.Rand) error {
	for off := 0; off < len(f.ticks); off += batchTicks {
		end := min(off+batchTicks, len(f.ticks))
		order := make([]int, 0, batchTicks)
		for t := off; t < end; t++ {
			order = append(order, t)
		}
		for i := 0; i+1 < len(order); i += 2 {
			if swap > 0 && rng.Float64() < swap {
				order[i], order[i+1] = order[i+1], order[i]
			}
		}
		var body []byte
		var points int64
		for _, t := range order {
			var err error
			if body, err = storage.AppendBatchFrame(body, int32(t), f.ticks[t]); err != nil {
				return err
			}
			points += int64(len(f.ticks[t]))
		}
		f.bodies = append(f.bodies, body)
		f.bodyPoints = append(f.bodyPoints, points)
		f.bodyMaxTick = append(f.bodyMaxTick, int32(end-1))
	}
	return nil
}

// genIngestFeeds builds serve-ingest's feeds: moving and parked convoy
// feeds, a moving-cluster feed and a (small: flocks cost ~30× a convoy per
// point) flock feed, in a 6000×6000 city on a 16×16 road grid.
func genIngestFeeds(sc scale, seed int64) ([]*feedInput, error) {
	var feeds []*feedInput
	add := func(class string, pat convoy.Pattern, n, objBegin, objPerTick int) {
		for i := 0; i < n; i++ {
			stream := 10 + len(feeds)
			ticks := genCityTicks(subSeed(seed, stream), 16, 6000, sc.IngestTicks, objBegin, objPerTick)
			if class == "parked" {
				ticks = park(ticks, sc.IngestParkedStay, rand.New(rand.NewSource(subSeed(seed, 100+stream))))
			}
			feeds = append(feeds, &feedInput{
				name: fmt.Sprintf("%s-%d", class, i), pattern: pat, class: class, ticks: ticks,
			})
		}
	}
	add("moving", convoy.PatternConvoy, sc.IngestMovingFeeds, sc.IngestObjBegin, sc.IngestObjPerTick)
	add("parked", convoy.PatternConvoy, sc.IngestParkedFeeds, sc.IngestObjBegin, sc.IngestObjPerTick)
	add("mc", convoy.PatternMC, sc.IngestMCFeeds, sc.IngestObjBegin, sc.IngestObjPerTick)
	add("flock", convoy.PatternFlock, sc.IngestFlockFeeds, sc.IngestFlockObjBegin, sc.IngestFlockObjPerTick)
	for _, f := range feeds {
		if err := f.encodeBodies(sc.IngestBatchTicks, 0, nil); err != nil {
			return nil, err
		}
	}
	return feeds, nil
}

// genLiveFeeds builds serve-mixed's live convoy feeds (the shape
// cmd/loadgen drives: a 2000×2000 city on an 8×8 grid) with adjacent-tick
// swaps inside each body.
func genLiveFeeds(sc scale, seed int64, ticks int) ([]*feedInput, error) {
	var feeds []*feedInput
	for i := 0; i < sc.MixedLiveFeeds; i++ {
		f := &feedInput{
			name: fmt.Sprintf("live-%d", i), pattern: convoy.PatternConvoy, class: "live",
			ticks: genCityTicks(subSeed(seed, 20+i), 8, 2000, ticks, sc.MixedLiveObjBegin, sc.MixedLiveObjPerTick),
		}
		rng := rand.New(rand.NewSource(subSeed(seed, 120+i)))
		if err := f.encodeBodies(sc.MixedBatchTicks, sc.MixedSwap, rng); err != nil {
			return nil, err
		}
		feeds = append(feeds, f)
	}
	return feeds, nil
}

// genLogRecords makes n closed-convoy records as a long-running server
// would have logged them: feeds hist-0…, sizes 3–12 drawn from oids object
// ids, durations 8–60, End rising through endSpan ticks with some jitter.
func genLogRecords(seed int64, n, feeds, oids, endSpan int) []storage.LoggedConvoy {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]storage.LoggedConvoy, n)
	for i := range recs {
		size := 3 + rng.Intn(10)
		ids := make([]int32, 0, size)
		for len(ids) < size {
			ids = append(ids, int32(rng.Intn(oids)))
		}
		dur := 8 + rng.Intn(53)
		end := 60 + int(float64(i)/float64(n)*float64(endSpan)) + rng.Intn(50)
		recs[i] = storage.LoggedConvoy{
			Feed: fmt.Sprintf("hist-%d", rng.Intn(feeds)),
			Convoy: model.Convoy{
				Objs: model.NewObjSet(ids...), Start: int32(end - dur + 1), End: int32(end),
			},
		}
	}
	return recs
}

// writeLog writes records as a convoy log file, as convoyd's persist path
// would have.
func writeLog(path string, recs []storage.LoggedConvoy) error {
	l, err := storage.CreateConvoyLog(path)
	if err != nil {
		return err
	}
	for _, r := range recs {
		if err := l.AppendRecord(r); err != nil {
			l.Close()
			return err
		}
	}
	if err := l.Sync(); err != nil {
		l.Close()
		return err
	}
	return l.Close()
}

// archiveQuery is one historical query of the seeded stream, usable both
// over HTTP and against an in-process archive.
type archiveQuery struct {
	shape           string // time, object or convoys
	from, to        int32
	oid             int32
	minSize, minDur int
}

func (q archiveQuery) url(base string) string {
	switch q.shape {
	case "time":
		return fmt.Sprintf("%s/v1/query/time?from=%d&to=%d&limit=100", base, q.from, q.to)
	case "object":
		return fmt.Sprintf("%s/v1/query/object?oid=%d&limit=100", base, q.oid)
	default:
		return fmt.Sprintf("%s/v1/query/convoys?min_size=%d&min_dur=%d&limit=100", base, q.minSize, q.minDur)
	}
}

// genQueries makes n queries rotating the three shapes: a random 500-tick
// window, a random object, a random size/duration floor.
func genQueries(seed int64, n, oids, endSpan int) []archiveQuery {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]archiveQuery, n)
	for i := range qs {
		switch i % 3 {
		case 0:
			from := int32(rng.Intn(max(endSpan-500, 1)))
			qs[i] = archiveQuery{shape: "time", from: from, to: from + 499}
		case 1:
			qs[i] = archiveQuery{shape: "object", oid: int32(rng.Intn(oids))}
		default:
			qs[i] = archiveQuery{shape: "convoys", minSize: 3 + rng.Intn(10), minDur: 8 + rng.Intn(53)}
		}
	}
	return qs
}

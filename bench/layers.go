package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cmc"
	"repro/internal/dbscan"
	"repro/internal/flock"
	"repro/internal/model"
	"repro/internal/movingcluster"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/storage/archive"
)

// The traced run of a serving workload replays the same generated inputs
// in-process through each layer's public functions, one span per call.
// spanned runs fn inside a span and returns how long it took.
func (ctx *runCtx) spanned(name string, trace int32, fn func()) time.Duration {
	id := ctx.tr.begin(ctx.tr.name(name), 0, trace)
	start := time.Now()
	fn()
	took := time.Since(start)
	ctx.tr.end(id)
	return took
}

// traceWire measures the K2BI codec and the server's accept path (decode,
// admit, enqueue) on one feed's bodies.
func traceWire(ctx *runCtx, f *feedInput) error {
	rep := ctx.rep
	var points, bytesOut int64
	var encode, decode time.Duration
	var encErr, decErr error
	for b, body := range f.bodies {
		points += f.bodyPoints[b]
		bytesOut += int64(len(body))
	}
	// Encode every tick again, one span per body's worth of ticks.
	batch := len(f.ticks) / len(f.bodies)
	for off := 0; off < len(f.ticks); off += batch {
		encode += ctx.spanned("batchframe.encode", int32(off), func() {
			var buf []byte
			for t := off; t < min(off+batch, len(f.ticks)); t++ {
				if buf, encErr = storage.AppendBatchFrame(buf, int32(t), f.ticks[t]); encErr != nil {
					return
				}
			}
		})
	}
	if encErr != nil {
		return encErr
	}
	rd := storage.NewBatchFrameReader(bytes.NewReader(nil))
	var pos []model.ObjPos
	for b, body := range f.bodies {
		decode += ctx.spanned("batchframe.decode", int32(b), func() {
			rd.Reset(bytes.NewReader(body))
			for {
				_, out, err := rd.Next(pos[:0])
				pos = out
				if err == io.EOF {
					return
				}
				if err != nil {
					decErr = err
					return
				}
			}
		})
	}
	if decErr != nil {
		return decErr
	}
	rep.set("batchframe.encode_ns_per_point", float64(encode)/float64(points), len(f.bodies))
	rep.set("batchframe.decode_ns_per_point", float64(decode)/float64(points), len(f.bodies))
	rep.set("batchframe.bytes_per_point", float64(bytesOut)/float64(points), 1)

	// The accept path, on an in-process server: the shard actor mines in
	// the background, the span covers only what the client waits for. At
	// most one queue's worth of bodies, so that no accept blocks.
	srv, err := server.New(server.Config{
		Params: patternParams(ctx.sc).Params, Shards: ctx.sc.ServeShards,
		QueueLen: ctx.sc.ServeQueue, Window: int32(ctx.sc.ServeWindow),
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	var accept []float64
	for b, body := range f.bodies[:min(len(f.bodies), ctx.sc.ServeQueue/2)] {
		req := httptest.NewRequest(http.MethodPost, "/v1/feeds/accept/ingest", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/x-k2bi")
		rec := httptest.NewRecorder()
		took := ctx.spanned("server.accept", int32(b), func() { h.ServeHTTP(rec, req) })
		if !rep.op(rec.Code == http.StatusAccepted, "in-process accept: status %d", rec.Code) {
			return nil
		}
		accept = append(accept, us(took))
	}
	rep.set("server.accept_us_per_batch", median(accept), len(accept))
	return nil
}

// firstOfClass returns the first feed of a class, or nil.
func firstOfClass(feeds []*feedInput, class string) *feedInput {
	for _, f := range feeds {
		if f.class == class {
			return f
		}
	}
	return nil
}

// traceMiners replays one feed per class through the clustering and
// streaming-miner layers the shard actor runs per tick.
func traceMiners(ctx *runCtx, feeds []*feedInput) error {
	rep, sc := ctx.rep, ctx.sc
	n := sc.IngestTraceTicks
	var fallbacks int64
	for _, class := range []string{"moving", "parked"} {
		f := firstOfClass(feeds, class)
		if f == nil {
			return fmt.Errorf("no %s feed", class)
		}
		inc, err := dbscan.NewIncremental(sc.ServeEps, sc.ServeM)
		if err != nil {
			return err
		}
		mn := cmc.NewMiner(sc.ServeM, sc.ServeK)
		var incUS, scratchUS, cmcUS []float64
		closed := 0
		for t := 0; t < n; t++ {
			var clusters []model.ObjSet
			incUS = append(incUS, us(ctx.spanned("dbscan.inc_step."+class, int32(t), func() {
				clusters = inc.Step(f.ticks[t])
			})))
			scratchUS = append(scratchUS, us(ctx.spanned("dbscan.scratch_step."+class, int32(t), func() {
				dbscan.Cluster(f.ticks[t], sc.ServeEps, sc.ServeM)
			})))
			cmcUS = append(cmcUS, us(ctx.spanned("cmc.step."+class, int32(t), func() {
				mn.Step(int32(t), clusters)
			})))
			closed += len(mn.Drain())
		}
		st := inc.Stats()
		rep.set("dbscan.inc_step_us."+class, median(incUS), n)
		rep.set("dbscan.scratch_step_us."+class, median(scratchUS), n)
		rep.set("dbscan.grid_queries_per_tick."+class, float64(st.GridQueries)/float64(n), 1)
		rep.set("dbscan.recomputed_per_tick."+class, float64(st.Recomputed)/float64(n), 1)
		rep.set("cmc.step_us."+class, median(cmcUS), n)
		fallbacks += st.Fallbacks
		if class == "moving" {
			rep.set("cmc.closed_per_tick", float64(closed)/float64(n), 1)
		}
	}
	rep.set("dbscan.fallbacks", float64(fallbacks), 1)

	pp := patternParams(sc)
	if f := firstOfClass(feeds, "flock"); f != nil {
		mn := flock.NewMiner(flock.Config{M: pp.M, K: pp.K, R: pp.Eps})
		var step []float64
		for t := 0; t < n; t++ {
			step = append(step, us(ctx.spanned("flock.step", int32(t), func() { mn.Step(int32(t), f.ticks[t]) })))
		}
		rep.set("flock.step_us", median(step), n)
	}
	if f := firstOfClass(feeds, "mc"); f != nil {
		mn := movingcluster.NewMiner(movingcluster.Config{M: pp.M, Eps: pp.Eps, Theta: 0.5, K: pp.K})
		var step []float64
		for t := 0; t < n; t++ {
			step = append(step, us(ctx.spanned("movingcluster.step", int32(t), func() { mn.Step(int32(t), f.ticks[t]) })))
		}
		rep.set("movingcluster.step_us", median(step), n)
	}
	return nil
}

// traceStorage measures the convoy log and the archive on recs: append,
// sync and scan of the log; backfill, incremental AddBatch, flush and the
// three query shapes of the archive.
func traceStorage(ctx *runCtx, recs []storage.LoggedConvoy) error {
	rep, sc := ctx.rep, ctx.sc
	dir := filepath.Join(ctx.workDir, "layers")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Convoy log: encode + append per record, then one sync, then a scan.
	logPath := filepath.Join(dir, "log.k2cl")
	l, err := storage.CreateConvoyLog(logPath)
	if err != nil {
		return err
	}
	var appendErr error
	appendTook := ctx.spanned("convoylog.append", 0, func() {
		for _, r := range recs {
			enc, err := storage.EncodeLoggedRecord(r)
			if err == nil {
				err = l.AppendEncoded(enc)
			}
			if err != nil {
				appendErr = err
				return
			}
		}
	})
	if appendErr != nil {
		l.Close()
		return appendErr
	}
	var syncErr error
	syncTook := ctx.spanned("convoylog.sync", 0, func() { syncErr = l.Sync() })
	size := l.Offset()
	if err := errors.Join(syncErr, l.Close()); err != nil {
		return err
	}
	scanned := 0
	var scanErr error
	scanTook := ctx.spanned("convoylog.scan", 0, func() {
		_, scanErr = storage.ScanConvoyLog(logPath, func(storage.LoggedConvoy) error { scanned++; return nil })
	})
	if scanErr != nil {
		return scanErr
	}
	rep.op(scanned == len(recs), "log scan returned %d of %d records", scanned, len(recs))
	rep.set("convoylog.append_ns_per_record", float64(appendTook)/float64(len(recs)), len(recs))
	rep.set("convoylog.bytes_per_record", float64(size)/float64(len(recs)), 1)
	rep.set("convoylog.sync_ms", ms(syncTook), 1)
	rep.set("convoylog.scan_s", scanTook.Seconds(), 1)

	// Archive: backfill from the log (what a restart on an empty archive
	// directory pays), then the seeded query stream against it.
	var ar *archive.Archive
	var backfilled int64
	var openErr error
	backfillTook := ctx.spanned("archive.backfill", 0, func() {
		ar, backfilled, _, openErr = archive.OpenAndBackfill(filepath.Join(dir, "archive"), logPath, nil)
	})
	if openErr != nil {
		return openErr
	}
	defer ar.Close()
	rep.op(backfilled == int64(len(recs)), "backfill indexed %d of %d records", backfilled, len(recs))
	rep.set("archive.backfill_s", backfillTook.Seconds(), 1)
	disk, err := dirBytes(filepath.Join(dir, "archive"))
	if err != nil {
		return err
	}
	rep.set("archive.disk_bytes_per_record", float64(disk)/float64(len(recs)), 1)

	byShape := map[string][]float64{}
	var results, entries int64
	queries := genQueries(subSeed(ctx.seed, 4), 600, sc.MixedLogOIDs, sc.MixedLogEndSpan)
	for i, q := range queries {
		var res archive.Result
		var qerr error
		took := ctx.spanned("archive.query_"+q.shape, int32(i), func() {
			aq := archive.Query{Limit: 100}
			switch q.shape {
			case "time":
				res, qerr = ar.QueryTime(q.from, q.to, aq)
			case "object":
				res, qerr = ar.QueryObject(q.oid, aq)
			default:
				aq.MinSize, aq.MinDur = q.minSize, q.minDur
				res, qerr = ar.QueryConvoys(aq)
			}
		})
		if !rep.op(qerr == nil, "in-process %s query: %v", q.shape, qerr) {
			continue
		}
		byShape[q.shape] = append(byShape[q.shape], us(took))
		results += int64(len(res.Records))
		entries += int64(res.Scanned)
	}
	for shape, xs := range byShape {
		rep.set("archive.query_"+shape+"_us", median(xs), len(xs))
	}
	if results > 0 {
		rep.set("archive.entries_scanned_per_result", float64(entries)/float64(results), 1)
	}

	// Incremental indexing, as the serving path does it: AddBatch in the
	// persist tick's batches on a fresh archive, then one flush.
	fresh, err := archive.Open(filepath.Join(dir, "fresh"), nil)
	if err != nil {
		return err
	}
	defer fresh.Close()
	sample := recs[:min(len(recs), sc.AddBatchRecords)]
	var addErr error
	addTook := ctx.spanned("archive.addbatch", 0, func() {
		for off := 0; off < len(sample) && addErr == nil; off += 256 {
			addErr = fresh.AddBatch(sample[off:min(off+256, len(sample))])
		}
	})
	if addErr != nil {
		return addErr
	}
	var flushErr error
	flushTook := ctx.spanned("archive.flush", 0, func() { flushErr = fresh.Flush() })
	if flushErr != nil {
		return flushErr
	}
	rep.set("archive.addbatch_us_per_record", us(addTook)/float64(len(sample)), len(sample))
	rep.set("archive.flush_ms", ms(flushTook), 1)
	return nil
}

package main

import (
	"fmt"
	"time"
)

// scale holds every frozen size of the benchmark. "full" is calibrated for
// a 2-core box so that one run — set-up repeated setupReps times, warm-up,
// a measured phase of -seconds 10, correctness gates — stays near 25 s: the
// driver makes 4 + 22 runs per workload and all of them must fit 3420 s.
// "smoke" finishes every workload in under 3 s and exists for the tests.
type scale struct {
	Name string

	// Mining datasets: the T-Drive and Brinkhoff stand-ins at the sizes of
	// internal/experiments' Small (full) and Tiny (smoke) scales.
	TDriveTaxis, TDriveTicks                     int
	BrinkGridW, BrinkGridH                       int
	BrinkMaxTime, BrinkObjBegin, BrinkObjPerTick int
	// TraceRounds is the least number of (traced, single-worker, default)
	// pass triples a traced mining run makes.
	TraceRounds int

	// convoyd's mining and queueing flags, both serving workloads.
	ServeM, ServeK                       int
	ServeEps                             float64
	ServeShards, ServeQueue, ServeWindow int
	// IngestQueue is serve-ingest's per-shard queue, in bodies. It is kept
	// short so that back-pressure paces the two connections at the rate
	// the shards mine, and the flushes that end the measured phase find
	// little left to drain.
	IngestQueue int

	// serve-ingest: feeds per class, Brinkhoff spawn rates (ObjBegin
	// routes at tick 0, ObjPerTick after; half the spawns are platoons of
	// four), ticks generated per feed (the most a run can send), ticks the
	// traced run sends (fixed work, so its counts repeat), and the size of
	// the synthetic log its storage layers are measured on.
	IngestBatchTicks                                                      int
	IngestMovingFeeds, IngestParkedFeeds, IngestMCFeeds, IngestFlockFeeds int
	IngestObjBegin, IngestObjPerTick                                      int
	IngestFlockObjBegin, IngestFlockObjPerTick                            int
	IngestTicks, IngestTraceTicks                                         int
	IngestParkedStay                                                      float64
	IngestLogRecords                                                      int

	// serve-mixed: the convoy log the child restarts on, the live feeds,
	// and connection A's schedule.
	MixedLogRecords, MixedLogFeeds, MixedLogOIDs, MixedLogEndSpan int
	MixedLiveFeeds, MixedLiveObjBegin, MixedLiveObjPerTick        int
	MixedBatchTicks                                               int
	MixedBatchEvery                                               time.Duration // per live feed
	MixedQueryEvery                                               time.Duration
	MixedSwap                                                     float64 // share of adjacent tick pairs swapped in a body
	MixedWarmup                                                   time.Duration
	MixedPersistEvery                                             time.Duration
	// AddBatchRecords is how many records a traced serving run indexes
	// through archive.AddBatch.
	AddBatchRecords int
}

var scales = map[string]scale{
	"full": {
		Name:        "full",
		TDriveTaxis: 1200, TDriveTicks: 250,
		BrinkGridW: 24, BrinkGridH: 26,
		BrinkMaxTime: 300, BrinkObjBegin: 900, BrinkObjPerTick: 18,
		TraceRounds: 2,

		ServeM: 3, ServeK: 8, ServeEps: 40,
		ServeShards: 4, ServeQueue: 128, ServeWindow: 2,

		IngestQueue:       8,
		IngestBatchTicks:  8,
		IngestMovingFeeds: 4, IngestParkedFeeds: 2, IngestMCFeeds: 1, IngestFlockFeeds: 1,
		IngestObjBegin: 650, IngestObjPerTick: 14, // ≈ 1600 objects per tick
		IngestFlockObjBegin: 45, IngestFlockObjPerTick: 1, // ≈ 110
		IngestTicks: 480, IngestTraceTicks: 160,
		IngestParkedStay: 0.9,
		IngestLogRecords: 20000,

		MixedLogRecords: 200000, MixedLogFeeds: 8, MixedLogOIDs: 20000, MixedLogEndSpan: 100000,
		MixedLiveFeeds: 2, MixedLiveObjBegin: 130, MixedLiveObjPerTick: 3, // ≈ 330 objects per tick
		MixedBatchTicks:   4,
		MixedBatchEvery:   100 * time.Millisecond,
		MixedQueryEvery:   20 * time.Millisecond,
		MixedSwap:         0.1,
		MixedWarmup:       time.Second,
		MixedPersistEvery: 200 * time.Millisecond,
		AddBatchRecords:   20000,
	},
	"smoke": {
		Name:        "smoke",
		TDriveTaxis: 150, TDriveTicks: 120,
		BrinkGridW: 10, BrinkGridH: 10,
		BrinkMaxTime: 150, BrinkObjBegin: 120, BrinkObjPerTick: 3,
		TraceRounds: 1,

		ServeM: 3, ServeK: 8, ServeEps: 40,
		ServeShards: 4, ServeQueue: 128, ServeWindow: 2,

		IngestQueue:       8,
		IngestBatchTicks:  8,
		IngestMovingFeeds: 1, IngestParkedFeeds: 1, IngestMCFeeds: 1, IngestFlockFeeds: 1,
		IngestObjBegin: 40, IngestObjPerTick: 2,
		IngestFlockObjBegin: 20, IngestFlockObjPerTick: 1,
		IngestTicks: 40, IngestTraceTicks: 40,
		IngestParkedStay: 0.9,
		IngestLogRecords: 2000,

		MixedLogRecords: 2000, MixedLogFeeds: 8, MixedLogOIDs: 2000, MixedLogEndSpan: 2000,
		MixedLiveFeeds: 2, MixedLiveObjBegin: 40, MixedLiveObjPerTick: 2,
		MixedBatchTicks:   4,
		MixedBatchEvery:   100 * time.Millisecond,
		MixedQueryEvery:   20 * time.Millisecond,
		MixedSwap:         0.1,
		MixedWarmup:       200 * time.Millisecond,
		MixedPersistEvery: 100 * time.Millisecond,
		AddBatchRecords:   2000,
	},
}

func scaleByName(name string) (scale, error) {
	sc, ok := scales[name]
	if !ok {
		return scale{}, fmt.Errorf("unknown -scale %q (full or smoke)", name)
	}
	return sc, nil
}

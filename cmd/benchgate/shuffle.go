package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/qws"
)

// The shuffle suite isolates the engine's data-movement path: block
// reads, partition assignment, emit, frame sealing, shuffle and
// reducer-side assembly,
// with an identity reduce so no kernel time dilutes the measurement. The
// framed row is gated against absolute baselines: the framed row of
// BENCH_shuffle.json as committed before the per-point Pair engine was
// deleted (n=100000, d=6, 4 reducers, one-core container).
const shuffleNote = "identity reduce: the row times pure shuffle work, not skyline kernels; " +
	"shuffle_bytes are frame payload bytes (header + packed coords, no gob envelope); " +
	"gated against the committed pre-change framed row (records/s at most max_slowdown " +
	"below baseline, allocs/point at most baseline)"

// Committed pre-change framed-row baselines and the allowed slowdown.
const (
	baselineRecordsPerSec  = 3343153.2889273427
	baselineAllocsPerPoint = 0.00345
	shuffleMaxSlowdown     = 1.10
)

type shuffleRow struct {
	Path           string  `json:"path"`
	WallNS         int64   `json:"wall_ns"`
	RecordsPerSec  float64 `json:"records_per_sec"`
	ShuffleRecords int64   `json:"shuffle_records"`
	ShuffleBytes   int64   `json:"shuffle_bytes"`
	AllocsPerPoint float64 `json:"allocs_per_point"`
}

type shuffleReport struct {
	Timestamp              string     `json:"timestamp"`
	N                      int        `json:"n"`
	D                      int        `json:"d"`
	Reducers               int        `json:"reducers"`
	Runs                   int        `json:"runs"`
	Quick                  bool       `json:"quick"`
	Framed                 shuffleRow `json:"framed"`
	BaselineRecordsPerSec  float64    `json:"baseline_records_per_sec"`
	BaselineAllocsPerPoint float64    `json:"baseline_allocs_per_point"`
	MaxSlowdown            float64    `json:"max_slowdown"`
	Gated                  bool       `json:"gated"`
	Pass                   bool       `json:"pass"`
	Notes                  string     `json:"notes"`
}

// measureShuffle times fn best-of-runs, then takes one extra instrumented
// pass for the allocation count (GC fenced so only Mallocs from the run
// itself are attributed).
func measureShuffle(path string, n, runs int, fn func() (records, bytes int64)) shuffleRow {
	var recs, bytes int64
	wall := best(runs, func() { recs, bytes = fn() })

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)

	return shuffleRow{
		Path:           path,
		WallNS:         wall,
		RecordsPerSec:  float64(n) / (float64(wall) / float64(time.Second)),
		ShuffleRecords: recs,
		ShuffleBytes:   bytes,
		AllocsPerPoint: float64(after.Mallocs-before.Mallocs) / float64(n),
	}
}

func shuffleSuite(n, d, nodes, runs int, quick bool, out string) {
	fmt.Fprintf(os.Stderr, "benchgate: shuffle suite n=%d d=%d reducers=%d runs=%d\n", n, d, nodes, runs)
	data := qws.Dataset(2012, n, d)
	part, err := partition.New(partition.Angular, data, nodes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	// Map tasks read the set in the engine's usual split: a few chunks
	// per worker.
	input := mapreduce.SetSource(data, (n+4*nodes-1)/(4*nodes))
	ctx := context.Background()
	cfg := mapreduce.Config{Name: "shuffle-bench", Workers: nodes, Reducers: nodes}
	mapper := mapreduce.BlockMapperFunc(func(blk *points.Block, emit mapreduce.EmitPoint) error {
		for i := 0; i < blk.Len(); i++ {
			row := blk.Row(i)
			id, err := part.Assign(points.Point(row))
			if err != nil {
				return err
			}
			emit(id, row)
		}
		return nil
	})
	identity := mapreduce.KernelFolder(func(blk *points.Block) *points.Block { return blk })

	framed := func() (int64, int64) {
		res, err := mapreduce.Run(ctx, cfg, input, mapper, nil, identity)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate: framed shuffle failed:", err)
			os.Exit(2)
		}
		snap := res.Counters.Snapshot()
		return snap[mapreduce.CounterShuffle], snap[mapreduce.CounterShuffleBytes]
	}

	rep := shuffleReport{
		Timestamp:              time.Now().UTC().Format(time.RFC3339),
		N:                      n,
		D:                      d,
		Reducers:               nodes,
		Runs:                   runs,
		Quick:                  quick,
		BaselineRecordsPerSec:  baselineRecordsPerSec,
		BaselineAllocsPerPoint: baselineAllocsPerPoint,
		MaxSlowdown:            shuffleMaxSlowdown,
		Gated:                  !quick,
		Notes:                  shuffleNote,
	}
	rep.Framed = measureShuffle("block_frames", n, runs, framed)

	rep.Pass = true
	if !quick {
		if rep.Framed.RecordsPerSec*shuffleMaxSlowdown < baselineRecordsPerSec {
			rep.Pass = false
		}
		if rep.Framed.AllocsPerPoint > baselineAllocsPerPoint {
			rep.Pass = false
		}
	}
	r := rep.Framed
	fmt.Fprintf(os.Stderr, "  %-14s wall=%-12s records/s=%-12.0f shuffle_bytes=%-10d allocs/pt=%.5f\n",
		r.Path, time.Duration(r.WallNS), r.RecordsPerSec, r.ShuffleBytes, r.AllocsPerPoint)
	fmt.Fprintf(os.Stderr, "  baseline records/s=%.0f (floor %.0f), allocs/pt<=%.5f\n",
		baselineRecordsPerSec, baselineRecordsPerSec/shuffleMaxSlowdown, baselineAllocsPerPoint)

	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "benchgate: wrote %s\n", out)
	if !rep.Pass {
		fmt.Fprintln(os.Stderr, "benchgate: FAIL — framed shuffle slower than the baseline allows or allocates more per point")
		os.Exit(1)
	}
}

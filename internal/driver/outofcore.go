package driver

import (
	"context"
	"fmt"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/points"
	"repro/internal/skyline"
	"repro/internal/telemetry"
)

// This file is the out-of-core entry point and the merge every entry
// point ends in. Datasets that never fit in memory enter as chunk
// recipes (mapreduce.ChunkSource), the partitioning job streams one chunk
// at a time through the framed engine, and reducers fold frames under a
// byte budget. The merge runs as a multi-round schedule in the MRC mold
// (Goodrich et al., "Sorting, Searching, and Simulation in the MapReduce
// Framework"): each round's groups touch at most the memory budget, and
// rounds repeat until one group holds the global skyline; without a
// budget the schedule is one group in one round. Round count and
// per-round candidate bytes land in the flight recorder, matching the
// model's round-complexity accounting.

// defaultReducerBudget caps reducer memory at 1 GiB when the caller gave
// no budget — the paper-scale "commodity reducer" setting.
const defaultReducerBudget = 1 << 30

// ComputeStream runs the MapReduce skyline pipeline over a dataset that
// exists only as a chunk recipe: src is read one chunk per map task (and
// re-read on retry — ReadChunk must be pure), so a 10⁸-point input is
// never materialized. Reducers fold shuffle frames under
// opts.ReducerBudgetBytes (default 1 GiB), and the merge schedule packs
// its groups under the same budget.
//
// When opts.PartitionerOverride is nil the partitioner is fitted to the
// first chunk — a sample fit: partition quality (not correctness) depends
// on the chunk being representative, which holds for the synthetic
// generators whose chunks are i.i.d.
func ComputeStream(ctx context.Context, src mapreduce.ChunkSource, opts Options) (points.Set, *Stats, error) {
	opts = opts.withDefaults()
	budget := opts.ReducerBudgetBytes
	if budget <= 0 {
		budget = defaultReducerBudget
	}
	if src.Chunks() == 0 {
		return nil, nil, fmt.Errorf("driver: empty chunk source")
	}
	sample := points.NewBlock(0, 0)
	if err := src.ReadChunk(0, sample); err != nil {
		return nil, nil, fmt.Errorf("driver: sampling chunk 0: %w", err)
	}
	if sample.Len() == 0 {
		return nil, nil, fmt.Errorf("driver: chunk 0 is empty")
	}
	dim := sample.Dim()

	ctx, rootSpan := telemetry.StartSpan(ctx, fmt.Sprintf("skyline-stream:%s", opts.Scheme),
		telemetry.A("scheme", fmt.Sprint(opts.Scheme)),
		telemetry.A("chunks", src.Chunks()),
		telemetry.A("budget_bytes", budget))
	defer rootSpan.End()

	part, err := opts.partitioner(sample.ToSet())
	if err != nil {
		return nil, nil, err
	}
	sample = nil
	stats := newStats(opts, part)
	defer bridgeDominanceTests(opts.Metrics)()

	// ---- Job 1: Partitioning Job (chunked) ---------------------------
	res, err := partitionJob(ctx, fmt.Sprintf("%s-partitioning-stream", opts.Scheme), src, part, nil,
		opts.combiner(opts.blockKernel()), mapreduce.BudgetedFolder(dim, budget, opts.SpillDir, opts.Codec),
		opts, stats)
	if err != nil {
		return nil, nil, err
	}

	// ---- Job 2: multi-round budgeted merge schedule ------------------
	global, err := mergeBlocks(ctx, res.Blocks, dim, budget, opts, stats)
	if err != nil {
		return nil, nil, err
	}
	if reg := opts.Metrics; reg != nil {
		reg.Gauge("skyline_global_size").Set(float64(len(global)))
	}
	feedRecorder(ctx, opts, stats, global, res.Partitions)
	return global, stats, nil
}

// mergeBlocks is the Merging Job: it runs the merge schedule over a
// partitioning job's local skylines, taken in ascending partition order,
// under one "merge-schedule" span. budget ≤ 0 means unbudgeted.
func mergeBlocks(ctx context.Context, locals map[int]*points.Block, dim int, budget int64, opts Options, stats *Stats) (points.Set, error) {
	candidates := make([]*points.Block, 0, len(locals))
	for _, id := range sortedIDs(locals) {
		candidates = append(candidates, locals[id])
	}
	ctx, span := telemetry.StartSpan(ctx, "merge-schedule")
	global, err := mergeSchedule(ctx, candidates, dim, budget, opts, stats)
	span.End()
	if err != nil || global == nil {
		return nil, err
	}
	return global.ToSet(), nil
}

// mergeSchedule folds the local skyline blocks to the global skyline in
// rounds: each round greedily packs consecutive candidate blocks into
// groups of at most budget bytes and reduces every group to its skyline,
// so no group holds more than ~budget bytes resident — the MRC memory
// constraint. Rounds repeat until one group remains. When every candidate
// alone exceeds the budget the greedy packing makes no progress, so the
// round falls back to pairwise grouping; the folds then multi-pass
// internally, and the group count still halves — termination is
// unconditional.
//
// A budgeted group folds through a BudgetedFold. Without a budget
// (budget ≤ 0) every candidate lands in one group in one round, which
// folds with the parallel merge tree: the candidates are skylines of
// disjoint partitions, so only cross-partition dominance is left to
// test. The schedule's wall time is recorded as stats.MergeJob (Reduce
// and Total) and added into stats.Timing.
func mergeSchedule(ctx context.Context, candidates []*points.Block, dim int, budget int64, opts Options, stats *Stats) (*points.Block, error) {
	if len(candidates) == 0 {
		return nil, nil
	}
	start := time.Now()
	rec := telemetry.RecorderFrom(ctx)
	blockBytes := func(blk *points.Block) int64 { return int64(blk.Len()) * int64(dim) * 8 }
	for round := 1; len(candidates) > 1 || round == 1; round++ {
		var groups [][]*points.Block
		var cur []*points.Block
		var curBytes int64
		for _, blk := range candidates {
			b := blockBytes(blk)
			if len(cur) > 0 && budget > 0 && curBytes+b > budget {
				groups = append(groups, cur)
				cur, curBytes = nil, 0
			}
			cur = append(cur, blk)
			curBytes += b
		}
		if len(cur) > 0 {
			groups = append(groups, cur)
		}
		if len(groups) >= len(candidates) && len(candidates) > 1 {
			groups = groups[:0]
			for i := 0; i < len(candidates); i += 2 {
				hi := min(i+2, len(candidates))
				groups = append(groups, candidates[i:hi])
			}
		}
		var roundBytes int64
		next := make([]*points.Block, 0, len(groups))
		for _, g := range groups {
			var groupBytes int64
			for _, blk := range g {
				groupBytes += blockBytes(blk)
			}
			roundBytes += groupBytes
			if budget <= 0 {
				stats.ReducerPeakBytes = max(stats.ReducerPeakBytes, groupBytes)
				next = append(next, skyline.MergeTree(ctx, g, opts.Workers))
				continue
			}
			fold := skyline.NewBudgetedFold(dim, budget, opts.SpillDir, opts.Codec)
			for _, blk := range g {
				if err := fold.Absorb(blk); err != nil {
					return nil, err
				}
			}
			out, err := fold.Finish()
			if err != nil {
				return nil, err
			}
			fs := fold.Stats()
			stats.ReducerPeakBytes = max(stats.ReducerPeakBytes, fs.PeakBytes)
			stats.MergePasses = max(stats.MergePasses, fs.Passes)
			next = append(next, out)
		}
		stats.MergeRounds++
		stats.MergeRoundBytes = append(stats.MergeRoundBytes, roundBytes)
		rec.AddMergeRound(roundBytes)
		candidates = next
	}
	recordMerge(stats, time.Since(start))
	return candidates[0], nil
}

// recordMerge books a Merging Job's wall time as stats.MergeJob (Reduce
// and Total) and adds it into stats.Timing.
func recordMerge(stats *Stats, wall time.Duration) {
	stats.MergeJob = mapreduce.Timing{Reduce: wall, Total: wall}
	stats.Timing.Add(stats.MergeJob)
}

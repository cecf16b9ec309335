package driver

import (
	"context"
	"fmt"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/points"
	"repro/internal/skyline"
)

// ComputeSkyband runs the MapReduce k-skyband — the QoS-tolerant
// generalization of the skyline (points dominated by fewer than k others)
// that the paper's conclusion suggests as an extension. The two-job
// structure mirrors Algorithm 1:
//
//	Job 1: map points to partitions; reduce keeps each partition's local
//	       k-skyband (sound: a point with ≥ k dominators in its own
//	       partition has ≥ k dominators globally).
//
//	Job 2: count, for every surviving candidate, its dominators among all
//	       survivors and keep those with < k — one skyline.Skyband over
//	       the union of the local bands.
//
// Correctness of counting only among survivors: all dominators of a
// candidate p that were dropped in Job 1 had ≥ k dominators of their own,
// and by transitivity those dominate p too; in any finite dominance order
// with ≥ k elements above p, at least k of them have < k dominators
// themselves (the first k of any linear extension), so they survive Job 1
// and p's survivor-count reaches k whenever its global count does.
func ComputeSkyband(ctx context.Context, data points.Set, k int, opts Options) (points.Set, *Stats, error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("driver: skyband k = %d, need >= 1", k)
	}
	if err := data.Validate(); err != nil {
		return nil, nil, fmt.Errorf("driver: %w", err)
	}
	opts = opts.withDefaults()
	part, err := opts.partitioner(data)
	if err != nil {
		return nil, nil, err
	}
	stats := newStats(opts, part)

	// Each reducer keeps the points with fewer than k dominators within
	// its partition.
	band := mapreduce.KernelFolder(skyline.BlockFuncOf(func(s points.Set) points.Set {
		out, _ := skyline.Skyband(s, k) // k >= 1 was checked above
		return out
	}))

	// ---- Job 1: local k-skybands --------------------------------------
	// No combiner here: the local k-skyband must see the whole partition
	// at once (a per-map-task band could keep too few dominator
	// witnesses, which is still sound, but running the band twice at
	// different granularities buys little; keep the reducer-only shape).
	// No grid pruning either: a dominated cell can still hold points
	// with fewer than k dominators.
	if _, err := partitionJob(ctx, fmt.Sprintf("%s-skyband%d-partitioning", opts.Scheme, k),
		opts.source(data), part, nil, nil, band, opts, stats); err != nil {
		return nil, nil, err
	}

	// ---- Job 2: global dominator counting ------------------------------
	// Candidates are few (local bands), so the counting runs directly
	// over their union, taken in ascending partition order.
	start := time.Now()
	var candidates points.Set
	for _, id := range sortedIDs(stats.LocalSkylines) {
		candidates = append(candidates, stats.LocalSkylines[id]...)
	}
	out, err := skyline.Skyband(candidates, k)
	if err != nil {
		return nil, nil, err
	}
	stats.MergeRounds = 1
	stats.MergeRoundBytes = []int64{int64(len(candidates) * data.Dim() * 8)}
	recordMerge(stats, time.Since(start))
	return out, stats, nil
}

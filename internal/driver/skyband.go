package driver

import (
	"context"
	"fmt"

	"repro/internal/mapreduce"
	"repro/internal/partition"
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
//	       survivors and keep those with < k.
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
	part, err := partition.New(opts.Scheme, data, opts.Partitions)
	if err != nil {
		return nil, nil, err
	}
	stats := &Stats{
		Scheme:        opts.Scheme,
		Partitions:    part.Partitions(),
		LocalSkylines: make(map[int]points.Set),
	}

	// ---- Job 1: local k-skybands --------------------------------------
	input := make([][]byte, len(data))
	for i, p := range data {
		input[i] = points.Encode(p)
	}
	mapper := mapreduce.FrameMapperFunc(func(rec []byte, emit mapreduce.EmitPoint) error {
		p, err := points.Decode(rec)
		if err != nil {
			return err
		}
		id, err := part.Assign(p)
		if err != nil {
			return err
		}
		emit(id, p)
		return nil
	})
	band := mapreduce.KernelReducer(skyline.BlockFuncOf(func(s points.Set) points.Set {
		out, _ := skyline.Skyband(s, k) // k >= 1 was checked above
		return out
	}))
	cfg1 := mapreduce.Config{
		Name:     fmt.Sprintf("%s-skyband%d-partitioning", opts.Scheme, k),
		Workers:  opts.Workers,
		Reducers: opts.Workers,
		SpillDir: opts.SpillDir,
		Trace:    traceSink(ctx),
	}
	// No combiner here: the local k-skyband must see the whole partition
	// at once (a per-map-task band could keep too few dominator
	// witnesses, which is still sound, but running the band twice at
	// different granularities buys little; keep the reducer-only shape).
	res1, err := mapreduce.RunFrames(ctx, cfg1, input, mapper, nil, band)
	if err != nil {
		return nil, nil, err
	}
	var mergeInput [][]byte
	for _, id := range sortedBlockIDs(res1.Blocks) {
		if id < 0 || id >= part.Partitions() {
			return nil, nil, fmt.Errorf("driver: bad partition id %d in frame output", id)
		}
		blk := res1.Blocks[id]
		stats.LocalSkylines[id] = blk.ToSet()
		for i := 0; i < blk.Len(); i++ {
			mergeInput = append(mergeInput, points.Encode(points.Point(blk.Row(i))))
		}
	}

	// ---- Job 2: global dominator counting ------------------------------
	// Candidates are few (local bands); broadcast-join them: every map
	// task emits each candidate to one partition, the reducer counts
	// dominators within the union. For simplicity and determinism the
	// counting happens in one reducer over the full candidate set.
	identity := mapreduce.FrameMapperFunc(func(rec []byte, emit mapreduce.EmitPoint) error {
		p, err := points.Decode(rec)
		if err != nil {
			return err
		}
		emit(0, p)
		return nil
	})
	cfg2 := mapreduce.Config{
		Name:     fmt.Sprintf("%s-skyband%d-merging", opts.Scheme, k),
		Workers:  opts.Workers,
		Reducers: 1,
		SpillDir: opts.SpillDir,
		Trace:    traceSink(ctx),
	}
	res2, err := mapreduce.RunFrames(ctx, cfg2, mergeInput, identity, nil, band)
	if err != nil {
		return nil, nil, err
	}
	var out points.Set
	if blk := res2.Blocks[0]; blk != nil {
		out = blk.ToSet()
	}
	stats.PartitionJob = res1.Timing
	stats.MergeJob = res2.Timing
	stats.Timing = res1.Timing
	stats.Timing.Add(res2.Timing)
	stats.Counters = res1.Counters.Snapshot()
	for k2, v := range res2.Counters.Snapshot() {
		stats.Counters[k2] += v
	}
	return out, stats, nil
}

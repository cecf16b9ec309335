// Package driver composes the MapReduce engine, the partitioners and the
// sequential skyline kernels into the paper's three algorithms — MR-Dim,
// MR-Grid and MR-Angle (Algorithm 1) — as the two-job pipeline:
//
//	Job 1 (Partitioning Job): map each point to its partition; a combiner
//	and the reducer run the skyline kernel per partition, producing local
//	skylines.
//
//	Job 2 (Merging Job): map every local skyline point to one shared
//	partition; a single reduce merges them into the global skyline.
//
// Both jobs run on the engine's block-framed shuffle. When the merge
// must not land on one reducer (HierarchicalMerge, ComputeStream), Job 2
// becomes the multi-round merge schedule instead. The driver also
// implements MR-Grid's cell-level dominance pruning and collects the
// per-partition local skylines needed by the paper's local skyline
// optimality metric (Eq. 5).
package driver

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/skyline"
	"repro/internal/telemetry"
)

// Options configures one MapReduce skyline computation.
type Options struct {
	// Scheme selects the partitioning method (MR-Dim / MR-Grid /
	// MR-Angle / MR-Random).
	Scheme partition.Scheme
	// Nodes is the number of cluster nodes being modelled. Following the
	// paper, the partition count defaults to 2 × Nodes. Defaults to 4.
	Nodes int
	// Partitions overrides the 2×Nodes default when > 0.
	Partitions int
	// Workers is the engine's worker-goroutine count; defaults to Nodes.
	Workers int
	// Kernel is the sequential skyline algorithm used for local and global
	// skylines. Defaults to BNL, the paper's choice.
	Kernel skyline.Algorithm
	// KernelOverride, when non-nil, replaces Kernel with an arbitrary
	// skyline function (e.g. the R-tree BBS from package rtree, which has
	// no Algorithm enum value because it carries index state). It runs
	// inside the block combiners and reducers through a Set round-trip.
	// The budgeted folds and the merge schedule keep their own BNL.
	KernelOverride skyline.Func
	// PartitionerOverride, when non-nil, replaces the Scheme-fitted
	// partitioner with a pre-built one (experimental partitioners such as
	// the angular+radial hybrid). Scheme is then only a label.
	PartitionerOverride partition.Partitioner
	// DisableCombiner turns off the in-map local-skyline combiner (the
	// paper's "middle process"), shipping raw partition contents to the
	// reducers — the ablation quantifying the paper's §II-B claim.
	DisableCombiner bool
	// DisableGridPruning turns off MR-Grid's dominated-cell pruning.
	DisableGridPruning bool
	// SpillDir, when set, spills intermediate data to sequence files.
	SpillDir string
	// Codec selects the wire codec for the framed shuffle: the zero value
	// keeps raw v1 frames, points.FrameAuto enables the bit-packed v2
	// encoding wherever it is smaller.
	Codec points.FrameCodec
	// ReducerBudgetBytes, when > 0, switches the reducers to the
	// memory-budgeted streaming fold: frames are folded one at a time into
	// a bounded skyline window that spills and multi-passes when the local
	// skyline outgrows it, so reduce memory stays near the budget instead
	// of scaling with partition size. 0 keeps the assemble-everything
	// reducers.
	ReducerBudgetBytes int64
	// HierarchicalMerge enables the paper's §II iterative extension: the
	// merge runs as the multi-round merge schedule — rounds of partial
	// merges of at most MergeFanIn local skylines each (and, when
	// ReducerBudgetBytes is set, at most that many candidate bytes) —
	// instead of a single global reduce: the Twister-style iterative
	// MapReduce path for registries whose local skylines are too large
	// for one reducer.
	HierarchicalMerge bool
	// MergeFanIn caps how many local skylines one hierarchical merge
	// group folds (default 8, minimum 2).
	MergeFanIn int
	// Metrics, when non-nil, receives skyline-level series (per-partition
	// local skyline sizes, pruned-cell counts) and is passed through to
	// both engine jobs for the mr_* bridge. Nil (the default) records
	// nothing.
	Metrics *telemetry.Registry
}

func (o Options) withDefaults() Options {
	if o.Nodes <= 0 {
		o.Nodes = 4
	}
	if o.Partitions <= 0 {
		o.Partitions = 2 * o.Nodes // the paper's empirical setting
	}
	if o.Workers <= 0 {
		o.Workers = o.Nodes
	}
	return o
}

// kernelFunc resolves the sequential Set-typed kernel: the override when
// given, otherwise the flat implementation of o.Kernel.
func (o Options) kernelFunc() skyline.Func {
	if o.KernelOverride != nil {
		return o.KernelOverride
	}
	return skyline.ByAlgorithmFlat(o.Kernel)
}

// blockKernel resolves the block kernel the combiners and reducers run:
// the override through a Set round-trip when given, otherwise the flat
// kernel of o.Kernel.
func (o Options) blockKernel() skyline.BlockFunc {
	if o.KernelOverride != nil {
		return skyline.BlockFuncOf(o.KernelOverride)
	}
	return skyline.BlockByAlgorithm(o.Kernel)
}

// combiner returns the map-side local-skyline combiner, nil when
// DisableCombiner ablates it.
func (o Options) combiner(kernel skyline.BlockFunc) mapreduce.FrameCombiner {
	if o.DisableCombiner {
		return nil
	}
	return mapreduce.KernelCombiner(kernel)
}

// Stats reports what happened inside one computation.
type Stats struct {
	// Scheme echoes the partitioning method used.
	Scheme partition.Scheme
	// Partitions is the actual partition count after planning.
	Partitions int
	// PartitionCounts is the number of input points per partition.
	PartitionCounts []int
	// PrunedPartitions counts grid cells skipped by dominance pruning.
	PrunedPartitions int
	// LocalSkylines maps partition id → local skyline (Job 1 output).
	LocalSkylines map[int]points.Set
	// PartitionJob and MergeJob are the per-job phase timings; Timing is
	// their sum.
	PartitionJob, MergeJob, Timing mapreduce.Timing
	// Counters merges both jobs' framework counters.
	Counters map[string]int64
	// ReducerPeakBytes is the largest reducer-resident working set any
	// streaming reduce task or merge-schedule fold reached (0 when
	// neither ran).
	ReducerPeakBytes int64
	// MergePasses is the largest BudgetedFold pass count any fold needed
	// (>1 means a skyline overflowed its window and multi-passed).
	MergePasses int
	// MergeRounds counts the rounds of the multi-round merge schedule
	// (ComputeStream, HierarchicalMerge); MergeRoundBytes[i] is the
	// candidate volume entering round i. Zero/nil when the merge ran as a
	// single job.
	MergeRounds     int
	MergeRoundBytes []int64
}

// LocalSkylineTotal returns the number of points across all local
// skylines — the volume entering the merge job.
func (s *Stats) LocalSkylineTotal() int {
	n := 0
	for _, ls := range s.LocalSkylines {
		n += len(ls)
	}
	return n
}

// Compute runs the selected MapReduce skyline algorithm over data and
// returns the global skyline plus execution statistics. The input set must
// be non-empty, uniform-dimensional and finite.
//
// Points travel between phases as packed frames keyed by integer
// partition id; the local-skyline combiner runs directly on each
// assembled block before its frame is sealed, and reducers ingest whole
// frames into contiguous blocks.
func Compute(ctx context.Context, data points.Set, opts Options) (points.Set, *Stats, error) {
	if err := data.Validate(); err != nil {
		return nil, nil, fmt.Errorf("driver: %w", err)
	}
	opts = opts.withDefaults()
	ctx, rootSpan := telemetry.StartSpan(ctx, fmt.Sprintf("skyline:%s", opts.Scheme),
		telemetry.A("scheme", fmt.Sprint(opts.Scheme)),
		telemetry.A("points", len(data)))
	defer rootSpan.End()

	part := opts.PartitionerOverride
	if part == nil {
		var err error
		part, err = partition.New(opts.Scheme, data, opts.Partitions)
		if err != nil {
			return nil, nil, err
		}
	}

	stats := &Stats{
		Scheme:        opts.Scheme,
		Partitions:    part.Partitions(),
		LocalSkylines: make(map[int]points.Set),
	}

	// MR-Grid dominance pruning needs cell occupancy, which is known after
	// assignment; we take a pre-pass over the data (the same O(n) assigns
	// the map phase performs) and hand the mapper a pruned-cell mask so
	// dominated cells are dropped at the source, sparing both the local
	// skyline computation and the shuffle — the paper's §III-B gain.
	var pruned []bool
	if pruner, ok := part.(partition.Pruner); ok && !opts.DisableGridPruning {
		counts, err := partition.Histogram(part, data)
		if err != nil {
			return nil, nil, err
		}
		occupied := make([]bool, len(counts))
		for id, c := range counts {
			occupied[id] = c > 0
		}
		pruned = pruner.Prunable(occupied)
		for _, p := range pruned {
			if p {
				stats.PrunedPartitions++
			}
		}
	}

	// The dominance-test delta of the whole computation is bridged into
	// the registry on every exit path.
	blockKernel := opts.blockKernel()
	if reg := opts.Metrics; reg != nil {
		domBefore := skyline.DominanceTests()
		defer func() {
			reg.Counter("skyline_dominance_tests_total").Add(skyline.DominanceTests() - domBefore)
		}()
	}

	// ---- Job 1: Partitioning Job ------------------------------------
	input := make([][]byte, len(data))
	for i, p := range data {
		input[i] = points.Encode(p)
	}

	// Occupancy is counted here in the mapper (atomically — map tasks run
	// concurrently) rather than by a second full Assign pass after the
	// job: the angular transform per point is the pipeline's single
	// largest cost. The pooled scratch removes the per-record Decode
	// allocation (the decoded point lives only for one Assign).
	occCounts := make([]int64, part.Partitions())
	scratch := sync.Pool{New: func() any {
		p := make(points.Point, 0, data.Dim())
		return &p
	}}
	mapper := mapreduce.FrameMapperFunc(func(rec []byte, emit mapreduce.EmitPoint) error {
		buf := scratch.Get().(*points.Point)
		p, err := points.DecodeInto(*buf, rec)
		if err != nil {
			return err
		}
		id, assignErr := part.Assign(p)
		if assignErr == nil {
			atomic.AddInt64(&occCounts[id], 1)
			if pruned == nil || !pruned[id] {
				// emit copies the coordinates into the partition's block
				// immediately, so the scratch point can be recycled.
				emit(id, p)
			}
		}
		*buf = p[:0]
		scratch.Put(buf)
		return assignErr
	})
	cfg1 := mapreduce.Config{
		Name:               fmt.Sprintf("%s-partitioning", opts.Scheme),
		Workers:            opts.Workers,
		Reducers:           opts.Workers,
		SpillDir:           opts.SpillDir,
		Metrics:            opts.Metrics,
		Trace:              traceSink(ctx),
		Codec:              opts.Codec,
		ReducerBudgetBytes: opts.ReducerBudgetBytes,
	}
	res1, err := runSkylineJob(ctx, cfg1, input, mapper, opts.combiner(blockKernel),
		mapreduce.KernelReducer(blockKernel), data.Dim(), opts)
	if err != nil {
		return nil, nil, err
	}
	stats.ReducerPeakBytes = res1.ReducerPeakBytes
	stats.MergePasses = res1.MergePasses
	for id, blk := range res1.Blocks {
		if id < 0 || id >= part.Partitions() {
			return nil, nil, fmt.Errorf("driver: bad partition id %d in frame output", id)
		}
		stats.LocalSkylines[id] = blk.ToSet()
	}
	counts := make([]int, len(occCounts))
	for id := range occCounts {
		counts[id] = int(atomic.LoadInt64(&occCounts[id]))
	}
	stats.PartitionCounts = counts
	publishPartitionGauges(opts.Metrics, stats)
	stats.PartitionJob = res1.Timing
	stats.Timing = res1.Timing
	stats.Counters = res1.Counters.Snapshot()

	// ---- Job 2: Merging Job -----------------------------------------
	var global points.Set
	if opts.HierarchicalMerge {
		budget := opts.ReducerBudgetBytes
		if budget <= 0 {
			budget = math.MaxInt64
		}
		fanIn := opts.MergeFanIn
		if fanIn < 2 {
			fanIn = 8
		}
		global, err = mergeBlocks(ctx, res1.Blocks, data.Dim(), budget, fanIn, opts, stats)
	} else {
		global, err = mergeJob(ctx, res1.Blocks, data.Dim(), blockKernel, opts, stats)
	}
	if err != nil {
		return nil, nil, err
	}
	if reg := opts.Metrics; reg != nil {
		reg.Gauge("skyline_global_size").Set(float64(len(global)))
	}
	feedRecorder(ctx, opts, stats, global, res1.Partitions)
	return global, stats, nil
}

// mergeJob is the paper's Merging Job: every local skyline point goes to
// one global partition, map tasks pre-merge their share with the
// combiner, and the single reduce runs the parallel merge tree (or the
// override kernel) over the candidate union. Its timing, counters and
// fold peaks accumulate into stats.
func mergeJob(ctx context.Context, locals map[int]*points.Block, dim int, blockKernel skyline.BlockFunc, opts Options, stats *Stats) (points.Set, error) {
	var mergeInput [][]byte
	for _, id := range sortedBlockIDs(locals) {
		blk := locals[id]
		for i := 0; i < blk.Len(); i++ {
			mergeInput = append(mergeInput, points.Encode(points.Point(blk.Row(i))))
		}
	}
	scratch := sync.Pool{New: func() any {
		p := make(points.Point, 0, dim)
		return &p
	}}
	identity := mapreduce.FrameMapperFunc(func(rec []byte, emit mapreduce.EmitPoint) error {
		buf := scratch.Get().(*points.Point)
		p, err := points.DecodeInto(*buf, rec)
		if err != nil {
			return err
		}
		emit(0, p) // paper line 13: output(null, si) — one global partition
		*buf = p[:0]
		scratch.Put(buf)
		return nil
	})
	cfg := mapreduce.Config{
		Name:               fmt.Sprintf("%s-merging", opts.Scheme),
		Workers:            opts.Workers,
		Reducers:           1, // all local skylines share one partition (paper line 12-15)
		SpillDir:           opts.SpillDir,
		Metrics:            opts.Metrics,
		Trace:              traceSink(ctx),
		Codec:              opts.Codec,
		ReducerBudgetBytes: opts.ReducerBudgetBytes,
	}
	mergeKernel := blockKernel
	if opts.KernelOverride == nil {
		mergeKernel = func(blk *points.Block) *points.Block {
			return skyline.ParallelBlock(ctx, blk, opts.Workers)
		}
	}
	res, err := runSkylineJob(ctx, cfg, mergeInput, identity, opts.combiner(blockKernel),
		mapreduce.KernelReducer(mergeKernel), dim, opts)
	if err != nil {
		return nil, err
	}
	stats.ReducerPeakBytes = max(stats.ReducerPeakBytes, res.ReducerPeakBytes)
	stats.MergePasses = max(stats.MergePasses, res.MergePasses)
	stats.MergeJob = res.Timing
	stats.Timing.Add(res.Timing)
	for k, v := range res.Counters.Snapshot() {
		stats.Counters[k] += v
	}
	var global points.Set
	if blk := res.Blocks[0]; blk != nil {
		global = blk.ToSet()
	}
	return global, nil
}

// runSkylineJob runs one skyline job: with a reducer budget the reduce
// side streams frames through budgeted folds, otherwise each partition
// is assembled and handed to reducer.
func runSkylineJob(ctx context.Context, cfg mapreduce.Config, input [][]byte, mapper mapreduce.FrameMapper, combiner mapreduce.FrameCombiner, reducer mapreduce.FrameReducer, dim int, opts Options) (*mapreduce.FrameResult, error) {
	if opts.ReducerBudgetBytes > 0 {
		return mapreduce.RunFramesFold(ctx, cfg, input, mapper, combiner,
			mapreduce.BudgetedFolder(dim, opts.ReducerBudgetBytes, opts.SpillDir, opts.Codec))
	}
	return mapreduce.RunFrames(ctx, cfg, input, mapper, combiner, reducer)
}

// sortedBlockIDs returns a frame result's partition ids ascending.
func sortedBlockIDs(blocks map[int]*points.Block) []int {
	ids := make([]int, 0, len(blocks))
	for id := range blocks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// feedRecorder hands one finished computation's per-partition evidence to
// the context's flight recorder (no-op when recording is off): partition
// occupancy as input load, local skyline sizes, the Eq. (5) survivor
// counts — computed here where local and global skylines are both in
// hand — and per-partition shuffle bytes. The rollups are then bridged
// into the run's metrics registry.
func feedRecorder(ctx context.Context, opts Options, stats *Stats, global points.Set, shuffle map[int]mapreduce.PartStat) {
	rec := telemetry.RecorderFrom(ctx)
	if rec == nil {
		return
	}
	rec.EnsurePartitions(stats.Partitions)
	for id, n := range stats.PartitionCounts {
		rec.SetPartitionInput(id, int64(n))
	}
	for id, ps := range shuffle {
		rec.AddPartitionShuffle(id, 0, ps.Bytes) // occupancy already carries the records
	}
	for id, ls := range stats.LocalSkylines {
		rec.SetLocalSkyline(id, len(ls))
	}
	for id, hits := range metrics.GlobalSurvivors(stats.LocalSkylines, global) {
		rec.SetGlobalSurvivors(id, hits)
	}
	rec.SetGlobalSkyline(len(global))
	rec.SetReducerPeak(stats.ReducerPeakBytes)
	rec.Publish(opts.Metrics)
}

// traceSink bridges the context's event log (telemetry.WithEventLog)
// into the engine's event stream, so in-process jobs narrate job/phase/
// retry/spill transitions to /debug/events. Nil when no log is bound.
func traceSink(ctx context.Context) mapreduce.EventSink {
	if log := telemetry.EventLogFrom(ctx); log != nil {
		return mapreduce.NewLogSink(log)
	}
	return nil
}

// publishPartitionGauges exports the partition-level shape of a run:
// per-partition local skyline sizes and point counts (the paper's load
// balance picture), plus the pruned-cell total for MR-Grid.
func publishPartitionGauges(reg *telemetry.Registry, stats *Stats) {
	if reg == nil {
		return
	}
	for id, ls := range stats.LocalSkylines {
		reg.Gauge("skyline_partition_local_size",
			telemetry.L("partition", strconv.Itoa(id))).Set(float64(len(ls)))
	}
	for id, n := range stats.PartitionCounts {
		reg.Gauge("skyline_partition_points",
			telemetry.L("partition", strconv.Itoa(id))).Set(float64(n))
	}
	reg.Gauge("skyline_pruned_partitions").Set(float64(stats.PrunedPartitions))
}

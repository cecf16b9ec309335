// Package driver composes the MapReduce engine, the partitioners and the
// sequential skyline kernels into the paper's three algorithms — MR-Dim,
// MR-Grid and MR-Angle (Algorithm 1) — as the two-job pipeline:
//
//	Job 1 (Partitioning Job): map each point to its partition; a combiner
//	and the reducer run the skyline kernel per partition, producing local
//	skylines.
//
//	Job 2 (Merging Job): merge the union of the local skylines into the
//	global skyline.
//
// Job 1 runs on the engine's block-framed shuffle. Job 2 is the
// multi-round merge schedule (outofcore.go): without a reducer budget it
// is one group in one round — the paper's single global merge — and
// under a budget it packs the local skylines into groups that fit and
// repeats until one remains. The driver also implements MR-Grid's
// cell-level dominance pruning and collects the per-partition local
// skylines needed by the paper's local skyline optimality metric
// (Eq. 5).
package driver

import (
	"context"
	"fmt"
	"sort"
	"strconv"
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
	// Kernel is the sequential skyline algorithm used for the local
	// skylines. Defaults to BNL, the paper's choice. The merge of the
	// local skylines always runs the merge schedule's own folds.
	Kernel skyline.Algorithm
	// KernelOverride, when non-nil, replaces Kernel with an arbitrary
	// skyline function (e.g. the R-tree BBS from package rtree, which has
	// no Algorithm enum value because it carries index state). It runs
	// inside the block combiners and unbudgeted reducers through a Set
	// round-trip, so it computes local skylines only; the budgeted folds
	// and the merge schedule keep their own BNL.
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
	// memory-budgeted fold: frames are folded one at a time into a bounded
	// skyline window that spills and multi-passes when the local skyline
	// outgrows it, so reduce memory stays near the budget instead of
	// scaling with partition size. The merge then runs in as many rounds
	// as it takes to keep each group's candidates within the budget — the
	// paper's §II iterative (Twister-style) extension. 0 keeps the
	// assembling reducers, which run the kernel over each whole
	// partition, and merges every local skyline in one round.
	ReducerBudgetBytes int64
	// Metrics, when non-nil, receives skyline-level series (per-partition
	// local skyline sizes, pruned-cell counts) and is passed through to
	// the engine job for the mr_* bridge. Nil (the default) records
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

// folder returns the reducers' fold: the budgeted fold when
// ReducerBudgetBytes is set, otherwise kernel over each assembled
// partition.
func (o Options) folder(dim int, kernel skyline.BlockFunc) mapreduce.FrameFolder {
	if o.ReducerBudgetBytes > 0 {
		return mapreduce.BudgetedFolder(dim, o.ReducerBudgetBytes, o.SpillDir, o.Codec)
	}
	return mapreduce.KernelFolder(kernel)
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
	// their sum. MergeJob is the merge schedule's (or the skyband
	// count's) wall time, booked as Reduce.
	PartitionJob, MergeJob, Timing mapreduce.Timing
	// Counters holds the partitioning job's framework counters.
	Counters map[string]int64
	// ReducerPeakBytes is the largest reducer-resident working set any
	// reduce task (its folds' resident bytes plus decode scratch) or
	// merge-schedule fold reached.
	ReducerPeakBytes int64
	// MergePasses is the largest BudgetedFold pass count any fold needed
	// (>1 means a skyline overflowed its window and multi-passed).
	MergePasses int
	// MergeRounds counts the Merging Job's rounds and is ≥ 1 on every
	// run: 1 when every local skyline merged in one group (and for the
	// skyband's single dominator count), more when the candidates
	// exceeded the reducer budget. MergeRoundBytes[i] is the candidate
	// volume entering round i.
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
// Map tasks read the input as blocks of consecutive rows; points travel
// between phases as packed frames keyed by integer partition id; the
// local-skyline combiner runs directly on each block before its frame is
// sealed, and reducers fold whole frames.
func Compute(ctx context.Context, data points.Set, opts Options) (points.Set, *Stats, error) {
	if err := data.Validate(); err != nil {
		return nil, nil, fmt.Errorf("driver: %w", err)
	}
	opts = opts.withDefaults()
	ctx, rootSpan := telemetry.StartSpan(ctx, fmt.Sprintf("skyline:%s", opts.Scheme),
		telemetry.A("scheme", fmt.Sprint(opts.Scheme)),
		telemetry.A("points", len(data)))
	defer rootSpan.End()

	part, err := opts.partitioner(data)
	if err != nil {
		return nil, nil, err
	}
	stats := newStats(opts, part)

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

	defer bridgeDominanceTests(opts.Metrics)()
	blockKernel := opts.blockKernel()

	// ---- Job 1: Partitioning Job ------------------------------------
	res1, err := partitionJob(ctx, fmt.Sprintf("%s-partitioning", opts.Scheme), opts.source(data),
		part, pruned, opts.combiner(blockKernel), opts.folder(data.Dim(), blockKernel), opts, stats)
	if err != nil {
		return nil, nil, err
	}

	// ---- Job 2: Merging Job -----------------------------------------
	global, err := mergeBlocks(ctx, res1.Blocks, data.Dim(), opts.ReducerBudgetBytes, opts, stats)
	if err != nil {
		return nil, nil, err
	}
	if reg := opts.Metrics; reg != nil {
		reg.Gauge("skyline_global_size").Set(float64(len(global)))
	}
	feedRecorder(ctx, opts, stats, global, res1.Partitions)
	return global, stats, nil
}

// partitioner resolves the computation's partitioner: the override when
// given, otherwise opts.Scheme fitted to sample.
func (o Options) partitioner(sample points.Set) (partition.Partitioner, error) {
	if o.PartitionerOverride != nil {
		return o.PartitionerOverride, nil
	}
	return partition.New(o.Scheme, sample, o.Partitions)
}

// source serves an in-memory set as the engine's input: consecutive
// ranges of ceil(n / (4 × Workers)) rows, so each worker sees a few map
// tasks.
func (o Options) source(rows points.Set) mapreduce.ChunkSource {
	return mapreduce.SetSource(rows, (len(rows)+4*o.Workers-1)/(4*o.Workers))
}

func newStats(opts Options, part partition.Partitioner) *Stats {
	return &Stats{
		Scheme:        opts.Scheme,
		Partitions:    part.Partitions(),
		LocalSkylines: make(map[int]points.Set),
	}
}

// bridgeDominanceTests starts counting dominance tests for the
// registry; the returned func books the delta (a no-op without a
// registry). Deferred, it covers every exit path.
func bridgeDominanceTests(reg *telemetry.Registry) func() {
	if reg == nil {
		return func() {}
	}
	before := skyline.DominanceTests()
	return func() {
		reg.Counter("skyline_dominance_tests_total").Add(skyline.DominanceTests() - before)
	}
}

// partitionMapper is the Partitioning Job's mapper: each row goes to its
// partition, except rows of pruned cells, which are dropped at the
// source. Occupancy (pruned cells included) is tallied per block and
// added to counts atomically — map tasks run concurrently — rather than
// by a second Assign pass after the job: the angular transform per point
// is the pipeline's single largest cost.
func partitionMapper(part partition.Partitioner, pruned []bool, counts []int64) mapreduce.BlockMapper {
	return mapreduce.BlockMapperFunc(func(blk *points.Block, emit mapreduce.EmitPoint) error {
		local := make([]int64, len(counts))
		defer func() {
			for id, c := range local {
				if c > 0 {
					atomic.AddInt64(&counts[id], c)
				}
			}
		}()
		for i := 0; i < blk.Len(); i++ {
			row := blk.Row(i)
			id, err := part.Assign(points.Point(row))
			if err != nil {
				return err
			}
			local[id]++
			if pruned == nil || !pruned[id] {
				emit(id, row)
			}
		}
		return nil
	})
}

// partitionJob runs the Partitioning Job every entry point shares: src's
// rows are routed by partitionMapper, combined map-side by combiner (nil
// for none) and folded per partition by folder. The local skylines,
// occupancy, fold peaks, timing and counters land in stats.
func partitionJob(ctx context.Context, name string, src mapreduce.ChunkSource, part partition.Partitioner, pruned []bool, combiner mapreduce.FrameCombiner, folder mapreduce.FrameFolder, opts Options, stats *Stats) (*mapreduce.FrameResult, error) {
	counts := make([]int64, part.Partitions())
	cfg := mapreduce.Config{
		Name:     name,
		Workers:  opts.Workers,
		Reducers: opts.Workers,
		SpillDir: opts.SpillDir,
		Metrics:  opts.Metrics,
		Trace:    traceSink(ctx),
		Codec:    opts.Codec,
	}
	res, err := mapreduce.Run(ctx, cfg, src, partitionMapper(part, pruned, counts), combiner, folder)
	if err != nil {
		return nil, err
	}
	for id, blk := range res.Blocks {
		if id < 0 || id >= part.Partitions() {
			return nil, fmt.Errorf("driver: bad partition id %d in frame output", id)
		}
		stats.LocalSkylines[id] = blk.ToSet()
	}
	stats.PartitionCounts = make([]int, len(counts))
	for id, c := range counts {
		stats.PartitionCounts[id] = int(c)
	}
	stats.ReducerPeakBytes = res.ReducerPeakBytes
	stats.MergePasses = res.MergePasses
	stats.PartitionJob = res.Timing
	stats.Timing = res.Timing
	stats.Counters = res.Counters.Snapshot()
	publishPartitionGauges(opts.Metrics, stats)
	return res, nil
}

// sortedIDs returns a partition map's ids ascending.
func sortedIDs[V any](m map[int]V) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
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

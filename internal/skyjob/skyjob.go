// Package skyjob defines the distributed skyline MapReduce jobs for the
// rpcmr engine: the partitioning job (assign → local skyline) and the
// merging job (single key → global skyline), mirroring the in-process
// pipeline of package driver. Any process that links this package (master
// or worker) has both jobs registered and can participate in a cluster.
package skyjob

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/rpcmr"
	"repro/internal/skyline"
	"repro/internal/telemetry"
)

// Job names in the rpcmr registry.
const (
	PartitionJobName = "skyline/partition"
	MergeJobName     = "skyline/merge"
)

// Spec parameterizes the partitioning job; it travels to workers as JSON
// so every worker reconstructs an identical partitioner.
type Spec struct {
	Scheme     partition.Scheme `json:"scheme"`
	Dim        int              `json:"dim"`
	Min        []float64        `json:"min"`
	Max        []float64        `json:"max"`
	Partitions int              `json:"partitions"`
	// Kernel selects the sequential skyline algorithm (default BNL); it
	// runs as the flat block kernel on every worker.
	Kernel skyline.Algorithm `json:"kernel"`
	// AngularSplits and AngularCuts ship a fitted (equi-depth) angular
	// partitioner to workers; empty for other schemes.
	AngularSplits []int         `json:"angular_splits,omitempty"`
	AngularCuts   [][][]float64 `json:"angular_cuts,omitempty"`
	// Codec selects the frame wire codec on every worker: 0 keeps raw v1
	// frames, points.FrameAuto enables the bit-packed v2 encoding wherever
	// it is smaller.
	Codec points.FrameCodec `json:"codec,omitempty"`
	// ReducerBudgetBytes, when > 0, switches reduce tasks to the
	// memory-budgeted streaming fold on every worker: frames fold one at a
	// time into a bounded skyline window that spills and multi-passes when
	// a local skyline outgrows it, so worker reduce memory stays near the
	// budget instead of scaling with partition size.
	ReducerBudgetBytes int64 `json:"reducer_budget_bytes,omitempty"`
}

// SpecFor fits a Spec to a dataset, following the paper's partition-count
// rule (2 × nodes) when partitions is given directly by the caller.
func SpecFor(data points.Set, scheme partition.Scheme, partitions int) (Spec, error) {
	if err := data.Validate(); err != nil {
		return Spec{}, fmt.Errorf("skyjob: %w", err)
	}
	min, max := data.Bounds()
	spec := Spec{
		Scheme:     scheme,
		Dim:        data.Dim(),
		Min:        min,
		Max:        max,
		Partitions: partitions,
	}
	if scheme == partition.Angular {
		ap, err := partition.FitAngular(data, partitions)
		if err != nil {
			return Spec{}, err
		}
		spec.AngularSplits = ap.Splits()
		spec.AngularCuts = ap.Cuts()
	}
	return spec, nil
}

// Build reconstructs the partitioner described by the spec.
func (s Spec) Build() (partition.Partitioner, error) {
	min, max := points.Point(s.Min), points.Point(s.Max)
	if len(min) != s.Dim || len(max) != s.Dim {
		return nil, fmt.Errorf("skyjob: spec bounds dimension mismatch")
	}
	switch s.Scheme {
	case partition.Dimensional:
		return partition.NewDimensional(0, min[0], max[0], s.Partitions, s.Dim)
	case partition.Grid:
		return partition.NewGrid(min, max, s.Partitions)
	case partition.Angular:
		if s.AngularSplits != nil {
			return partition.NewAngularWithCuts(min, s.AngularSplits, s.AngularCuts)
		}
		return partition.NewAngular(min, s.Dim, s.Partitions)
	case partition.Random:
		return partition.NewRandom(s.Dim, s.Partitions)
	default:
		return nil, fmt.Errorf("skyjob: unknown scheme %d", int(s.Scheme))
	}
}

func init() {
	rpcmr.RegisterJob(PartitionJobName, newPartitionJob)
	rpcmr.RegisterJob(MergeJobName, newMergeJob)
}

// folder returns the spec's reduce-side FrameFolder: the memory-budgeted
// fold when the spec carries a budget, otherwise kernel over each
// assembled partition.
func (s Spec) folder(kernel skyline.BlockFunc) mapreduce.FrameFolder {
	if s.ReducerBudgetBytes <= 0 {
		return mapreduce.KernelFolder(kernel)
	}
	return mapreduce.BudgetedFolder(s.Dim, s.ReducerBudgetBytes, "", s.Codec)
}

// assignMapper routes each row to its partition.
func assignMapper(part partition.Partitioner) mapreduce.BlockMapper {
	return mapreduce.BlockMapperFunc(func(blk *points.Block, emit mapreduce.EmitPoint) error {
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
}

// globalMapper sends every row to the one global partition — paper
// line 13: output(null, si).
var globalMapper = mapreduce.BlockMapperFunc(func(blk *points.Block, emit mapreduce.EmitPoint) error {
	for i := 0; i < blk.Len(); i++ {
		emit(0, blk.Row(i))
	}
	return nil
})

func newPartitionJob(params []byte) (rpcmr.Job, error) {
	var spec Spec
	if err := json.Unmarshal(params, &spec); err != nil {
		return rpcmr.Job{}, fmt.Errorf("skyjob: bad params: %w", err)
	}
	part, err := spec.Build()
	if err != nil {
		return rpcmr.Job{}, err
	}
	kernel := skyline.BlockByAlgorithm(spec.Kernel)
	return rpcmr.Job{
		BlockMapper: assignMapper(part),
		// The local-skyline combiner runs directly on the assembled block
		// before its frame is sealed for the wire.
		FrameCombiner: mapreduce.KernelCombiner(kernel),
		FrameFolder:   spec.folder(kernel),
		Codec:         spec.Codec,
	}, nil
}

func newMergeJob(params []byte) (rpcmr.Job, error) {
	var spec Spec
	if err := json.Unmarshal(params, &spec); err != nil {
		return rpcmr.Job{}, fmt.Errorf("skyjob: bad params: %w", err)
	}
	kernel := skyline.BlockByAlgorithm(spec.Kernel)
	return rpcmr.Job{
		BlockMapper:   globalMapper,
		FrameCombiner: mapreduce.KernelCombiner(kernel),
		// The single global reduce runs the parallel merge tree.
		FrameFolder: spec.folder(func(blk *points.Block) *points.Block {
			return skyline.ParallelBlock(context.Background(), blk, 0)
		}),
		Codec: spec.Codec,
	}, nil
}

// concatRows stacks a job's output blocks into one block, in ascending
// partition order — the next job's input.
func concatRows(blocks map[int]*points.Block) *points.Block {
	ids := make([]int, 0, len(blocks))
	for id := range blocks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := points.NewBlock(0, 0)
	for _, id := range ids {
		out.AppendBlock(blocks[id])
	}
	return out
}

// Result is the outcome of a distributed skyline computation.
type Result struct {
	Skyline points.Set
	// LocalSkylines maps partition id → local skyline (partition job
	// output).
	LocalSkylines map[int]points.Set
	// MapTime / ReduceTime aggregate the two jobs' phases in the paper's
	// Figure 6 sense: MapTime covers both jobs' map sides, ReduceTime
	// both jobs' reduce sides.
	MapTime, ReduceTime JobResultTiming
}

// JobResultTiming mirrors the rpcmr per-job split.
type JobResultTiming struct {
	PartitionJob, MergeJob float64 // seconds
}

// Optimality computes the paper's Eq. (5) local skyline optimality of the
// distributed run.
func (r *Result) Optimality() float64 {
	return metrics.LocalSkylineOptimality(r.LocalSkylines, r.Skyline)
}

// Compute runs the two-job skyline pipeline on a live rpcmr cluster.
// With a tracer in ctx it records a root span with Partitioning/Merging
// children; with a registry on the master it publishes per-partition
// local skyline sizes alongside the cluster's own series.
func Compute(ctx context.Context, master *rpcmr.Master, data points.Set, scheme partition.Scheme, partitions, reducers int) (*Result, error) {
	spec, err := SpecFor(data, scheme, partitions)
	if err != nil {
		return nil, err
	}
	return ComputeSpec(ctx, master, data, spec, reducers)
}

// ComputeSpec runs the pipeline with a caller-built Spec — the entry
// point for custom kernels, codecs and reducer budgets.
func ComputeSpec(ctx context.Context, master *rpcmr.Master, data points.Set, spec Spec, reducers int) (*Result, error) {
	params, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	ctx, rootSpan := telemetry.StartSpan(ctx, fmt.Sprintf("skyline:%s", spec.Scheme),
		telemetry.A("scheme", fmt.Sprint(spec.Scheme)),
		telemetry.A("points", len(data)),
		telemetry.A("partitions", spec.Partitions))
	defer rootSpan.End()
	rec := telemetry.RecorderFrom(ctx)
	// Pipeline narration goes to the master's event log (/debug/events);
	// every EventLog method is nil-safe, so no telemetry means no cost.
	ev := master.Events()
	if ev == nil {
		ev = telemetry.EventLogFrom(ctx)
	}
	ev.Info("pipeline start", telemetry.A("scheme", fmt.Sprint(spec.Scheme)),
		telemetry.A("points", len(data)), telemetry.A("partitions", spec.Partitions))
	// The partitioners may round the requested count up to a regular
	// shape (e.g. angular split products), so cover the count the built
	// partitioner actually uses — every planned partition appears in the
	// flight record even when it receives no data.
	if rec != nil {
		if p, err := spec.Build(); err == nil {
			rec.EnsurePartitions(p.Partitions())
		} else {
			rec.EnsurePartitions(spec.Partitions)
		}
	}
	input, ok := points.BlockOf(data)
	if !ok {
		return nil, fmt.Errorf("skyjob: input mixes dimensionalities")
	}
	partCtx, partSpan := telemetry.StartSpan(ctx, "partitioning-job")
	res1, err := master.Run(partCtx, rpcmr.JobSpec{Name: PartitionJobName, Params: params, Reducers: reducers}, input)
	partSpan.End()
	if err != nil {
		return nil, fmt.Errorf("skyjob: partitioning job: %w", err)
	}
	// Local skylines arrive as per-partition blocks; feed the merge job
	// their rows in ascending partition order.
	local := make(map[int]points.Set, len(res1.Blocks))
	for id, blk := range res1.Blocks {
		local[id] = blk.ToSet()
	}
	mergeInput := concatRows(res1.Blocks)
	if reg := master.Metrics(); reg != nil {
		for id, ls := range local {
			reg.Gauge("skyline_partition_local_size",
				telemetry.L("partition", strconv.Itoa(id))).Set(float64(len(ls)))
		}
	}
	// Partition job evidence: shuffle volume per partition and local
	// skyline sizes.
	for id, ps := range res1.Partitions {
		rec.AddPartitionShuffle(id, ps.Records, ps.Bytes)
	}
	for id, ls := range local {
		rec.SetLocalSkyline(id, len(ls))
	}
	ev.Info("partitioning job done",
		telemetry.A("local_skyline_points", mergeInput.Len()),
		telemetry.A("partitions_hit", len(local)))
	mergeCtx, mergeSpan := telemetry.StartSpan(ctx, "merging-job")
	res2, err := master.Run(mergeCtx, rpcmr.JobSpec{Name: MergeJobName, Params: params, Reducers: 1}, mergeInput)
	mergeSpan.End()
	if err != nil {
		return nil, fmt.Errorf("skyjob: merging job: %w", err)
	}
	var sky points.Set
	if blk := res2.Blocks[0]; blk != nil {
		sky = blk.ToSet()
	}
	if reg := master.Metrics(); reg != nil {
		reg.Gauge("skyline_global_size").Set(float64(len(sky)))
	}
	// Merge evidence: per-partition survivors (the Eq. (5) numerator) are
	// computed here, where local skylines and the global skyline are both
	// in hand, then the rollups are bridged into the master's registry.
	if rec != nil {
		for id, hits := range metrics.GlobalSurvivors(local, sky) {
			rec.SetGlobalSurvivors(id, hits)
		}
		rec.SetGlobalSkyline(len(sky))
		st := master.Status()
		rec.SetRetryCounts(st.TaskRetries, st.WorkerFailures)
		rec.Publish(master.Metrics())
	}
	ev.Info("pipeline end", telemetry.A("skyline_size", len(sky)))
	return &Result{
		Skyline:       sky,
		LocalSkylines: local,
		MapTime: JobResultTiming{
			PartitionJob: res1.MapTime.Seconds(),
			MergeJob:     res2.MapTime.Seconds(),
		},
		ReduceTime: JobResultTiming{
			PartitionJob: res1.ReduceTime.Seconds(),
			MergeJob:     res2.ReduceTime.Seconds(),
		},
	}, nil
}

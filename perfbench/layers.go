package main

import (
	"context"
	"time"

	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/skyline"
)

// layerMetrics lists every per-layer metric with its unit, in the order
// BENCHMARK.json names them. A traced run reports all of them; a layer the
// workload does not exercise reads 0. Layer times are busy seconds per
// job: time spent inside the layer, summed over the goroutines that ran
// it.
var layerMetrics = []struct{ name, unit string }{
	{"partition.fit_s", "s"},
	{"partition.assign_s", "s"},
	{"partition.assign_calls", "count"},
	{"partition.imbalance", "ratio"},
	{"partition.pruned_cells", "count"},
	{"points.encode_s", "s"},
	{"points.frame_s", "s"},
	{"points.frame_bytes", "bytes"},
	{"mapreduce.map_s.partition_job", "s"},
	{"mapreduce.shuffle_s.partition_job", "s"},
	{"mapreduce.reduce_s.partition_job", "s"},
	{"mapreduce.map_s.merge_job", "s"},
	{"mapreduce.shuffle_s.merge_job", "s"},
	{"mapreduce.reduce_s.merge_job", "s"},
	{"mapreduce.shuffle_records", "count"},
	{"mapreduce.shuffle_bytes", "bytes"},
	{"skyline.dominance_tests", "count"},
	{"skyline.local_s", "s"},
	{"skyline.merge_s", "s"},
	{"skyline.local_candidates", "count"},
	{"skyline.global_size", "count"},
	{"skyline.optimality", "ratio"},
	{"driver.glue_s", "s"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_bytes", "bytes"},
	{"runtime.alloc_objects", "count"},
	{"rpcmr.partition_job_s", "s"},
	{"rpcmr.merge_job_s", "s"},
	{"rpcmr.tasks", "count"},
	{"rpcmr.task_retries", "count"},
	{"rpcmr.task_s_p50", "s"},
	{"rpcmr.shuffle_bytes", "bytes"},
	{"registry.hit_s_p50", "s"},
	{"registry.miss_s_p50", "s"},
	{"registry.match_s_p50", "s"},
	{"registry.snapshot_s_p50", "s"},
	{"registry.cache_hit_ratio", "ratio"},
	{"registry.cache_evictions", "count"},
	{"registry.publish_in_skyline_ratio", "ratio"},
	{"serve.lateness_s_p99", "s"},
	{"trace.traced_ops", "count"},
	{"trace.job_s_p50", "s"},
	{"trace.unattributed_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// layerAcc accumulates one value per traced job for each layer metric;
// the reported figure is the mean over jobs.
type layerAcc map[string][]float64

func (a layerAcc) add(name string, v float64) { a[name] = append(a[name], v) }

// emitLayers sets every per-layer metric on rep: the mean of what acc
// holds for it, 0 where the workload never exercised the layer.
func emitLayers(rep *report, acc layerAcc) {
	for _, m := range layerMetrics {
		vs := acc[m.name]
		rep.set(m.name, div(sum(vs), float64(len(vs))), m.unit)
	}
}

// replayLayers re-runs, outside the job's wall time, the per-point and
// kernel layers one skyline job went through, on that job's own
// partitions and candidate union: per-point encoding of the input and of
// the merge input, frame building, the local block kernel per partition
// and the global merge. Each replay is one span under parent. When
// timeAssign is set the replay's partition assignment is timed too (the
// cluster job assigns inside its workers, where no wrapper reaches).
func replayLayers(ctx context.Context, tr *tracer, job, parent int64, data points.Set,
	part partition.Partitioner, local map[int]points.Set, timeAssign bool, acc layerAcc) error {
	sp := tr.start(job, parent, "points.encode")
	encoded := 0
	for _, p := range data {
		encoded += len(points.Encode(p))
	}
	candidates := 0
	for _, s := range local {
		for _, p := range s {
			encoded += len(points.Encode(p))
			candidates++
		}
	}
	sp.attr("bytes", float64(encoded))
	acc.add("points.encode_s", sp.end().Seconds())

	// Split the input into the job's partitions, dropping the ones the
	// partitioner proves dominated, exactly as the map phase does.
	d := data.Dim()
	sp = tr.start(job, parent, "partition.assign")
	ids := make([]int, len(data))
	counts := make([]int, part.Partitions())
	for i, p := range data {
		id, err := part.Assign(p)
		if err != nil {
			return err
		}
		ids[i] = id
		counts[id]++
	}
	sp.attr("calls", float64(len(data)))
	assign := sp.end()
	if timeAssign {
		acc.add("partition.assign_s", assign.Seconds())
		acc.add("partition.assign_calls", float64(len(data)))
		acc.add("partition.imbalance", partition.ImbalanceRatio(counts))
	}
	var pruned []bool
	if pr, ok := part.(partition.Pruner); ok {
		occupied := make([]bool, len(counts))
		for id, c := range counts {
			occupied[id] = c > 0
		}
		pruned = pr.Prunable(occupied)
	}
	blocks := make([]*points.Block, part.Partitions())
	for id, c := range counts {
		if c > 0 && (pruned == nil || !pruned[id]) {
			blocks[id] = points.NewBlock(d, c)
		}
	}
	for i, p := range data {
		if blk := blocks[ids[i]]; blk != nil {
			blk.AppendRow(p)
		}
	}
	union := points.NewBlock(d, candidates)
	for _, s := range local {
		for _, p := range s {
			union.AppendRow(p)
		}
	}

	sp = tr.start(job, parent, "points.frame")
	var buf []byte
	frameBytes := 0
	for id, blk := range blocks {
		if blk != nil {
			buf = points.AppendFrame(buf[:0], id, blk)
			frameBytes += len(buf)
		}
	}
	buf = points.AppendFrame(buf[:0], 0, union)
	frameBytes += len(buf)
	sp.attr("bytes", float64(frameBytes))
	acc.add("points.frame_s", sp.end().Seconds())
	acc.add("points.frame_bytes", float64(frameBytes))

	// Local kernels run one partition at a time, each timed on its own, so
	// the figure is busy time regardless of how the engine spread them.
	var localBusy time.Duration
	lsp := tr.start(job, parent, "skyline.local")
	for id, blk := range blocks {
		if blk == nil {
			continue
		}
		psp := tr.start(job, lsp.id(), "skyline.BlockBNL")
		psp.attr("partition", float64(id))
		psp.attr("points", float64(blk.Len()))
		out := skyline.BlockBNL(blk)
		psp.attr("survivors", float64(out.Len()))
		localBusy += psp.end()
	}
	lsp.end()
	acc.add("skyline.local_s", localBusy.Seconds())

	sp = tr.start(job, parent, "skyline.merge")
	sp.attr("candidates", float64(union.Len()))
	out := skyline.ParallelBlock(ctx, union, 1)
	sp.attr("survivors", float64(out.Len()))
	acc.add("skyline.merge_s", sp.end().Seconds())
	return nil
}

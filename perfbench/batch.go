package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/internal/driver"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/qws"
	"repro/internal/skyline"
)

// qwsBaseSeed fixes the 10,000-service QWS-like base that every QWS
// workload extends, the way the paper extends the one real QWS file: the
// run's seed drives the extension, and the skyline's size no longer
// swings with the base.
const (
	qwsBaseSeed = 20120521
	qwsBase     = 10_000
)

// qwsData extends the fixed QWS-like base to n services over d attributes.
func qwsData(seed int64, n, d int) points.Set {
	return qws.Extend(qws.Generate(qwsBaseSeed, qwsBase, d), seed, n)
}

// datasets makes a run's k inputs from its seed.
func datasets(seed int64, k int, gen func(seed int64) points.Set) []points.Set {
	out := make([]points.Set, k)
	for i := range out {
		out[i] = gen(seed*int64(k) + int64(i))
	}
	return out
}

// runQWS is the paper's dataset and three-method comparison: QWS-like
// services through in-process MR-Angle, MR-Grid and MR-Dim in turn.
func runQWS(cfg config, sz sizes) (*report, error) {
	data := datasets(cfg.seed, sz.datasets, func(s int64) points.Set { return qwsData(s, sz.n, sz.d) })
	return runBatch(cfg, sz, data, []partition.Scheme{partition.Angular, partition.Grid, partition.Dimensional})
}

// runAnti is the kernel-heavy contrast: anti-correlated points, whose
// huge skylines make the local kernel and the merge most of the job.
func runAnti(cfg config, sz sizes) (*report, error) {
	data := datasets(cfg.seed, sz.datasets, func(s int64) points.Set { return dataset.Anticorrelated(s, sz.n, sz.d) })
	return runBatch(cfg, sz, data, []partition.Scheme{partition.Angular})
}

// batchJob is one measured driver.Compute call.
type batchJob struct {
	scheme partition.Scheme
	wall   time.Duration
	sky    points.Set
	err    error
}

func driverOptions(sz sizes, s partition.Scheme) driver.Options {
	return driver.Options{Scheme: s, Nodes: sz.nodes, Workers: sz.workers}
}

func computeJob(ctx context.Context, data points.Set, opts driver.Options) batchJob {
	t0 := time.Now()
	sky, _, err := driver.Compute(ctx, data, opts)
	return batchJob{scheme: opts.Scheme, wall: time.Since(t0), sky: sky, err: err}
}

// batchInput is one dataset with its reference skyline.
type batchInput struct {
	data points.Set
	ref  points.Set
}

func references(data []points.Set) []batchInput {
	in := make([]batchInput, len(data))
	for i, d := range data {
		in[i] = batchInput{data: d, ref: canonical(skyline.SFS(d))}
	}
	return in
}

// runBatch drives driver.Compute over the run's datasets, cycling through
// schemes and then datasets for the measured window. The first scheme is
// the workload's primary op.
func runBatch(cfg config, sz sizes, data []points.Set, schemes []partition.Scheme) (*report, error) {
	ctx := context.Background()
	rep := newReport()
	in := references(data)

	// Set-up: the untimed warm-up MR-Angle jobs.
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		j := computeJob(ctx, in[0].data, driverOptions(sz, schemes[0]))
		rep.op(j.err == nil && sameSkyline(j.sky, in[0].ref))
		if j.err != nil {
			return nil, fmt.Errorf("warm-up job: %w", j.err)
		}
		setups = append(setups, j.wall.Seconds())
	}

	if cfg.trace {
		return rep, traceBatch(ctx, cfg, sz, in, schemes, rep)
	}

	runtime.GC()
	rt0 := readRuntime()
	var jobs []batchJob
	var inputs []int
	start := time.Now()
	for i := 0; window(start, cfg.seconds); i++ {
		k := (i / len(schemes)) % len(in)
		jobs = append(jobs, computeJob(ctx, in[k].data, driverOptions(sz, schemes[i%len(schemes)])))
		inputs = append(inputs, k)
	}
	rt := rt0.delta(readRuntime())

	// Per scheme, the job times on each dataset.
	walls := map[partition.Scheme][][]float64{}
	var total, pts float64
	for i, j := range jobs {
		rep.op(j.err == nil && sameSkyline(j.sky, in[inputs[i]].ref))
		if walls[j.scheme] == nil {
			walls[j.scheme] = make([][]float64, len(in))
		}
		walls[j.scheme][inputs[i]] = append(walls[j.scheme][inputs[i]], j.wall.Seconds())
		total += j.wall.Seconds()
		pts += float64(len(in[inputs[i]].data))
	}
	rss, err := rssPeakBytes()
	if err != nil {
		return nil, err
	}
	primary, _ := meanOfMedians(walls[schemes[0]])
	rep.set("setup_s", median(setups), "s")
	rep.set("op_s_p50", primary, "s")
	rep.set("work_per_s", div(pts, total), "1/s")
	rep.set("alloc_bytes_per_op", div(float64(rt.allocBytes), float64(len(jobs))), "bytes")
	rep.set("rss_peak_bytes", rss, "bytes")

	rep.note("setup_s", median(setups), "s")
	rep.note("points_per_s", div(pts, total), "1/s")
	for _, s := range schemes {
		v, n := meanOfMedians(walls[s])
		rep.note("job_s_p50."+schemeKey(s), v, "s")
		rep.note("jobs."+schemeKey(s), float64(n), "count")
	}
	rep.note("alloc_bytes_per_point", div(float64(rt.allocBytes), pts), "bytes")
	rep.note("rss_peak_bytes", rss, "bytes")
	rep.note("datasets", float64(len(in)), "count")
	for k, x := range in {
		rep.note(fmt.Sprintf("global_size.%d", k), float64(len(x.ref)), "count")
	}
	return rep, nil
}

// meanOfMedians averages the medians of the non-empty samples, one per
// dataset, so no single input's skyline size sets the figure. It also
// returns the number of values behind it.
func meanOfMedians(perInput [][]float64) (float64, int) {
	var meds []float64
	n := 0
	for _, w := range perInput {
		if len(w) > 0 {
			meds = append(meds, median(w))
			n += len(w)
		}
	}
	return div(sum(meds), float64(len(meds))), n
}

func schemeKey(s partition.Scheme) string {
	switch s {
	case partition.Angular:
		return "angle"
	case partition.Grid:
		return "grid"
	case partition.Dimensional:
		return "dim"
	default:
		return fmt.Sprint(s)
	}
}

// traceBatch is the traced run: each round, on the next dataset, runs
// one untraced MR-Angle job (the overhead baseline) and then every scheme
// traced. Per-layer figures are means over the traced MR-Angle jobs,
// except pruned cells, which only MR-Grid produces.
func traceBatch(ctx context.Context, cfg config, sz sizes, in []batchInput,
	schemes []partition.Scheme, rep *report) error {
	tr := newTracer()
	rep.spans = tr
	acc := layerAcc{}
	var untraced, traced []float64
	var job int64
	start := time.Now()
	for round := 0; window(start, cfg.seconds); round++ {
		x := in[round%len(in)]
		j := computeJob(ctx, x.data, driverOptions(sz, schemes[0]))
		rep.op(j.err == nil && sameSkyline(j.sky, x.ref))
		untraced = append(untraced, j.wall.Seconds())
		for _, s := range schemes {
			job++
			jobAcc := acc
			if s != schemes[0] {
				jobAcc = layerAcc{} // only the primary scheme feeds the layer means
			}
			wall, sky, st, err := tracedDriverJob(ctx, tr, job, x.data, driverOptions(sz, s), jobAcc)
			rep.op(err == nil && sameSkyline(sky, x.ref))
			if err != nil {
				return err
			}
			if s == partition.Grid {
				acc.add("partition.pruned_cells", float64(st.PrunedPartitions))
			}
			if s == schemes[0] {
				traced = append(traced, wall.Seconds())
			}
		}
	}
	acc.add("trace.traced_ops", float64(len(traced)))
	acc.add("trace.job_s_p50", median(traced))
	acc.add("trace.overhead_ratio", div(median(traced), median(untraced)))
	emitLayers(rep, acc)
	return nil
}

// tracedDriverJob runs one driver.Compute with the partitioner fitted by
// the benchmark and wrapped for timing, then replays the job's per-point
// and kernel layers. It returns the job's wall time (fit + Compute), its
// skyline and its stats.
func tracedDriverJob(ctx context.Context, tr *tracer, job int64, data points.Set,
	opts driver.Options, acc layerAcc) (time.Duration, points.Set, *driver.Stats, error) {
	root := tr.start(job, 0, "job:"+schemeKey(opts.Scheme))
	sp := tr.start(job, root.id(), "partition.fit")
	part, err := partition.New(opts.Scheme, data, 2*opts.Nodes)
	fit := sp.end()
	if err != nil {
		return 0, nil, nil, err
	}
	wrapped, tp := wrapTimed(part)
	opts.PartitionerOverride = wrapped

	dom0, rt0 := skyline.DominanceTests(), readRuntime()
	sp = tr.start(job, root.id(), "driver.Compute")
	sky, st, err := driver.Compute(ctx, data, opts)
	compute := sp.end()
	rt, dom := rt0.delta(readRuntime()), skyline.DominanceTests()-dom0
	if err != nil {
		return 0, nil, nil, err
	}
	wall := fit + compute
	engine := st.PartitionJob.Total + st.MergeJob.Total
	root.attr("wall_s", wall.Seconds())
	root.end()

	acc.add("partition.fit_s", fit.Seconds())
	acc.add("partition.assign_s", time.Duration(tp.nanos.Load()).Seconds())
	acc.add("partition.assign_calls", float64(tp.calls.Load()))
	acc.add("partition.imbalance", partition.ImbalanceRatio(st.PartitionCounts))
	acc.add("mapreduce.map_s.partition_job", st.PartitionJob.Map.Seconds())
	acc.add("mapreduce.shuffle_s.partition_job", st.PartitionJob.Shuffle.Seconds())
	acc.add("mapreduce.reduce_s.partition_job", st.PartitionJob.Reduce.Seconds())
	acc.add("mapreduce.map_s.merge_job", st.MergeJob.Map.Seconds())
	acc.add("mapreduce.shuffle_s.merge_job", st.MergeJob.Shuffle.Seconds())
	acc.add("mapreduce.reduce_s.merge_job", st.MergeJob.Reduce.Seconds())
	acc.add("mapreduce.shuffle_records", float64(st.Counters["mr.shuffle.records"]))
	acc.add("mapreduce.shuffle_bytes", float64(st.Counters["mr.shuffle.bytes"]))
	acc.add("skyline.dominance_tests", float64(dom))
	acc.add("skyline.local_candidates", float64(st.LocalSkylineTotal()))
	acc.add("skyline.global_size", float64(len(sky)))
	acc.add("skyline.optimality", metrics.LocalSkylineOptimality(st.LocalSkylines, sky))
	acc.add("driver.glue_s", (compute - engine).Seconds())
	acc.add("runtime.gc_cpu_s", rt.gcCPU)
	acc.add("runtime.gc_cycles", float64(rt.gcCycles))
	acc.add("runtime.alloc_bytes", float64(rt.allocBytes))
	acc.add("runtime.alloc_objects", float64(rt.allocObjects))

	rsp := tr.start(job, 0, "replay:"+schemeKey(opts.Scheme))
	encodeBefore := len(acc["points.encode_s"])
	if err := replayLayers(ctx, tr, job, rsp.id(), data, part, st.LocalSkylines, false, acc); err != nil {
		return 0, nil, nil, err
	}
	rsp.end()
	// The driver's own code between the engine jobs is mostly per-point
	// encoding; what the encode replay does not explain is unattributed.
	encode := acc["points.encode_s"][encodeBefore]
	acc.add("trace.unattributed_share", div((compute-engine).Seconds()-encode, wall.Seconds()))
	return wall, sky, st, nil
}

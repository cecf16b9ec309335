package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/rpcmr"
	"repro/internal/skyjob"
	"repro/internal/skyline"
	"repro/internal/telemetry"
)

// cluster is an in-process rpcmr master with its workers, talking over
// loopback TCP.
type cluster struct {
	master  *rpcmr.Master
	reg     *telemetry.Registry
	workers []*rpcmr.Worker
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// startCluster starts a master on a loopback port and n workers, and
// returns once every worker has registered. With observe set, the master
// gets a metrics registry (only the traced run reads it).
func startCluster(n int, observe bool) (*cluster, error) {
	mc := rpcmr.MasterConfig{Addr: "127.0.0.1:0"}
	var reg *telemetry.Registry
	if observe {
		reg = telemetry.NewRegistry()
		mc.Metrics = reg
	}
	m, err := rpcmr.NewMaster(mc)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &cluster{master: m, reg: reg, cancel: cancel}
	for i := 0; i < n; i++ {
		w, err := rpcmr.NewWorker(rpcmr.WorkerConfig{MasterAddr: m.Addr(), ID: fmt.Sprintf("w%d", i)})
		if err != nil {
			c.stop()
			return nil, err
		}
		c.workers = append(c.workers, w)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			_ = w.Run(ctx) // ends with the master's shutdown or ctx; either is expected here
		}()
	}
	return c, nil
}

// stop shuts the master down and waits for every worker loop to exit.
func (c *cluster) stop() {
	c.cancel()
	_ = c.master.Close() // best effort: the process is done with this cluster
	c.wg.Wait()
	for _, w := range c.workers {
		_ = w.Close()
	}
}

func (c *cluster) completed() int {
	n := 0
	for _, w := range c.workers {
		n += w.Completed()
	}
	return n
}

// clusterJob runs one checked MR-Angle job on the cluster and returns its
// wall time.
func clusterJob(ctx context.Context, c *cluster, x batchInput, sz sizes, rep *report) (time.Duration, error) {
	t0 := time.Now()
	res, err := skyjob.Compute(ctx, c.master, x.data, partition.Angular, 2*sz.nodes, sz.workers)
	d := time.Since(t0)
	rep.op(err == nil && sameSkyline(res.Skyline, x.ref))
	return d, err
}

// runCluster runs MR-Angle through skyjob on an in-process rpcmr cluster:
// the transport and scheduling layer does most of the work.
func runCluster(cfg config, sz sizes) (*report, error) {
	ctx := context.Background()
	rep := newReport()
	in := references(datasets(cfg.seed, sz.datasets, func(s int64) points.Set { return qwsData(s, sz.n, sz.d) }))

	// Set-up: master start, worker registration and the warm-up job.
	var c *cluster
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		if c != nil {
			c.stop()
		}
		t0 := time.Now()
		var err error
		if c, err = startCluster(sz.workers, cfg.trace); err != nil {
			return nil, err
		}
		if _, err := clusterJob(ctx, c, in[0], sz, rep); err != nil {
			c.stop()
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer c.stop()

	if cfg.trace {
		return rep, traceCluster(ctx, cfg, sz, c, in, rep)
	}

	runtime.GC()
	rt0 := readRuntime()
	var walls []float64
	perInput := make([][]float64, len(in))
	var pts float64
	start := time.Now()
	for i := 0; window(start, cfg.seconds); i++ {
		k := i % len(in)
		d, err := clusterJob(ctx, c, in[k], sz, rep)
		if err != nil {
			return nil, err
		}
		walls = append(walls, d.Seconds())
		perInput[k] = append(perInput[k], d.Seconds())
		pts += float64(len(in[k].data))
	}
	rt := rt0.delta(readRuntime())
	rss, err := rssPeakBytes()
	if err != nil {
		return nil, err
	}
	p50, _ := meanOfMedians(perInput)
	rep.set("setup_s", median(setups), "s")
	rep.set("op_s_p50", p50, "s")
	rep.set("work_per_s", div(pts, sum(walls)), "1/s")
	rep.set("alloc_bytes_per_op", div(float64(rt.allocBytes), float64(len(walls))), "bytes")
	rep.set("rss_peak_bytes", rss, "bytes")

	rep.note("setup_s", median(setups), "s")
	rep.note("points_per_s", div(pts, sum(walls)), "1/s")
	rep.note("job_s_p50.angle", p50, "s")
	rep.note("jobs.angle", float64(len(walls)), "count")
	rep.note("alloc_bytes_per_point", div(float64(rt.allocBytes), pts), "bytes")
	rep.note("rss_peak_bytes", rss, "bytes")
	rep.note("datasets", float64(len(in)), "count")
	return rep, nil
}

// traceCluster alternates an untraced job with a traced one. The traced
// job fits the partitioner itself (skyjob.SpecFor) so fit is timed apart,
// reads task, retry and shuffle figures from the master's status and
// metrics registry, and replays the job's per-point and kernel layers.
func traceCluster(ctx context.Context, cfg config, sz sizes, c *cluster, in []batchInput, rep *report) error {
	tr := newTracer()
	rep.spans = tr
	acc := layerAcc{}
	var untraced, traced []float64
	var job int64
	start := time.Now()
	for round := 0; window(start, cfg.seconds); round++ {
		x := in[round%len(in)]
		data := x.data
		d, err := clusterJob(ctx, c, x, sz, rep)
		if err != nil {
			return err
		}
		untraced = append(untraced, d.Seconds())

		job++
		snap0, done0, retries0 := c.reg.Snapshot(), c.completed(), c.master.Status().TaskRetries
		dom0, rt0 := skyline.DominanceTests(), readRuntime()
		root := tr.start(job, 0, "job:angle")
		sp := tr.start(job, root.id(), "partition.fit")
		spec, err := skyjob.SpecFor(data, partition.Angular, 2*sz.nodes)
		fit := sp.end()
		if err != nil {
			return err
		}
		sp = tr.start(job, root.id(), "skyjob.ComputeSpec")
		res, err := skyjob.ComputeSpec(ctx, c.master, data, spec, sz.workers)
		busy := sp.end()
		root.end()
		rt, dom := rt0.delta(readRuntime()), skyline.DominanceTests()-dom0
		rep.op(err == nil && sameSkyline(res.Skyline, x.ref))
		if err != nil {
			return err
		}
		snap := c.reg.Snapshot()
		wall := fit + busy
		traced = append(traced, wall.Seconds())
		partJob := res.MapTime.PartitionJob + res.ReduceTime.PartitionJob
		mergeJob := res.MapTime.MergeJob + res.ReduceTime.MergeJob

		acc.add("partition.fit_s", fit.Seconds())
		acc.add("rpcmr.partition_job_s", partJob)
		acc.add("rpcmr.merge_job_s", mergeJob)
		acc.add("rpcmr.tasks", float64(c.completed()-done0))
		acc.add("rpcmr.task_retries", float64(c.master.Status().TaskRetries-retries0))
		acc.add("rpcmr.task_s_p50", histogramMedian(snap0, snap, "rpcmr_task_seconds"))
		acc.add("rpcmr.shuffle_bytes", counterDelta(snap0, snap, "rpcmr_shuffle_bytes_total"))
		acc.add("skyline.dominance_tests", float64(dom))
		candidates := 0
		for _, s := range res.LocalSkylines {
			candidates += len(s)
		}
		acc.add("skyline.local_candidates", float64(candidates))
		acc.add("skyline.global_size", float64(len(res.Skyline)))
		acc.add("skyline.optimality", res.Optimality())
		glue := busy.Seconds() - partJob - mergeJob
		acc.add("driver.glue_s", glue)
		acc.add("runtime.gc_cpu_s", rt.gcCPU)
		acc.add("runtime.gc_cycles", float64(rt.gcCycles))
		acc.add("runtime.alloc_bytes", float64(rt.allocBytes))
		acc.add("runtime.alloc_objects", float64(rt.allocObjects))

		part, err := spec.Build()
		if err != nil {
			return err
		}
		rsp := tr.start(job, 0, "replay:angle")
		encodeBefore := len(acc["points.encode_s"])
		if err := replayLayers(ctx, tr, job, rsp.id(), data, part, res.LocalSkylines, true, acc); err != nil {
			return err
		}
		rsp.end()
		encode := acc["points.encode_s"][encodeBefore]
		acc.add("trace.unattributed_share", div(glue-encode, wall.Seconds()))
	}
	acc.add("trace.traced_ops", float64(len(traced)))
	acc.add("trace.job_s_p50", median(traced))
	acc.add("trace.overhead_ratio", div(median(traced), median(untraced)))
	emitLayers(rep, acc)
	return nil
}

// counterDelta sums the growth of every series of a counter family.
func counterDelta(a, b telemetry.Snapshot, family string) float64 {
	var d int64
	for id, v := range b.Counters {
		if seriesOf(id, family) {
			d += v - a.Counters[id]
		}
	}
	return float64(d)
}

// histogramMedian merges the growth of every series of a histogram
// family between two snapshots and interpolates its median within the
// bucket that holds it.
func histogramMedian(a, b telemetry.Snapshot, family string) float64 {
	var bounds []float64
	var counts []int64
	keys := make([]string, 0, len(b.Histograms))
	for id := range b.Histograms {
		keys = append(keys, id)
	}
	sort.Strings(keys)
	for _, id := range keys {
		if !seriesOf(id, family) {
			continue
		}
		h := b.Histograms[id]
		if bounds == nil {
			bounds, counts = h.Bounds, make([]int64, len(h.Counts))
		}
		prev := a.Histograms[id]
		for i, n := range h.Counts {
			if i < len(prev.Counts) {
				n -= prev.Counts[i]
			}
			counts[i] += n
		}
	}
	var total int64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	half := float64(total) / 2
	var seen float64
	for i, n := range counts {
		if seen+float64(n) < half || n == 0 {
			seen += float64(n)
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		if i >= len(bounds) {
			return lo // overflow bucket: its lower edge is all that is known
		}
		return lo + (half-seen)/float64(n)*(bounds[i]-lo)
	}
	return 0
}

func seriesOf(id, family string) bool {
	return id == family || strings.HasPrefix(id, family+"{")
}

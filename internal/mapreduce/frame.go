package mapreduce

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/points"
	"repro/internal/telemetry"
)

// Block-framed shuffle: the engine moves packed point frames
// (points.AppendFrame's partition + count + contiguous coordinates)
// between phases. Mappers emit (integer partition, coords) into pooled
// per-reducer frame builders — no string keys, no per-point allocation —
// combiners run directly on the assembled blocks before a frame is
// sealed, and reducers decode whole frames into contiguous blocks with
// zero per-point allocation.

// EmitPoint is the frame-path emit callback: it appends one point to the
// partition's building block, copying coords immediately, so callers may
// reuse the slice. Valid only for the duration of the MapBlock or Finish
// call.
type EmitPoint func(partition int, coords []float64)

// FrameCombiner folds one partition's assembled block map-side, before
// the frame is sealed — the paper's local-skyline combiner running
// directly on contiguous memory. It may return its argument (mutated or
// not) or a fresh block; the engine treats the input block as consumed.
// Must be safe for concurrent use.
type FrameCombiner func(partition int, block *points.Block) (*points.Block, error)

// PartStat tallies one partition's shuffle contribution: Records is the
// map-output point count routed to the partition (pre-combine — the
// partition's true load), Bytes the sealed frame payload it shipped
// (post-combine). The flight recorder turns these into the per-partition
// skew picture.
type PartStat struct {
	Records int64
	Bytes   int64
}

// FrameStats tallies one frame-path task, in the same units as the
// framework counters: record counts are points, byte counts are frame
// payload bytes (header + coordinates — never the transport envelope).
type FrameStats struct {
	MapOut       int64
	CombineIn    int64
	CombineOut   int64
	CombineNanos int64
	ShuffleRecs  int64
	ShuffleBytes int64
	Groups       int64
	ReduceIn     int64
	ReduceOut    int64
	// PeakBytes is the reduce task's working-set high-water mark (its
	// folds' resident bytes plus decode scratch). Aggregation takes the
	// max, not the sum — it is a per-task peak.
	PeakBytes int64
	// Passes counts multi-pass fold resolutions (max across folds); 1
	// means everything fit the window.
	Passes int
	// Partitions breaks the shuffle volume down by data-space partition
	// id (map tasks only; nil on the reduce side).
	Partitions map[int]PartStat
}

// add accumulates o into s.
func (s *FrameStats) add(o FrameStats) {
	s.MapOut += o.MapOut
	s.CombineIn += o.CombineIn
	s.CombineOut += o.CombineOut
	s.CombineNanos += o.CombineNanos
	s.ShuffleRecs += o.ShuffleRecs
	s.ShuffleBytes += o.ShuffleBytes
	s.Groups += o.Groups
	s.ReduceIn += o.ReduceIn
	s.ReduceOut += o.ReduceOut
	if o.PeakBytes > s.PeakBytes {
		s.PeakBytes = o.PeakBytes
	}
	if o.Passes > s.Passes {
		s.Passes = o.Passes
	}
	if len(o.Partitions) > 0 {
		if s.Partitions == nil {
			s.Partitions = make(map[int]PartStat, len(o.Partitions))
		}
		for id, ps := range o.Partitions {
			acc := s.Partitions[id]
			acc.Records += ps.Records
			acc.Bytes += ps.Bytes
			s.Partitions[id] = acc
		}
	}
}

// FrameResult is the outcome of a successful frame job.
type FrameResult struct {
	// Blocks maps partition id → that partition's reduce output. Contents
	// are deterministic: frames are assembled in reduce-task (and within a
	// task, map-task) order.
	Blocks   map[int]*points.Block
	Counters *Counters
	Timing   Timing
	// Partitions breaks the map-side shuffle volume down by data-space
	// partition id, for the flight recorder's skew picture.
	Partitions map[int]PartStat
	// ReducerPeakBytes is the largest working set any reduce task reached
	// (its folds' resident bytes plus decode scratch) — the number a
	// budgeted folder's budget is judged against.
	ReducerPeakBytes int64
	// MergePasses is the largest fold pass count any reduce task needed
	// (1 = single pass; >1 means a local skyline overflowed its window).
	MergePasses int
}

// ---------------------------------------------------------------------------
// Frame builders (map side)

// frameBuilder accumulates one map task's emissions as per-partition
// blocks. Builders and their blocks are pooled: a task borrows one,
// seals it into immutable frame streams, and returns it, so steady-state
// mapping allocates nothing per point.
type frameBuilder struct {
	blocks []*points.Block // indexed by partition id; nil until touched
	// combined holds the combiner's output per partition (nil: seal the
	// block itself), kept apart so the pooled blocks keep their capacity.
	combined []*points.Block
	touched  []int // partition ids with at least one emission
	err      error // sticky emit-side error (negative partition)
}

var frameBuilderPool = sync.Pool{New: func() any { return new(frameBuilder) }}

func (fb *frameBuilder) add(partition int, coords []float64) {
	if partition < 0 {
		if fb.err == nil {
			fb.err = fmt.Errorf("mapreduce: negative partition id %d emitted", partition)
		}
		return
	}
	for partition >= len(fb.blocks) {
		fb.blocks = append(fb.blocks, nil)
	}
	blk := fb.blocks[partition]
	if blk == nil {
		blk = points.NewBlock(0, 0)
		fb.blocks[partition] = blk
	}
	if blk.Len() == 0 {
		fb.touched = append(fb.touched, partition)
	}
	blk.AppendRow(coords)
}

// reset clears touched blocks (keeping their capacity) for pooling.
func (fb *frameBuilder) reset() {
	for _, p := range fb.touched {
		if fb.blocks[p] != nil {
			fb.blocks[p].Clear()
		}
		if p < len(fb.combined) {
			fb.combined[p] = nil
		}
	}
	fb.touched = fb.touched[:0]
	fb.err = nil
}

// seal encodes every touched partition's block into per-reducer frame
// streams (partition p goes to reducer p mod reducers), in ascending
// partition order for determinism. When parts is non-nil the payload
// bytes are also booked per partition. codec selects the frame wire
// codec (FrameDefault → v1, the historical bytes).
func (fb *frameBuilder) seal(reducers int, parts map[int]PartStat, codec points.FrameCodec) (streams [][]byte, recs, bytes int64) {
	streams = make([][]byte, reducers)
	sort.Ints(fb.touched)
	for _, p := range fb.touched {
		blk := fb.blocks[p]
		if p < len(fb.combined) && fb.combined[p] != nil {
			blk = fb.combined[p]
		}
		if blk == nil || blk.Len() == 0 {
			continue
		}
		r := p % reducers
		before := len(streams[r])
		streams[r] = points.AppendFrameCodec(streams[r], p, blk, codec)
		recs += int64(blk.Len())
		frameBytes := int64(len(streams[r]) - before)
		bytes += frameBytes
		if parts != nil {
			ps := parts[p]
			ps.Bytes += frameBytes
			parts[p] = ps
		}
	}
	return streams, recs, bytes
}

// MapFrames runs the block mapper (and optional combiner) over one map
// task's input block, returning one sealed frame stream per reducer plus
// the task's tallies. It is the map half of the frame shuffle, shared by
// the in-process engine and the rpcmr workers so both move identical
// bytes. codec picks the sealed frames' wire codec.
func MapFrames(blk *points.Block, reducers int, mapper BlockMapper, combiner FrameCombiner, codec points.FrameCodec) ([][]byte, FrameStats, error) {
	fb := frameBuilderPool.Get().(*frameBuilder)
	defer func() {
		fb.reset()
		frameBuilderPool.Put(fb)
	}()
	if err := mapper.MapBlock(blk, fb.add); err != nil {
		return nil, FrameStats{}, err
	}
	return fb.combineAndSeal(reducers, combiner, codec)
}

// combineAndSeal finishes one map task's builder: it tallies the
// per-partition map output, runs the combiner over every touched block
// and seals the blocks into one frame stream per reducer.
func (fb *frameBuilder) combineAndSeal(reducers int, combiner FrameCombiner, codec points.FrameCodec) ([][]byte, FrameStats, error) {
	var st FrameStats
	if fb.err != nil {
		return nil, st, fb.err
	}
	if reducers < 1 {
		reducers = 1
	}
	st.Partitions = make(map[int]PartStat, len(fb.touched))
	for _, p := range fb.touched {
		n := int64(fb.blocks[p].Len())
		st.MapOut += n
		st.Partitions[p] = PartStat{Records: n}
	}
	if combiner != nil {
		cs := time.Now()
		for len(fb.combined) < len(fb.blocks) {
			fb.combined = append(fb.combined, nil)
		}
		for _, p := range fb.touched {
			blk := fb.blocks[p]
			if blk.Len() == 0 {
				continue
			}
			st.CombineIn += int64(blk.Len())
			out, err := combiner(p, blk)
			if err != nil {
				return nil, st, fmt.Errorf("frame combiner: %w", err)
			}
			fb.combined[p] = out
			st.CombineOut += int64(out.Len())
		}
		st.CombineNanos = time.Since(cs).Nanoseconds()
	}
	streams, recs, bytes := fb.seal(reducers, st.Partitions, codec)
	st.ShuffleRecs, st.ShuffleBytes = recs, bytes
	return streams, st, nil
}

// AssembleFrames decodes frame streams into per-partition blocks,
// appending in stream order — zero allocation per point, one block per
// distinct partition. Exported so frame consumers outside the engine
// (the rpcmr master, pipeline drivers) decode output streams the same
// way reduce tasks do.
func AssembleFrames(streams [][]byte) (map[int]*points.Block, error) {
	parts := make(map[int]*points.Block)
	for _, stream := range streams {
		for len(stream) > 0 {
			// Peek the owning partition, then decode straight into its block.
			p, _, err := points.FrameCount(stream)
			if err != nil {
				return nil, fmt.Errorf("mapreduce: bad frame: %w", err)
			}
			blk := parts[p]
			if blk == nil {
				blk = points.NewBlock(0, 0)
				parts[p] = blk
			}
			if _, rest, err := points.DecodeFrame(blk, stream); err != nil {
				return nil, fmt.Errorf("mapreduce: bad frame: %w", err)
			} else {
				stream = rest
			}
		}
	}
	return parts, nil
}

// ---------------------------------------------------------------------------
// In-process frame job execution

// frameTaskOutput is one map task's sealed output.
type frameTaskOutput struct {
	streams [][]byte // per reducer; nil when spilled
	files   []string // spill file per reducer; nil when in memory
	recs    int64    // points entering the shuffle
	bytes   int64    // frame payload bytes entering the shuffle
	parts   map[int]PartStat
	// combineNanos rides along so the map phase can sum combiner time
	// without another channel.
	combineNanos int64
}

// runJob is the job shell: nTasks map tasks (each run by mapTask, which
// reports how many input rows it read), the bookkeeping-only shuffle,
// then the reduce tasks streaming their frames through folder's folds.
// cfg must already carry its defaults.
func runJob(ctx context.Context, cfg Config, nTasks int, mapTask func(task int, counters *Counters) (frameTaskOutput, int, error), folder FrameFolder, attrs ...telemetry.Attr) (*FrameResult, error) {
	counters := NewCounters()
	start := time.Now()
	cfg.emit("job-start", "", -1, "")
	ctx, jobSpan := telemetry.StartSpan(ctx, "mr-job:"+cfg.Name,
		append([]telemetry.Attr{telemetry.A("job", cfg.Name), telemetry.A("workers", cfg.Workers),
			telemetry.A("reducers", cfg.Reducers)}, attrs...)...)
	fail := func(err error) (*FrameResult, error) {
		cfg.emit("job-end", "", -1, err.Error())
		jobSpan.SetAttr("error", err.Error())
		jobSpan.End()
		return nil, err
	}

	// --- Map (+ combine) -----------------------------------------------
	cfg.emit("phase-start", "map", -1, "")
	mapCtx, mapSpan := telemetry.StartSpan(ctx, "map", telemetry.A("tasks", nTasks))
	mapStart := time.Now()
	outputs, err := runFrameMapPhase(mapCtx, cfg, nTasks, mapTask, counters)
	mapSpan.End()
	// Spill files must not outlive the job, whatever happens after this
	// point.
	defer removeFrameSpills(outputs)
	if err != nil {
		return fail(err)
	}
	var combineNanos int64
	for _, out := range outputs {
		combineNanos += out.combineNanos
	}
	mapDur := time.Since(mapStart)
	cfg.emitEvent(Event{Kind: "phase-end", Phase: "map", Task: -1,
		Duration: mapDur, Records: counters.Get(CounterMapOut)})

	// --- Shuffle ---------------------------------------------------------
	// Frames are already partitioned per reducer when map tasks seal them,
	// so the in-memory shuffle is zero-copy: this phase only books the
	// counters. (Spilled frames are read back inside the reduce tasks,
	// landing in Reduce time, as on a cluster where reducers pull map
	// outputs.)
	cfg.emit("phase-start", "shuffle", -1, "")
	_, shuffleSpan := telemetry.StartSpan(ctx, "shuffle")
	shuffleStart := time.Now()
	var shufRecs, shufBytes int64
	partStats := make(map[int]PartStat)
	for _, out := range outputs {
		shufRecs += out.recs
		shufBytes += out.bytes
		for id, ps := range out.parts {
			acc := partStats[id]
			acc.Records += ps.Records
			acc.Bytes += ps.Bytes
			partStats[id] = acc
		}
	}
	counters.Add(CounterShuffle, shufRecs)
	counters.Add(CounterShuffleBytes, shufBytes)
	shuffleSpan.End()
	shuffleDur := time.Since(shuffleStart)
	cfg.emitEvent(Event{Kind: "phase-end", Phase: "shuffle", Task: -1,
		Duration: shuffleDur, Records: shufRecs})

	// --- Reduce ----------------------------------------------------------
	cfg.emit("phase-start", "reduce", -1, "")
	redCtx, reduceSpan := telemetry.StartSpan(ctx, "reduce", telemetry.A("tasks", cfg.Reducers))
	reduceStart := time.Now()
	blocks, redStats, err := runFrameReducePhase(redCtx, cfg, outputs, folder, counters)
	reduceSpan.End()
	if err != nil {
		return fail(err)
	}
	reduceDur := time.Since(reduceStart)
	cfg.emitEvent(Event{Kind: "phase-end", Phase: "reduce", Task: -1,
		Duration: reduceDur, Records: counters.Get(CounterReduceOut)})
	cfg.emit("job-end", "", -1, "")
	jobSpan.End()

	res := &FrameResult{
		Blocks:           blocks,
		Counters:         counters,
		Partitions:       partStats,
		ReducerPeakBytes: redStats.PeakBytes,
		MergePasses:      redStats.Passes,
		Timing: Timing{
			Map:     mapDur,
			Combine: time.Duration(combineNanos),
			Shuffle: shuffleDur,
			Reduce:  reduceDur,
			Total:   time.Since(start),
		},
	}
	bridgeCounters(cfg, counters, res.Timing)
	return res, nil
}

func runFrameMapPhase(ctx context.Context, cfg Config, nTasks int, mapTask func(task int, counters *Counters) (frameTaskOutput, int, error), counters *Counters) ([]frameTaskOutput, error) {
	outputs := make([]frameTaskOutput, nTasks)
	err := runTasks(ctx, cfg.Workers, nTasks, func(worker, task int) error {
		var lastErr error
		cfg.emit("task-start", "map", task, "")
		_, span := telemetry.StartSpan(ctx, "map-task", telemetry.A("task", task))
		span.SetTrack(worker + 1)
		taskStart := time.Now()
		for attempt := 1; attempt <= cfg.MaxAttempts; attempt++ {
			if attempt > 1 {
				counters.Add(CounterMapRetries, 1)
				cfg.emit("task-retry", "map", task, lastErr.Error())
			}
			out, n, err := mapTask(task, counters)
			if err == nil {
				outputs[task] = out
				span.SetAttr("records", n)
				span.End()
				cfg.emitEvent(Event{Kind: "task-end", Phase: "map", Task: task,
					Worker: worker + 1, Duration: time.Since(taskStart), Records: int64(n)})
				return nil
			}
			lastErr = err
		}
		span.SetAttr("error", lastErr.Error())
		span.End()
		cfg.emitEvent(Event{Kind: "task-end", Phase: "map", Task: task, Err: lastErr.Error(),
			Worker: worker + 1, Duration: time.Since(taskStart)})
		return fmt.Errorf("mapreduce: %s: map task %d failed after %d attempt(s): %w",
			cfg.Name, task, cfg.MaxAttempts, lastErr)
	})
	return outputs, err
}

// finishMapTask books one map task's tallies and keeps its sealed
// streams in memory, or spills them when cfg.SpillDir is set.
func finishMapTask(cfg Config, task int, streams [][]byte, st FrameStats, counters *Counters) (frameTaskOutput, error) {
	counters.Add(CounterMapOut, st.MapOut)
	if st.CombineIn > 0 {
		counters.Add(CounterCombineIn, st.CombineIn)
		counters.Add(CounterCombineOut, st.CombineOut)
	}
	out := frameTaskOutput{recs: st.ShuffleRecs, bytes: st.ShuffleBytes,
		parts: st.Partitions, combineNanos: st.CombineNanos}
	if cfg.SpillDir == "" {
		out.streams = streams
		return out, nil
	}
	files, err := spillFrameStreams(cfg, task, streams, counters)
	if err != nil {
		return frameTaskOutput{}, err
	}
	out.files = files
	return out, nil
}

func runFrameReducePhase(ctx context.Context, cfg Config, outputs []frameTaskOutput, folder FrameFolder, counters *Counters) (map[int]*points.Block, FrameStats, error) {
	outStreams := make([][]byte, cfg.Reducers)
	var aggMu sync.Mutex
	var agg FrameStats
	err := runTasks(ctx, cfg.Workers, cfg.Reducers, func(worker, r int) error {
		var lastErr error
		cfg.emit("task-start", "reduce", r, "")
		_, span := telemetry.StartSpan(ctx, "reduce-task", telemetry.A("task", r))
		span.SetTrack(worker + 1)
		taskStart := time.Now()
		for attempt := 1; attempt <= cfg.MaxAttempts; attempt++ {
			if attempt > 1 {
				counters.Add(CounterRedRetries, 1)
				cfg.emit("task-retry", "reduce", r, lastErr.Error())
			}
			out, st, err := runReduceTask(cfg, r, outputs, folder)
			if err == nil {
				outStreams[r] = out
				counters.Add(CounterGroups, st.Groups)
				counters.Add(CounterReduceIn, st.ReduceIn)
				counters.Add(CounterReduceOut, st.ReduceOut)
				aggMu.Lock()
				agg.add(st)
				aggMu.Unlock()
				span.SetAttr("records", int(st.ReduceOut))
				span.End()
				cfg.emitEvent(Event{Kind: "task-end", Phase: "reduce", Task: r,
					Worker: worker + 1, Duration: time.Since(taskStart),
					Records: st.ReduceOut})
				return nil
			}
			lastErr = err
		}
		span.SetAttr("error", lastErr.Error())
		span.End()
		cfg.emitEvent(Event{Kind: "task-end", Phase: "reduce", Task: r, Err: lastErr.Error(),
			Worker: worker + 1, Duration: time.Since(taskStart)})
		return fmt.Errorf("mapreduce: %s: reduce task %d failed after %d attempt(s): %w",
			cfg.Name, r, cfg.MaxAttempts, lastErr)
	})
	if err != nil {
		return nil, agg, err
	}
	// Decode the per-task output streams into the result blocks, in
	// reduce-task order for determinism.
	blocks, err := AssembleFrames(outStreams)
	if err != nil {
		return nil, agg, fmt.Errorf("mapreduce: %s: assembling reduce output: %w", cfg.Name, err)
	}
	return blocks, agg, nil
}

// removeFrameSpills deletes every spill file of a finished frame job.
func removeFrameSpills(outputs []frameTaskOutput) {
	for _, out := range outputs {
		for _, f := range out.files {
			if f != "" {
				_ = os.Remove(f)
			}
		}
	}
}

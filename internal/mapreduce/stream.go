package mapreduce

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/points"
	"repro/internal/telemetry"
)

// The reduce side: every reduce task feeds its frames — decoded one at a
// time, straight off the spill file via frameSpillReader when the
// shuffle spilled — into a FrameFold per partition, so what a reduce
// task holds is up to its folds: an assembling fold (KernelFolder) holds
// its partition's block, a budgeted fold (BudgetedFolder) a bounded
// window, plus one frame of decode scratch either way.

// FrameFold is incremental per-partition reduce state: Absorb is called
// once per arriving frame block (the block is scratch — copy what must
// survive), then Finish emits the fold's result. Implementations need
// not be safe for concurrent use; the engine creates one fold per
// partition and drives it from a single goroutine.
type FrameFold interface {
	Absorb(blk *points.Block) error
	Finish(emit EmitPoint) error
}

// FrameFolder creates the fold for one partition — called lazily the
// first time a reduce task sees a frame for that partition. Must be safe
// for concurrent use (reduce tasks run in parallel).
type FrameFolder func(partition int) FrameFold

// FoldPeaker is optionally implemented by folds that track their
// working-set high-water mark; the engine sums the peaks into
// FrameStats.PeakBytes / FrameResult.ReducerPeakBytes.
type FoldPeaker interface {
	PeakBytes() int64
	Passes() int
}

// FrameSource yields one shuffle frame at a time; io.EOF ends the
// stream. It abstracts spilled runs (frameSpillReader) and in-memory
// sealed streams so the reduce side treats both identically.
type FrameSource interface {
	Next() ([]byte, error)
}

// StreamFrameSource adapts one sealed in-memory frame stream to a
// FrameSource — for callers outside the engine (rpcmr workers) feeding
// ReduceFramesStream from transport buffers.
func StreamFrameSource(stream []byte) FrameSource {
	return &memFrameSource{rest: stream}
}

// memFrameSource slices one sealed in-memory stream back into frames.
type memFrameSource struct {
	rest []byte
}

func (m *memFrameSource) Next() ([]byte, error) {
	if len(m.rest) == 0 {
		return nil, io.EOF
	}
	n, err := points.FrameLen(m.rest)
	if err != nil {
		return nil, err
	}
	frame := m.rest[:n]
	m.rest = m.rest[n:]
	return frame, nil
}

// ReduceFramesStream drains every source in order, folding each frame
// into its partition's fold, then finishes the folds in ascending
// partition order and seals the emissions into one output frame stream.
// It is the reduce half of the frame shuffle, shared by the in-process
// engine's reduce tasks and the rpcmr workers. Sources are closed by the
// caller.
func ReduceFramesStream(srcs []FrameSource, folder FrameFolder, codec points.FrameCodec) ([]byte, FrameStats, error) {
	var st FrameStats
	folds := make(map[int]FrameFold)
	scratch := points.NewBlock(0, 0)
	var maxFrame int64
	for _, src := range srcs {
		for {
			frame, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, st, err
			}
			p, count, err := points.FrameCount(frame)
			if err != nil {
				return nil, st, fmt.Errorf("mapreduce: bad frame: %w", err)
			}
			if count == 0 {
				continue
			}
			scratch.Clear()
			if _, _, err := points.DecodeFrame(scratch, frame); err != nil {
				return nil, st, fmt.Errorf("mapreduce: bad frame: %w", err)
			}
			fold := folds[p]
			if fold == nil {
				fold = folder(p)
				folds[p] = fold
				st.Groups++
			}
			st.ReduceIn += int64(count)
			if err := fold.Absorb(scratch); err != nil {
				return nil, st, err
			}
			if fb := int64(len(frame)); fb > maxFrame {
				maxFrame = fb
			}
		}
	}
	fb := frameBuilderPool.Get().(*frameBuilder)
	defer func() {
		fb.reset()
		frameBuilderPool.Put(fb)
	}()
	for _, p := range sortedInts(folds) {
		if err := folds[p].Finish(fb.add); err != nil {
			return nil, st, err
		}
	}
	if fb.err != nil {
		return nil, st, fb.err
	}
	out, recs, _ := fb.seal(1, nil, codec)
	st.ReduceOut = recs
	st.Passes = 1
	st.PeakBytes = maxFrame
	for _, fold := range folds {
		if pk, ok := fold.(FoldPeaker); ok {
			st.PeakBytes += pk.PeakBytes()
			if n := pk.Passes(); n > st.Passes {
				st.Passes = n
			}
		}
	}
	return out[0], st, nil
}

// sortedInts returns the map's partition ids ascending.
func sortedInts[V any](m map[int]V) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// runReduceTask folds reducer r's frames, read from memory or spill one
// frame at a time in map-task order.
func runReduceTask(cfg Config, r int, outputs []frameTaskOutput, folder FrameFolder) ([]byte, FrameStats, error) {
	var srcs []FrameSource
	var open []*frameSpillReader
	defer func() {
		for _, sr := range open {
			sr.Close()
		}
	}()
	for _, out := range outputs {
		if out.files != nil {
			if r < len(out.files) && out.files[r] != "" {
				sr, err := openFrameSpill(out.files[r])
				if err != nil {
					return nil, FrameStats{}, fmt.Errorf("mapreduce: %s: opening frame spill: %w", cfg.Name, err)
				}
				open = append(open, sr)
				srcs = append(srcs, sr)
			}
			continue
		}
		if r < len(out.streams) && len(out.streams[r]) > 0 {
			srcs = append(srcs, &memFrameSource{rest: out.streams[r]})
		}
	}
	return ReduceFramesStream(srcs, folder, cfg.Codec)
}

// ---------------------------------------------------------------------------
// Chunked input: the map side

// ChunkSource provides a job's input as random-access chunks: one map
// task per chunk, each read directly into a block, so the input never
// exists as per-point records. ReadChunk must be safe for concurrent use
// and re-readable (task retry).
type ChunkSource interface {
	Chunks() int
	ReadChunk(i int, blk *points.Block) error
}

// BlockMapper routes one input block's rows to partitions. Must be safe
// for concurrent use.
type BlockMapper interface {
	MapBlock(blk *points.Block, emit EmitPoint) error
}

// BlockMapperFunc adapts a function to the BlockMapper interface.
type BlockMapperFunc func(blk *points.Block, emit EmitPoint) error

// MapBlock implements BlockMapper.
func (f BlockMapperFunc) MapBlock(blk *points.Block, emit EmitPoint) error { return f(blk, emit) }

// SetSource serves an in-memory point set as consecutive chunks of split
// rows (the last one shorter); split < 1 serves the whole set as one
// chunk. Each ReadChunk copies its rows once into a presized block, so a
// job over the whole set allocates its n×d coordinates once.
func SetSource(rows points.Set, split int) ChunkSource {
	if split < 1 {
		split = max(len(rows), 1)
	}
	return setSource{rows: rows, split: split}
}

type setSource struct {
	rows  points.Set
	split int
}

func (s setSource) Chunks() int { return (len(s.rows) + s.split - 1) / s.split }

func (s setSource) ReadChunk(i int, blk *points.Block) error {
	lo := i * s.split
	chunk, ok := points.BlockOf(s.rows[lo:min(lo+s.split, len(s.rows))])
	if !ok {
		return fmt.Errorf("mapreduce: chunk %d mixes dimensionalities", i)
	}
	*blk = *chunk // adopt the presized copy
	return nil
}

// Run executes one MapReduce job: src is read one chunk per map task,
// mapper routes each chunk's rows to partitions, combiner (may be nil)
// folds each partition's block map-side before its frame is sealed,
// sealed frames spill to cfg.SpillDir when set, and every reduce task
// streams its frames through per-partition folds created by folder. It
// blocks until the job completes, fails, or ctx is cancelled. Nothing in
// the pipeline holds more of the input than the chunks in flight:
// map-side memory is workers × (chunk + sealed frames), reduce-side the
// folds' state plus one frame of decode scratch.
func Run(ctx context.Context, cfg Config, src ChunkSource, mapper BlockMapper, combiner FrameCombiner, folder FrameFolder) (*FrameResult, error) {
	if src == nil || mapper == nil || folder == nil {
		return nil, fmt.Errorf("mapreduce: %s: source, mapper and folder must be non-nil", cfg.Name)
	}
	chunks := src.Chunks()
	cfg = cfg.withDefaults()
	mapTask := func(task int, counters *Counters) (frameTaskOutput, int, error) {
		return runMapTask(cfg, task, src, mapper, combiner, counters)
	}
	return runJob(ctx, cfg, chunks, mapTask, folder,
		telemetry.A("chunks", chunks), telemetry.A("shuffle", "frames"))
}

// runMapTask reads one chunk and maps, combines, seals and (optionally)
// spills it.
func runMapTask(cfg Config, task int, src ChunkSource, mapper BlockMapper, combiner FrameCombiner, counters *Counters) (frameTaskOutput, int, error) {
	blk := points.NewBlock(0, 0)
	if err := src.ReadChunk(task, blk); err != nil {
		return frameTaskOutput{}, 0, fmt.Errorf("mapreduce: %s: reading chunk %d: %w", cfg.Name, task, err)
	}
	n := blk.Len()
	counters.Add(CounterMapIn, int64(n))
	streams, st, err := MapFrames(blk, cfg.Reducers, mapper, combiner, cfg.Codec)
	if err != nil {
		return frameTaskOutput{}, 0, err
	}
	out, err := finishMapTask(cfg, task, streams, st, counters)
	return out, n, err
}

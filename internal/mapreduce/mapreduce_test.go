package mapreduce

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/points"
)

// Word count over frames — the canonical smoke test for any MapReduce
// engine. Every word of a fixed vocabulary owns one partition; mappers
// emit a one-dimensional [1] point per word and reducers sum them.

var wcDocs = []string{
	"the quick brown fox",
	"the lazy dog",
	"the quick dog jumps",
	"fox and dog and fox",
}

var wcWant = map[string]int{
	"the": 3, "quick": 2, "brown": 1, "fox": 3, "lazy": 1,
	"dog": 3, "jumps": 1, "and": 2,
}

// vocabulary numbers the distinct words of docs in sorted order.
func vocabulary(docs []string) (ids map[string]int, words []string) {
	ids = map[string]int{}
	for _, d := range docs {
		for _, w := range strings.Fields(d) {
			ids[w] = 0
		}
	}
	for w := range ids {
		words = append(words, w)
	}
	sort.Strings(words)
	for i, w := range words {
		ids[w] = i
	}
	return ids, words
}

// wordMapper emits one [1] point per word, routed to the word's partition.
func wordMapper(ids map[string]int) FrameMapper {
	one := []float64{1}
	return FrameMapperFunc(func(rec []byte, emit EmitPoint) error {
		for _, w := range strings.Fields(string(rec)) {
			id, ok := ids[w]
			if !ok {
				return fmt.Errorf("word %q not in vocabulary", w)
			}
			emit(id, one)
		}
		return nil
	})
}

// columnSum sums a block's first column.
func columnSum(blk *points.Block) float64 {
	total := 0.0
	for i := 0; i < blk.Len(); i++ {
		total += blk.Row(i)[0]
	}
	return total
}

// sumReducer emits one point per partition holding its rows' sum.
var sumReducer = FrameReducerFunc(func(partition int, blk *points.Block, emit EmitPoint) error {
	emit(partition, []float64{columnSum(blk)})
	return nil
})

// sumCombiner folds a map-side block to its one-row sum.
func sumCombiner(partition int, blk *points.Block) (*points.Block, error) {
	out := points.NewBlock(1, 1)
	out.AppendRow([]float64{columnSum(blk)})
	return out, nil
}

func docsInput(docs []string) [][]byte {
	input := make([][]byte, len(docs))
	for i, d := range docs {
		input[i] = []byte(d)
	}
	return input
}

// wordCountJob runs word count over docs and returns word → count.
func wordCountJob(t *testing.T, cfg Config, docs []string, combiner FrameCombiner) map[string]int {
	t.Helper()
	ids, words := vocabulary(docs)
	res, err := RunFrames(context.Background(), cfg, docsInput(docs), wordMapper(ids), combiner, sumReducer)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int{}
	for id, blk := range res.Blocks {
		if blk.Len() != 1 {
			t.Fatalf("partition %d: %d output rows, want 1", id, blk.Len())
		}
		out[words[id]] = int(blk.Row(0)[0])
	}
	return out
}

func requireWordCounts(t *testing.T, got map[string]int) {
	t.Helper()
	if len(got) != len(wcWant) {
		t.Fatalf("got %v, want %v", got, wcWant)
	}
	for k, v := range wcWant {
		if got[k] != v {
			t.Errorf("count[%q] = %d, want %d", k, got[k], v)
		}
	}
}

func TestWordCount(t *testing.T) {
	requireWordCounts(t, wordCountJob(t, Config{Name: "wc", Workers: 4, Reducers: 3, SplitSize: 1}, wcDocs, nil))
}

func TestWordCountWithCombiner(t *testing.T) {
	cfg := Config{Name: "wc-comb", Workers: 2, Reducers: 2, SplitSize: 2}
	requireWordCounts(t, wordCountJob(t, cfg, wcDocs, sumCombiner))
}

func TestCombinerReducesShuffleVolume(t *testing.T) {
	docs := make([]string, 100)
	for i := range docs {
		docs[i] = "same-key"
	}
	ids, _ := vocabulary(docs)
	input := docsInput(docs)
	noComb, err := RunFrames(context.Background(), Config{Workers: 2, SplitSize: 10}, input, wordMapper(ids), nil, sumReducer)
	if err != nil {
		t.Fatal(err)
	}
	withComb, err := RunFrames(context.Background(), Config{Workers: 2, SplitSize: 10}, input, wordMapper(ids), sumCombiner, sumReducer)
	if err != nil {
		t.Fatal(err)
	}
	if n, w := noComb.Counters.Get(CounterShuffle), withComb.Counters.Get(CounterShuffle); w >= n {
		t.Errorf("combiner did not cut shuffle volume: %d -> %d", n, w)
	}
	// Both must still compute the same total.
	for name, res := range map[string]*FrameResult{"plain": noComb, "combined": withComb} {
		if got := res.Blocks[0].Row(0)[0]; got != 100 {
			t.Errorf("%s total = %v, want 100", name, got)
		}
	}
}

// TestDeterministicOutputAcrossRuns: with many small map tasks racing on
// eight workers, every partition's output rows come back in the same
// order on every run.
func TestDeterministicOutputAcrossRuns(t *testing.T) {
	data := frameTestData(200, 3, 5)
	input := encodeAll(data)
	mapper, reducer := identityFrameJob(7)
	var ref map[int]*points.Block
	for trial := 0; trial < 5; trial++ {
		res, err := RunFrames(context.Background(), Config{Workers: 8, Reducers: 4, SplitSize: 3}, input, mapper, nil, reducer)
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			ref = res.Blocks
			continue
		}
		requireSameBlocks(t, ref, res.Blocks)
	}
}

func TestFrameworkCounters(t *testing.T) {
	cfg := Config{Workers: 2, Reducers: 2, SplitSize: 1}
	docs := []string{"a b", "a"}
	ids, _ := vocabulary(docs)
	res, err := RunFrames(context.Background(), cfg, docsInput(docs), wordMapper(ids), nil, sumReducer)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if got := c.Get(CounterMapIn); got != 2 {
		t.Errorf("map in = %d, want 2", got)
	}
	if got := c.Get(CounterMapOut); got != 3 {
		t.Errorf("map out = %d, want 3", got)
	}
	if got := c.Get(CounterShuffle); got != 3 {
		t.Errorf("shuffle = %d, want 3", got)
	}
	if got := c.Get(CounterGroups); got != 2 {
		t.Errorf("groups = %d, want 2", got)
	}
	if got := c.Get(CounterReduceIn); got != 3 {
		t.Errorf("reduce in = %d, want 3", got)
	}
	if got := c.Get(CounterReduceOut); got != 2 {
		t.Errorf("reduce out = %d, want 2", got)
	}
}

func TestMapErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	mapper := FrameMapperFunc(func(rec []byte, emit EmitPoint) error { return boom })
	_, err := RunFrames(context.Background(), Config{Name: "failing"}, [][]byte{[]byte("x")}, mapper, nil, sumReducer)
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
	if err == nil || !strings.Contains(err.Error(), "failing") {
		t.Errorf("error %v does not name the job", err)
	}
}

func TestReduceErrorPropagates(t *testing.T) {
	boom := errors.New("reduce-boom")
	reducer := FrameReducerFunc(func(int, *points.Block, EmitPoint) error { return boom })
	ids, _ := vocabulary([]string{"x"})
	_, err := RunFrames(context.Background(), Config{}, [][]byte{[]byte("x")}, wordMapper(ids), nil, reducer)
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
}

func TestCombinerErrorPropagates(t *testing.T) {
	boom := errors.New("combine-boom")
	bad := func(int, *points.Block) (*points.Block, error) { return nil, boom }
	ids, _ := vocabulary([]string{"x"})
	_, err := RunFrames(context.Background(), Config{}, [][]byte{[]byte("x")}, wordMapper(ids), bad, sumReducer)
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
}

func TestFlakyMapTaskRetried(t *testing.T) {
	var calls int32
	ids, _ := vocabulary([]string{"a"})
	words := wordMapper(ids)
	mapper := FrameMapperFunc(func(rec []byte, emit EmitPoint) error {
		// First attempt of each record fails; retry succeeds.
		if atomic.AddInt32(&calls, 1)%2 == 1 {
			return errors.New("transient")
		}
		return words.MapFrame(rec, emit)
	})
	res, err := RunFrames(context.Background(),
		Config{Workers: 1, SplitSize: 1, MaxAttempts: 3},
		[][]byte{[]byte("a")}, mapper, nil, sumReducer)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Counters.Get(CounterMapRetries); got < 1 {
		t.Errorf("retries = %d, want >= 1", got)
	}
	if len(res.Blocks) != 1 || res.Blocks[0].Row(0)[0] != 1 {
		t.Errorf("blocks = %v", res.Blocks)
	}
}

func TestPersistentFailureExhaustsAttempts(t *testing.T) {
	mapper := FrameMapperFunc(func(rec []byte, emit EmitPoint) error { return errors.New("always") })
	_, err := RunFrames(context.Background(), Config{MaxAttempts: 3}, [][]byte{[]byte("x")}, mapper, nil, sumReducer)
	if err == nil || !strings.Contains(err.Error(), "3 attempt(s)") {
		t.Errorf("err = %v, want exhausted-attempts failure", err)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	block := make(chan struct{})
	mapper := FrameMapperFunc(func(rec []byte, emit EmitPoint) error {
		once.Do(func() { close(started) })
		<-block
		return nil
	})
	input := make([][]byte, 100)
	for i := range input {
		input[i] = []byte("x")
	}
	done := make(chan error, 1)
	go func() {
		_, err := RunFrames(ctx, Config{Workers: 1, SplitSize: 1}, input, mapper, nil, sumReducer)
		done <- err
	}()
	<-started
	cancel()
	close(block)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestNilMapperRejected: every entry point refuses missing job code up
// front instead of panicking inside a task.
func TestNilMapperRejected(t *testing.T) {
	ids, _ := vocabulary([]string{"x"})
	ctx := context.Background()
	if _, err := RunFrames(ctx, Config{}, nil, nil, nil, sumReducer); err == nil {
		t.Error("nil mapper accepted")
	}
	if _, err := RunFrames(ctx, Config{}, nil, wordMapper(ids), nil, nil); err == nil {
		t.Error("nil reducer accepted")
	}
	if _, err := RunFramesFold(ctx, Config{}, nil, wordMapper(ids), nil, nil); err == nil {
		t.Error("nil folder accepted")
	}
	if _, err := RunFramesChunked(ctx, Config{}, chunkSrc{}, nil, nil, BudgetedFolder(1, 1<<20, "", 0)); err == nil {
		t.Error("nil block mapper accepted")
	}
}

func TestEmptyInput(t *testing.T) {
	ids, _ := vocabulary([]string{"x"})
	res, err := RunFrames(context.Background(), Config{}, nil, wordMapper(ids), nil, sumReducer)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 0 {
		t.Errorf("blocks = %v, want none", res.Blocks)
	}
}

func TestSpillMode(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Name: "spilled", Workers: 3, Reducers: 2, SplitSize: 1, SpillDir: dir}
	requireWordCounts(t, wordCountJob(t, cfg, wcDocs, nil))
	requireNoSpillFiles(t, dir)
}

// requireNoSpillFiles fails when a job left spill runs behind.
func requireNoSpillFiles(t *testing.T, dir string) {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("leftover spill files: %v", left)
	}
}

func TestSpillBytesCounter(t *testing.T) {
	docs := []string{"hello world hello"}
	ids, _ := vocabulary(docs)
	res, err := RunFrames(context.Background(), Config{SpillDir: t.TempDir()}, docsInput(docs), wordMapper(ids), nil, sumReducer)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Get(CounterSpillBytes) <= 0 {
		t.Error("spill bytes counter not incremented")
	}
}

func TestSpillDirMissing(t *testing.T) {
	cfg := Config{SpillDir: filepath.Join(os.TempDir(), "definitely-missing-dir-xyz")}
	ids, _ := vocabulary([]string{"x"})
	if _, err := RunFrames(context.Background(), cfg, [][]byte{[]byte("x")}, wordMapper(ids), nil, sumReducer); err == nil {
		t.Error("missing spill dir accepted")
	}
}

func TestTimingPopulated(t *testing.T) {
	ids, _ := vocabulary(wcDocs)
	res, err := RunFrames(context.Background(), Config{Workers: 2}, docsInput(wcDocs), wordMapper(ids), sumCombiner, sumReducer)
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Timing
	if tm.Total <= 0 || tm.Map <= 0 || tm.Reduce <= 0 {
		t.Errorf("timing not recorded: %+v", tm)
	}
	if tm.Total < tm.Map || tm.Total < tm.Reduce || tm.Map < tm.Combine {
		t.Errorf("phase timings exceed their container: %+v", tm)
	}
}

func TestTimingAdd(t *testing.T) {
	a := Timing{Map: 1, Combine: 2, Shuffle: 3, Reduce: 4, Total: 10}
	b := Timing{Map: 10, Combine: 20, Shuffle: 30, Reduce: 40, Total: 100}
	a.Add(b)
	if a.Map != 11 || a.Combine != 22 || a.Shuffle != 33 || a.Reduce != 44 || a.Total != 110 {
		t.Errorf("Add = %+v", a)
	}
}

func TestCountersSnapshot(t *testing.T) {
	c := NewCounters()
	c.Add("x", 2)
	c.Add("x", 3)
	c.Add("y", 1)
	snap := c.Snapshot()
	if snap["x"] != 5 || snap["y"] != 1 {
		t.Errorf("snapshot = %v", snap)
	}
	snap["x"] = 99
	if c.Get("x") != 5 {
		t.Error("snapshot aliases live counters")
	}
}

// TestFrameRoutingStableAndInRange: sealed frames route partition p to
// reducer p mod reducers, the same way on every call.
func TestFrameRoutingStableAndInRange(t *testing.T) {
	const parts, reducers = 14, 4
	input := make([][]byte, parts)
	for p := range input {
		input[p] = points.Encode(points.Point{float64(p), 1})
	}
	mapper, _ := identityFrameJob(parts)
	first, _, err := BuildFrames(input, reducers, mapper, nil, points.FrameDefault)
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := BuildFrames(input, reducers, mapper, nil, points.FrameDefault)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != reducers {
		t.Fatalf("%d streams, want %d", len(first), reducers)
	}
	for r, stream := range first {
		if !bytes.Equal(stream, again[r]) {
			t.Errorf("reducer %d: routing differs between calls", r)
		}
		blocks, err := AssembleFrames([][]byte{stream})
		if err != nil {
			t.Fatal(err)
		}
		for p := range blocks {
			if p%reducers != r {
				t.Errorf("partition %d landed on reducer %d", p, r)
			}
		}
	}
	single, _, err := BuildFrames(input, 1, mapper, nil, points.FrameDefault)
	if err != nil {
		t.Fatal(err)
	}
	if blocks, _ := AssembleFrames(single); len(single) != 1 || len(blocks) != parts {
		t.Error("single reducer must get everything")
	}
}

func TestManyWorkersFewTasks(t *testing.T) {
	requireWordCounts(t, wordCountJob(t, Config{Workers: 64, SplitSize: 100}, wcDocs, nil))
}

func BenchmarkWordCount(b *testing.B) {
	docs := make([]string, 1000)
	for i := range docs {
		docs[i] = fmt.Sprintf("word%d common word%d common common", i%50, i%13)
	}
	ids, _ := vocabulary(docs)
	input := docsInput(docs)
	mapper := wordMapper(ids)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunFrames(context.Background(), Config{Workers: 4}, input, mapper, nil, sumReducer); err != nil {
			b.Fatal(err)
		}
	}
}

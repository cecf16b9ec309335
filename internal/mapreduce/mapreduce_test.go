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
// engine. Every word of a fixed vocabulary owns one partition; the input
// serves one row per word holding its vocabulary id, mappers emit a
// one-dimensional [1] point per row and reducers sum them.

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

// docSource serves split documents per chunk, one 1-dimensional row per
// word holding the word's vocabulary id.
type docSource struct {
	docs  []string
	ids   map[string]int
	split int
}

// docsInput serves docs split documents per chunk.
func docsInput(docs []string, split int) docSource {
	ids, _ := vocabulary(docs)
	return docSource{docs: docs, ids: ids, split: split}
}

func (s docSource) Chunks() int { return (len(s.docs) + s.split - 1) / s.split }

func (s docSource) ReadChunk(i int, blk *points.Block) error {
	for _, d := range s.docs[i*s.split : min((i+1)*s.split, len(s.docs))] {
		for _, w := range strings.Fields(d) {
			id, ok := s.ids[w]
			if !ok {
				return fmt.Errorf("word %q not in vocabulary", w)
			}
			blk.AppendRow([]float64{float64(id)})
		}
	}
	return nil
}

// wordMapper emits one [1] point per row, routed to the word's partition.
var wordMapper = BlockMapperFunc(func(blk *points.Block, emit EmitPoint) error {
	one := []float64{1}
	for i := 0; i < blk.Len(); i++ {
		emit(int(blk.Row(i)[0]), one)
	}
	return nil
})

// columnSum sums a block's first column.
func columnSum(blk *points.Block) float64 {
	total := 0.0
	for i := 0; i < blk.Len(); i++ {
		total += blk.Row(i)[0]
	}
	return total
}

// sumBlock folds a block to its one-row column sum.
func sumBlock(blk *points.Block) *points.Block {
	out := points.NewBlock(1, 1)
	out.AppendRow([]float64{columnSum(blk)})
	return out
}

// sumFolder emits one point per partition holding its rows' sum;
// sumCombiner folds each map-side block the same way.
var (
	sumFolder   = KernelFolder(sumBlock)
	sumCombiner = KernelCombiner(sumBlock)
)

// errFold is a fold whose Finish fails with err.
type errFold struct{ err error }

func (e errFold) Absorb(*points.Block) error { return nil }
func (e errFold) Finish(EmitPoint) error     { return e.err }

// wordCountJob runs word count over docs, split documents per map task,
// and returns word → count.
func wordCountJob(t *testing.T, cfg Config, docs []string, split int, combiner FrameCombiner) map[string]int {
	t.Helper()
	_, words := vocabulary(docs)
	res, err := Run(context.Background(), cfg, docsInput(docs, split), wordMapper, combiner, sumFolder)
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
	requireWordCounts(t, wordCountJob(t, Config{Name: "wc", Workers: 4, Reducers: 3}, wcDocs, 1, nil))
}

func TestWordCountWithCombiner(t *testing.T) {
	cfg := Config{Name: "wc-comb", Workers: 2, Reducers: 2}
	requireWordCounts(t, wordCountJob(t, cfg, wcDocs, 2, sumCombiner))
}

func TestCombinerReducesShuffleVolume(t *testing.T) {
	docs := make([]string, 100)
	for i := range docs {
		docs[i] = "same-key"
	}
	input := docsInput(docs, 10)
	noComb, err := Run(context.Background(), Config{Workers: 2}, input, wordMapper, nil, sumFolder)
	if err != nil {
		t.Fatal(err)
	}
	withComb, err := Run(context.Background(), Config{Workers: 2}, input, wordMapper, sumCombiner, sumFolder)
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
	input := SetSource(data, 3)
	mapper, folder := identityFrameJob(7)
	var ref map[int]*points.Block
	for trial := 0; trial < 5; trial++ {
		res, err := Run(context.Background(), Config{Workers: 8, Reducers: 4}, input, mapper, nil, folder)
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
	cfg := Config{Workers: 2, Reducers: 2}
	docs := []string{"a b", "a"}
	res, err := Run(context.Background(), cfg, docsInput(docs, 1), wordMapper, nil, sumFolder)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if got := c.Get(CounterMapIn); got != 3 { // input rows: one per word
		t.Errorf("map in = %d, want 3", got)
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
	mapper := BlockMapperFunc(func(*points.Block, EmitPoint) error { return boom })
	_, err := Run(context.Background(), Config{Name: "failing"}, docsInput([]string{"x"}, 1), mapper, nil, sumFolder)
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
	if err == nil || !strings.Contains(err.Error(), "failing") {
		t.Errorf("error %v does not name the job", err)
	}
}

func TestReduceErrorPropagates(t *testing.T) {
	boom := errors.New("reduce-boom")
	folder := func(int) FrameFold { return errFold{boom} }
	_, err := Run(context.Background(), Config{}, docsInput([]string{"x"}, 1), wordMapper, nil, folder)
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
}

func TestCombinerErrorPropagates(t *testing.T) {
	boom := errors.New("combine-boom")
	bad := func(int, *points.Block) (*points.Block, error) { return nil, boom }
	_, err := Run(context.Background(), Config{}, docsInput([]string{"x"}, 1), wordMapper, bad, sumFolder)
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
}

func TestFlakyMapTaskRetried(t *testing.T) {
	var calls int32
	mapper := BlockMapperFunc(func(blk *points.Block, emit EmitPoint) error {
		// First attempt of each chunk fails; retry succeeds.
		if atomic.AddInt32(&calls, 1)%2 == 1 {
			return errors.New("transient")
		}
		return wordMapper(blk, emit)
	})
	res, err := Run(context.Background(),
		Config{Workers: 1, MaxAttempts: 3},
		docsInput([]string{"a"}, 1), mapper, nil, sumFolder)
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
	mapper := BlockMapperFunc(func(*points.Block, EmitPoint) error { return errors.New("always") })
	_, err := Run(context.Background(), Config{MaxAttempts: 3}, docsInput([]string{"x"}, 1), mapper, nil, sumFolder)
	if err == nil || !strings.Contains(err.Error(), "3 attempt(s)") {
		t.Errorf("err = %v, want exhausted-attempts failure", err)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	block := make(chan struct{})
	mapper := BlockMapperFunc(func(*points.Block, EmitPoint) error {
		once.Do(func() { close(started) })
		<-block
		return nil
	})
	docs := make([]string, 100)
	for i := range docs {
		docs[i] = "x"
	}
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, Config{Workers: 1}, docsInput(docs, 1), mapper, nil, sumFolder)
		done <- err
	}()
	<-started
	cancel()
	close(block)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestNilMapperRejected: Run refuses missing job code up front instead
// of panicking inside a task.
func TestNilMapperRejected(t *testing.T) {
	ctx := context.Background()
	input := docsInput([]string{"x"}, 1)
	if _, err := Run(ctx, Config{}, input, nil, nil, sumFolder); err == nil {
		t.Error("nil mapper accepted")
	}
	if _, err := Run(ctx, Config{}, input, wordMapper, nil, nil); err == nil {
		t.Error("nil folder accepted")
	}
	if _, err := Run(ctx, Config{}, nil, wordMapper, nil, sumFolder); err == nil {
		t.Error("nil source accepted")
	}
}

func TestEmptyInput(t *testing.T) {
	res, err := Run(context.Background(), Config{}, docsInput(nil, 1), wordMapper, nil, sumFolder)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 0 {
		t.Errorf("blocks = %v, want none", res.Blocks)
	}
}

func TestSpillMode(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Name: "spilled", Workers: 3, Reducers: 2, SpillDir: dir}
	requireWordCounts(t, wordCountJob(t, cfg, wcDocs, 1, nil))
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
	res, err := Run(context.Background(), Config{SpillDir: t.TempDir()}, docsInput(docs, 1), wordMapper, nil, sumFolder)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Get(CounterSpillBytes) <= 0 {
		t.Error("spill bytes counter not incremented")
	}
}

func TestSpillDirMissing(t *testing.T) {
	cfg := Config{SpillDir: filepath.Join(os.TempDir(), "definitely-missing-dir-xyz")}
	if _, err := Run(context.Background(), cfg, docsInput([]string{"x"}, 1), wordMapper, nil, sumFolder); err == nil {
		t.Error("missing spill dir accepted")
	}
}

func TestTimingPopulated(t *testing.T) {
	res, err := Run(context.Background(), Config{Workers: 2}, docsInput(wcDocs, 1), wordMapper, sumCombiner, sumFolder)
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
	input := points.NewBlock(2, parts)
	for p := 0; p < parts; p++ {
		input.AppendRow([]float64{float64(p), 1})
	}
	mapper, _ := identityFrameJob(parts)
	first, _, err := MapFrames(input, reducers, mapper, nil, points.FrameDefault)
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := MapFrames(input, reducers, mapper, nil, points.FrameDefault)
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
	single, _, err := MapFrames(input, 1, mapper, nil, points.FrameDefault)
	if err != nil {
		t.Fatal(err)
	}
	if blocks, _ := AssembleFrames(single); len(single) != 1 || len(blocks) != parts {
		t.Error("single reducer must get everything")
	}
}

func TestManyWorkersFewTasks(t *testing.T) {
	requireWordCounts(t, wordCountJob(t, Config{Workers: 64}, wcDocs, 100, nil))
}

func BenchmarkWordCount(b *testing.B) {
	docs := make([]string, 1000)
	for i := range docs {
		docs[i] = fmt.Sprintf("word%d common word%d common common", i%50, i%13)
	}
	input := docsInput(docs, len(docs)/16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), Config{Workers: 4}, input, wordMapper, nil, sumFolder); err != nil {
			b.Fatal(err)
		}
	}
}

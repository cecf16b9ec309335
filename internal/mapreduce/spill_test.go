package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/points"
)

// writeTestFrameSpill seals a few frames into one spill file and returns
// the path plus the frames as written.
func writeTestFrameSpill(t *testing.T, compress bool) (string, [][]byte) {
	t.Helper()
	dir := t.TempDir()
	cfg := Config{Name: "spilltest", SpillDir: dir, CompressSpill: compress}
	var stream []byte
	var frames [][]byte
	for i := 0; i < 4; i++ {
		blk := points.NewBlock(3, 8)
		for p := 0; p < 5+i; p++ {
			blk.AppendRow([]float64{float64(i), float64(p), float64(i * p)})
		}
		frame := points.AppendFrame(nil, i, blk)
		frames = append(frames, frame)
		stream = append(stream, frame...)
	}
	files, err := spillFrameStreams(cfg, 0, [][]byte{stream}, NewCounters())
	if err != nil {
		t.Fatalf("spillFrameStreams: %v", err)
	}
	return files[0], frames
}

// readFrameSpillErr reads every frame of one spill file, in order.
func readFrameSpillErr(name string) ([][]byte, error) {
	r, err := openFrameSpill(name)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var frames [][]byte
	for {
		frame, err := r.Next()
		if err == io.EOF {
			return frames, nil
		}
		if err != nil {
			return nil, err
		}
		frames = append(frames, frame)
	}
}

func readTestFrameSpill(t *testing.T, name string) [][]byte {
	t.Helper()
	frames, err := readFrameSpillErr(name)
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

func TestFrameSpillReaderStreams(t *testing.T) {
	for _, compress := range []bool{false, true} {
		name, want := writeTestFrameSpill(t, compress)
		r, err := openFrameSpill(name)
		if err != nil {
			t.Fatalf("openFrameSpill: %v", err)
		}
		var got [][]byte
		for {
			frame, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			got = append(got, frame)
		}
		r.Close()
		if len(got) != len(want) {
			t.Fatalf("compress=%v: %d frames, want %d", compress, len(got), len(want))
		}
		for i := range want {
			if string(got[i]) != string(want[i]) {
				t.Fatalf("compress=%v: frame %d not byte-identical", compress, i)
			}
		}
	}
}

func TestFrameSpillTruncatedTyped(t *testing.T) {
	name, _ := writeTestFrameSpill(t, false)
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}

	// Chop the file mid-record: the reader must surface ErrSpillTruncated,
	// not io.EOF (a silent short read).
	cut := filepath.Join(t.TempDir(), "cut.fseq")
	if err := os.WriteFile(cut, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := openFrameSpill(cut)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sawTruncated := false
	for {
		_, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			if !errors.Is(err, ErrSpillTruncated) {
				t.Fatalf("want ErrSpillTruncated, got %v", err)
			}
			sawTruncated = true
			break
		}
	}
	if !sawTruncated {
		t.Fatal("truncated spill read to EOF without a typed error")
	}

	// Flip a payload byte: checksum failure is the same typed error.
	data[len(data)-10] ^= 0xFF
	bad := filepath.Join(t.TempDir(), "bad.fseq")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrameSpillErr(bad); !errors.Is(err, ErrSpillTruncated) {
		t.Fatalf("corrupt spill: want ErrSpillTruncated, got %v", err)
	}
}

// The external shuffle is the spilled frame path: map tasks write sealed
// frame runs to SpillDir and reduce tasks read them back.

// TestExternalShuffleMatchesInMemory: spilling must change nothing —
// same partitions, same rows, same row order.
func TestExternalShuffleMatchesInMemory(t *testing.T) {
	input := SetSource(frameTestData(300, 3, 11), 20)
	mapper, folder := identityFrameJob(17)
	runWith := func(spill string) map[int]*points.Block {
		res, err := Run(context.Background(),
			Config{Workers: 3, Reducers: 3, SpillDir: spill},
			input, mapper, nil, folder)
		if err != nil {
			t.Fatal(err)
		}
		return res.Blocks
	}
	requireSameBlocks(t, runWith(""), runWith(t.TempDir()))
}

// TestExternalShuffleReduceRetry: a reduce task that fails on its first
// attempt must be replayable from the spill runs, which are removed
// afterwards.
func TestExternalShuffleReduceRetry(t *testing.T) {
	dir := t.TempDir()
	var failures int32
	folder := func(partition int) FrameFold {
		if atomic.AddInt32(&failures, 1) == 1 {
			return errFold{errors.New("transient reduce failure")}
		}
		return sumFolder(partition)
	}
	docs := []string{"k", "k", "k", "k", "k", "k"}
	res, err := Run(context.Background(),
		Config{Workers: 1, Reducers: 1, SpillDir: dir, MaxAttempts: 3},
		docsInput(docs, 5), wordMapper, nil, folder)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 1 || res.Blocks[0].Row(0)[0] != 6 {
		t.Fatalf("blocks = %v", res.Blocks)
	}
	if res.Counters.Get(CounterRedRetries) == 0 {
		t.Error("no reduce retry recorded")
	}
	requireNoSpillFiles(t, dir)
}

func TestExternalShuffleCountsRecords(t *testing.T) {
	docs := []string{"a", "b", "a"}
	res, err := Run(context.Background(), Config{SpillDir: t.TempDir()},
		docsInput(docs, 1), wordMapper, nil, sumFolder)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Counters.Get(CounterShuffle); got != 3 {
		t.Errorf("spilled shuffle counted %d records, want 3", got)
	}
}

// TestMergeStreamManyRuns: many map tasks × few reducers, so every
// reducer gathers its partitions from many spill runs — through both
// the assembling and the budgeted folds.
func TestMergeStreamManyRuns(t *testing.T) {
	docs := make([]string, 200)
	for i := range docs {
		docs[i] = fmt.Sprintf("key%d", i%5)
	}
	_, words := vocabulary(docs)
	input := docsInput(docs, 3)
	cfg := Config{Workers: 4, Reducers: 2, SpillDir: t.TempDir()}
	res, err := Run(context.Background(), cfg, input, wordMapper, nil, sumFolder)
	if err != nil {
		t.Fatal(err)
	}
	for id, blk := range res.Blocks {
		if got := blk.Row(0)[0]; got != 40 {
			t.Errorf("%s count = %v, want 40", words[id], got)
		}
	}
	// The budgeted fold keeps every spilled row; a budget large enough
	// for one window holds the five distinct points.
	folded, err := Run(context.Background(), cfg, input, wordMapper, nil,
		BudgetedFolder(1, 1<<20, cfg.SpillDir, points.FrameDefault))
	if err != nil {
		t.Fatal(err)
	}
	for id, blk := range folded.Blocks {
		if blk.Len() != 40 {
			t.Errorf("%s: %d folded rows, want 40 duplicates", words[id], blk.Len())
		}
	}
	requireNoSpillFiles(t, cfg.SpillDir)
}

func TestCompressedSpillSameResult(t *testing.T) {
	docs := make([]string, 120)
	for i := range docs {
		docs[i] = fmt.Sprintf("k%d", i%9)
	}
	input := docsInput(docs, 10)
	plain, err := Run(context.Background(),
		Config{Workers: 2, Reducers: 2, SpillDir: t.TempDir()},
		input, wordMapper, nil, sumFolder)
	if err != nil {
		t.Fatal(err)
	}
	compressed, err := Run(context.Background(),
		Config{Workers: 2, Reducers: 2, SpillDir: t.TempDir(), CompressSpill: true},
		input, wordMapper, nil, sumFolder)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBlocks(t, plain.Blocks, compressed.Blocks)
	if compressed.Counters.Get(CounterSpillBytes) >= plain.Counters.Get(CounterSpillBytes) {
		t.Errorf("compression did not shrink spill: %d vs %d bytes",
			compressed.Counters.Get(CounterSpillBytes), plain.Counters.Get(CounterSpillBytes))
	}
}

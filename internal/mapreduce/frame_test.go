package mapreduce

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/points"
	"repro/internal/skyline"
)

// frameTestData builds a deterministic point set with duplicates.
func frameTestData(n, d int, seed int64) points.Set {
	rng := rand.New(rand.NewSource(seed))
	set := make(points.Set, 0, n)
	for i := 0; i < n; i++ {
		p := make(points.Point, d)
		for j := range p {
			p[j] = float64(rng.Intn(50)) // coarse grid → duplicates
		}
		set = append(set, p)
	}
	// Exact duplicates of the first few points.
	for i := 0; i < n/10 && i < len(set); i++ {
		dup := make(points.Point, d)
		copy(dup, set[i])
		set = append(set, dup)
	}
	return set
}

// identityFrameJob routes each point to partition coords[0] mod parts and
// re-emits it unchanged in the reducer — shuffle machinery only.
func identityFrameJob(parts int) (BlockMapper, FrameFolder) {
	mapper := BlockMapperFunc(func(blk *points.Block, emit EmitPoint) error {
		for i := 0; i < blk.Len(); i++ {
			row := blk.Row(i)
			emit(int(row[0])%parts, row)
		}
		return nil
	})
	return mapper, KernelFolder(func(blk *points.Block) *points.Block { return blk })
}

// routeOracle routes data exactly as identityFrameJob does, without the
// engine: partition coords[0] mod parts.
func routeOracle(data points.Set, parts int) map[int]points.Set {
	out := make(map[int]points.Set)
	for _, p := range data {
		id := int(p[0]) % parts
		out[id] = append(out[id], p)
	}
	return out
}

// requireSameBlocks requires identical partitions with identical rows in
// identical order.
func requireSameBlocks(t *testing.T, want, got map[int]*points.Block) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("partition count: want %d, got %d", len(want), len(got))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("partition %d missing", id)
		}
		if w.Len() != g.Len() {
			t.Fatalf("partition %d: want %d rows, got %d", id, w.Len(), g.Len())
		}
		for i := 0; i < w.Len(); i++ {
			if !points.Point(w.Row(i)).Equal(g.Row(i)) {
				t.Fatalf("partition %d row %d: want %v, got %v", id, i, w.Row(i), g.Row(i))
			}
		}
	}
}

func sortSet(s points.Set) {
	sort.Slice(s, func(i, j int) bool {
		a, b := s[i], s[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

func requireSameSets(t *testing.T, want, got map[int]points.Set) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("partition count: want %d, got %d", len(want), len(got))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("partition %d missing", id)
		}
		if len(w) != len(g) {
			t.Fatalf("partition %d: want %d points, got %d", id, len(w), len(g))
		}
		sortSet(w)
		sortSet(g)
		for i := range w {
			for k := range w[i] {
				if w[i][k] != g[i][k] {
					t.Fatalf("partition %d point %d differs: %v vs %v", id, i, w[i], g[i])
				}
			}
		}
	}
}

// TestRunFramesMatchesClassic shuffles a duplicate-heavy dataset through
// the engine and requires, per partition, exactly the multiset a direct
// routing produces — and, through a flat skyline reducer, exactly the
// classic skyline.BNL of that multiset — in memory and in spill mode.
func TestRunFramesMatchesClassic(t *testing.T) {
	data := frameTestData(2000, 4, 1)
	const parts, reducers = 7, 3
	input := SetSource(data, len(data)/16)
	mapper, identity := identityFrameJob(parts)
	routed := routeOracle(data, parts)
	skylines := make(map[int]points.Set, len(routed))
	for id, set := range routed {
		skylines[id] = skyline.BNL(set)
	}

	for _, spill := range []bool{false, true} {
		name := map[bool]string{false: "memory", true: "spill"}[spill]
		t.Run(name, func(t *testing.T) {
			dir := ""
			if spill {
				dir = t.TempDir()
			}
			cfg := Config{Name: "frames", Workers: 4, Reducers: reducers, SpillDir: dir}
			res, err := Run(context.Background(), cfg, input, mapper, nil, identity)
			if err != nil {
				t.Fatal(err)
			}
			requireSameSets(t, routed, blockSets(res.Blocks))

			if res.Counters.Get(CounterShuffle) != int64(len(data)) {
				t.Errorf("shuffle records = %d, want %d", res.Counters.Get(CounterShuffle), len(data))
			}
			// Frame payload bytes: strictly more than raw coords (headers),
			// far less than 2× coords.
			coords := int64(len(data) * 4 * 8)
			if b := res.Counters.Get(CounterShuffleBytes); b <= coords || b > coords*2 {
				t.Errorf("shuffle bytes = %d, want in (%d, %d]", b, coords, coords*2)
			}

			sky, err := Run(context.Background(), cfg, input, mapper, nil, skylineFolder())
			if err != nil {
				t.Fatal(err)
			}
			requireSameSets(t, skylines, blockSets(sky.Blocks))
		})
	}
}

func blockSets(blocks map[int]*points.Block) map[int]points.Set {
	out := make(map[int]points.Set, len(blocks))
	for id, blk := range blocks {
		out[id] = blk.ToSet()
	}
	return out
}

// TestRunFramesCombiner checks the combiner runs on assembled blocks
// map-side and shrinks what crosses the shuffle.
func TestRunFramesCombiner(t *testing.T) {
	data := frameTestData(1000, 3, 2)
	mapper, folder := identityFrameJob(4)
	// Combiner keeps only the first point of each block.
	combiner := func(partition int, blk *points.Block) (*points.Block, error) {
		if blk.Len() > 1 {
			blk.Truncate(1)
		}
		return blk, nil
	}
	res, err := Run(context.Background(),
		Config{Name: "comb", Workers: 2, Reducers: 2},
		SetSource(data, 100), mapper, combiner, folder)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Get(CounterCombineIn) != int64(len(data)) {
		t.Errorf("combine in = %d, want %d", res.Counters.Get(CounterCombineIn), len(data))
	}
	shuffled := res.Counters.Get(CounterShuffle)
	if shuffled >= int64(len(data)) || shuffled == 0 {
		t.Errorf("combiner did not shrink shuffle: %d of %d", shuffled, len(data))
	}
	if res.Counters.Get(CounterCombineOut) != shuffled {
		t.Errorf("combine out %d != shuffle records %d", res.Counters.Get(CounterCombineOut), shuffled)
	}
}

// TestFrameSpillByteIdentical seals streams, spills them, and requires
// read-back to reproduce the exact frame bytes.
func TestFrameSpillByteIdentical(t *testing.T) {
	for _, compress := range []bool{false, true} {
		cfg := Config{Name: "spillrt", SpillDir: t.TempDir(), CompressSpill: compress, Reducers: 3}
		blk1 := points.NewBlock(0, 0)
		blk1.AppendRow([]float64{1, 2})
		blk1.AppendRow([]float64{3, 4})
		blk2 := points.NewBlock(0, 0)
		blk2.AppendRow([]float64{5, 6})
		var stream []byte
		stream = points.AppendFrame(stream, 0, blk1)
		stream = points.AppendFrame(stream, 3, blk2)
		streams := [][]byte{stream, nil, nil}

		counters := NewCounters()
		files, err := spillFrameStreams(cfg, 0, streams, counters)
		if err != nil {
			t.Fatal(err)
		}
		if files[1] != "" || files[2] != "" {
			t.Fatal("empty streams produced files")
		}
		frames := readTestFrameSpill(t, files[0])
		if len(frames) != 2 {
			t.Fatalf("read %d frames, want 2", len(frames))
		}
		if !bytes.Equal(bytes.Join(frames, nil), stream) {
			t.Fatalf("compress=%v: spill round trip not byte-identical", compress)
		}
		if counters.Get(CounterSpillBytes) == 0 {
			t.Error("no spill bytes counted")
		}
	}
}

// TestRunFramesErrors covers mapper, combiner and reducer failures plus
// the negative-partition guard: errors, never panics.
func TestRunFramesErrors(t *testing.T) {
	input := SetSource(points.Set{{1, 2}}, 1)
	okMapper, okFolder := identityFrameJob(2)
	boom := errors.New("boom")

	cases := []struct {
		name     string
		mapper   BlockMapper
		combiner FrameCombiner
		folder   FrameFolder
	}{
		{"mapper", BlockMapperFunc(func(*points.Block, EmitPoint) error { return boom }), nil, okFolder},
		{"combiner", okMapper, func(int, *points.Block) (*points.Block, error) { return nil, boom }, okFolder},
		{"reducer", okMapper, nil, func(int) FrameFold { return errFold{boom} }},
		{"negative-partition", BlockMapperFunc(func(_ *points.Block, emit EmitPoint) error {
			emit(-1, []float64{1, 2})
			return nil
		}), nil, okFolder},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(context.Background(), Config{Name: tc.name},
				input, tc.mapper, tc.combiner, tc.folder)
			if err == nil {
				t.Fatal("no error")
			}
		})
	}
}

// TestRunFramesRetry: a mapper that fails once per task succeeds under
// MaxAttempts=2 and books the retry counter.
func TestRunFramesRetry(t *testing.T) {
	data := frameTestData(100, 2, 3)
	var failed Counters
	failed.m = map[string]int64{}
	routed, folder := identityFrameJob(3)
	mapper := BlockMapperFunc(func(blk *points.Block, emit EmitPoint) error {
		// Fail the first chunk any mapper sees.
		failed.mu.Lock()
		first := failed.m["n"] == 0
		failed.m["n"]++
		failed.mu.Unlock()
		if first {
			return errors.New("transient")
		}
		return routed.MapBlock(blk, emit)
	})
	res, err := Run(context.Background(),
		Config{Name: "retry", MaxAttempts: 3}, SetSource(data, 50), mapper, nil, folder)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Get(CounterMapRetries) == 0 {
		t.Error("no retry counted")
	}
	total := 0
	for _, blk := range res.Blocks {
		total += blk.Len()
	}
	// The failed chunk was re-mapped on retry; every input survives exactly once.
	if total != len(data) {
		t.Errorf("output %d points, want %d", total, len(data))
	}
}

// TestRunFramesEmptyInput degenerates gracefully.
func TestRunFramesEmptyInput(t *testing.T) {
	mapper, folder := identityFrameJob(2)
	res, err := Run(context.Background(), Config{Name: "empty"}, SetSource(nil, 0), mapper, nil, folder)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 0 {
		t.Fatalf("blocks = %d, want 0", len(res.Blocks))
	}
}

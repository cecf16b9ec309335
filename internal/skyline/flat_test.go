package skyline

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/points"
	"repro/internal/telemetry"
)

// randSet draws n points of dimension d from a small integer grid so
// coordinate-equal duplicates and per-dimension ties are common — the
// regimes where dominance-kernel bugs hide.
func randSet(rng *rand.Rand, n, d int) points.Set {
	s := make(points.Set, n)
	for i := range s {
		p := make(points.Point, d)
		for j := range p {
			p[j] = float64(rng.Intn(8))
		}
		s[i] = p
	}
	return s
}

// TestRelationKernelMatchesDominates cross-checks every specialized
// dimension (2..8) and the generic fallback (1, 9, 10) against the
// points.Dominates / Equal reference semantics.
func TestRelationKernelMatchesDominates(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		rel := RelationKernel(d)
		for trial := 0; trial < 500; trial++ {
			a := make(points.Point, d)
			b := make(points.Point, d)
			for j := 0; j < d; j++ {
				a[j] = float64(rng.Intn(4))
				b[j] = float64(rng.Intn(4))
			}
			var want Relation
			switch {
			case a.Equal(b):
				want = Equal
			case points.Dominates(a, b):
				want = LeftDominates
			case points.Dominates(b, a):
				want = RightDominates
			default:
				want = Incomparable
			}
			if got := rel(a, b); got != want {
				t.Fatalf("d=%d rel(%v, %v) = %d, want %d", d, a, b, got, want)
			}
		}
	}
}

// TestFlatKernelsMatchOracle asserts that every flat kernel — block BNL,
// block SFS, the Func wrappers, the parallel path and the merge tree —
// returns exactly the Naive oracle's skyline as a multiset, across the
// specialized dimensions and the generic fallback, with duplicates in
// play.
func TestFlatKernelsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 40; trial++ {
		d := 1 + rng.Intn(10)
		n := rng.Intn(500)
		s := randSet(rng, n, d)
		want := Naive(s)
		check := func(name string, got points.Set) {
			t.Helper()
			if !sameMultiset(got, want) {
				t.Fatalf("trial %d (n=%d d=%d) %s: %d points, oracle %d", trial, n, d, name, len(got), len(want))
			}
		}
		check("FlatBNL", FlatBNL(s))
		check("FlatSFS", FlatSFS(s))
		for _, a := range []Algorithm{BNLAlgorithm, SFSAlgorithm, DCAlgorithm, NaiveAlgorithm} {
			check("ByAlgorithmFlat/"+a.String(), ByAlgorithmFlat(a)(s))
			if b, ok := points.BlockOf(s); ok {
				check("BlockByAlgorithm/"+a.String(), BlockByAlgorithm(a)(b).ToSet())
			}
		}
		for _, workers := range []int{0, 1, 3, 8} {
			check("ParallelBlock", parallel(s, workers))
		}
	}
}

// TestMergeBlocksMatchesOracle merges two chunk skylines and compares
// with the skyline of the union, including cross-chunk duplicates.
func TestMergeBlocksMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 40; trial++ {
		d := 1 + rng.Intn(8)
		sa := randSet(rng, rng.Intn(300), d)
		sb := randSet(rng, rng.Intn(300), d)
		a, _ := points.BlockOf(FlatBNL(sa))
		b, _ := points.BlockOf(FlatBNL(sb))
		got := MergeBlocks(a, b).ToSet()
		want := Naive(append(sa.Clone(), sb.Clone()...))
		if !sameMultiset(got, want) {
			t.Fatalf("trial %d d=%d: merge gave %d points, oracle %d", trial, d, len(got), len(want))
		}
	}
}

// skylineBlocks returns the FlatBNL skyline of each chunk as a block.
func skylineBlocks(chunks ...points.Set) []*points.Block {
	out := make([]*points.Block, len(chunks))
	for i, c := range chunks {
		out[i], _ = points.BlockOf(FlatBNL(c))
	}
	return out
}

// TestMergeSkylinesMatchesOracle folds many partials through the full
// MergeTree (odd counts exercise the bye path; empty chunks give empty
// partials).
func TestMergeSkylinesMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	for _, parts := range []int{1, 2, 3, 5, 8, 13} {
		d := 1 + rng.Intn(6)
		var chunks []points.Set
		var union points.Set
		for i := 0; i < parts; i++ {
			chunk := randSet(rng, rng.Intn(150), d)
			union = append(union, chunk...)
			chunks = append(chunks, chunk)
		}
		partials := skylineBlocks(chunks...)
		for _, workers := range []int{0, 1, 4} {
			got := MergeTree(context.Background(), partials, workers).ToSet()
			want := Naive(union)
			if !sameMultiset(got, want) {
				t.Fatalf("parts=%d workers=%d d=%d: %d points, oracle %d", parts, workers, d, len(got), len(want))
			}
		}
	}
}

// TestFlatRetainsDuplicates pins the classical BNL duplicate contract on
// the flat path: coordinate-equal skyline members all survive.
func TestFlatRetainsDuplicates(t *testing.T) {
	s := points.Set{{1, 2}, {1, 2}, {2, 1}, {2, 2}, {1, 2}}
	for name, f := range map[string]Func{"FlatBNL": FlatBNL, "FlatSFS": FlatSFS, "ParallelBlock": func(s points.Set) points.Set { return parallel(s, 4) }} {
		got := f(s)
		if len(got) != 4 {
			t.Errorf("%s kept %d points, want 4 (three duplicates + (2,1)): %v", name, len(got), got)
		}
	}
}

// TestFlatMixedDimensionFallback: sets the classic kernels tolerate but
// blocks cannot represent must still compute correctly via fallback.
func TestFlatMixedDimensionFallback(t *testing.T) {
	s := points.Set{{1, 2}, {3}, {0, 5}}
	want := Naive(s)
	if got := FlatBNL(s); !sameMultiset(got, want) {
		t.Fatalf("FlatBNL on mixed dims: %v, want %v", got, want)
	}
}

// TestDominanceTestsCounter: the flat kernels must account their pairwise
// tests in the package counter.
func TestDominanceTestsCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	s := randSet(rng, 300, 4)
	before := DominanceTests()
	FlatBNL(s)
	if DominanceTests() == before {
		t.Fatal("BlockBNL recorded no dominance tests")
	}
	before = DominanceTests()
	MergeTree(context.Background(), skylineBlocks(s[:150], s[150:]), 2)
	if DominanceTests() == before {
		t.Fatal("merge tree recorded no dominance tests")
	}
}

// TestMergeLevelSpans: a tracer in the context must receive one
// merge-level span per tree level.
func TestMergeLevelSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	var chunks []points.Set
	for i := 0; i < 8; i++ {
		chunks = append(chunks, randSet(rng, 100, 3))
	}
	partials := skylineBlocks(chunks...)
	// The tournament (and its per-level spans) only runs with real
	// parallelism — normWorkers caps at GOMAXPROCS, and on one core the
	// tree degenerates to a single-span fold. Pin GOMAXPROCS so the
	// asserted tree shape is machine-independent.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	tr := telemetry.NewTracer()
	ctx := telemetry.WithTracer(context.Background(), tr)
	MergeTree(ctx, partials, 4)
	levels := 0
	for _, sp := range tr.Spans() {
		if sp.Name == "merge-level" {
			levels++
		}
	}
	if levels != 3 { // 8 → 4 → 2 → 1
		t.Fatalf("recorded %d merge-level spans, want 3", levels)
	}
}

// FuzzFlatBNL drives the block BNL with fuzz-chosen geometry and checks
// the Naive oracle. Coordinates are quantized so duplicates appear.
func FuzzFlatBNL(f *testing.F) {
	f.Add(int64(1), 10, 2)
	f.Add(int64(2), 100, 7)
	f.Add(int64(3), 50, 9)
	f.Fuzz(func(t *testing.T, seed int64, n, d int) {
		if n < 0 || n > 300 || d < 1 || d > 12 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		s := randSet(rng, n, d)
		want := Naive(s)
		if got := FlatBNL(s); !sameMultiset(got, want) {
			t.Fatalf("FlatBNL diverged from oracle on n=%d d=%d", n, d)
		}
		if got := FlatSFS(s); !sameMultiset(got, want) {
			t.Fatalf("FlatSFS diverged from oracle on n=%d d=%d", n, d)
		}
		if got := parallel(s, 3); !sameMultiset(got, want) {
			t.Fatalf("ParallelBlock diverged from oracle on n=%d d=%d", n, d)
		}
	})
}

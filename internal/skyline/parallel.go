package skyline

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/points"
)

// parallelCutoff is the input size below which ParallelBlock runs the flat
// sequential kernel instead of fanning out. Measured with
// BenchmarkMergeTree/BenchmarkLocalSkyline on the benchmark machine (see
// BENCH_kernels.json): below ~256 points the goroutine spawn plus the
// merge-tree cross-filters cost more than the saved kernel time; the old
// 64-point cutoff left 64–256 in a regime where fan-out still lost.
const parallelCutoff = 256

// normWorkers resolves a caller-supplied worker count: non-positive means
// GOMAXPROCS, and every request is capped at GOMAXPROCS — the kernels are
// pure CPU, so goroutines beyond the core count only add scheduling
// overhead (and on one core they would force the tournament merge, which
// does strictly more comparisons than the sequential fold).
func normWorkers(workers int) int {
	g := runtime.GOMAXPROCS(0)
	if workers <= 0 || workers > g {
		return g
	}
	return workers
}

// ParallelBlock computes the skyline of an arbitrary block on shared
// memory with workers goroutines: chunk the block across them, run the
// block BNL on each chunk, then fold the partial skylines with the
// parallel merge tree — the divide-and-merge structure of the MapReduce
// pipeline without the framework. workers ≤ 0 selects GOMAXPROCS; a
// tracer in ctx receives one span per merge-tree level. The input block
// is read, never mutated.
func ParallelBlock(ctx context.Context, src *points.Block, workers int) *points.Block {
	workers = normWorkers(workers)
	n := src.Len()
	if workers == 1 || n < 2*workers || n < parallelCutoff {
		return BlockBNL(src)
	}
	chunk := (n + workers - 1) / workers
	partials := make([]*points.Block, 0, workers)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		partials = append(partials, src.Slice(lo, hi))
	}
	var wg sync.WaitGroup
	for i, part := range partials {
		wg.Add(1)
		go func(i int, part *points.Block) {
			defer wg.Done()
			partials[i] = BlockBNL(part)
		}(i, part)
	}
	wg.Wait()
	return MergeTree(ctx, partials, workers)
}

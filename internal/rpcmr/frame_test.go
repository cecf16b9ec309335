package rpcmr

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/points"
	"repro/internal/skyline"
	"repro/internal/telemetry"
)

const frameParts = 5

// ensureFrameJobs registers the skyline test job. Separate Once from
// ensureJobs, which it calls first: ensureJobs owns
// resetRegistryForTest, so ordering matters.
var frameJobsOnce sync.Once

func ensureFrameJobs() {
	ensureJobs()
	frameJobsOnce.Do(func() {
		// skyline-frame: route by first coordinate, local skyline as the
		// combiner on the assembled block, per-partition skyline in reduce.
		RegisterJob("skyline-frame", func(params []byte) (Job, error) {
			return Job{
				BlockMapper: mapreduce.BlockMapperFunc(func(blk *points.Block, emit mapreduce.EmitPoint) error {
					for i := 0; i < blk.Len(); i++ {
						row := blk.Row(i)
						emit(int(row[0])%frameParts, row)
					}
					return nil
				}),
				FrameCombiner: mapreduce.KernelCombiner(skyline.BlockBNL),
				FrameFolder:   mapreduce.KernelFolder(skyline.BlockBNL),
			}, nil
		})
	})
}

// frameClusterInput builds a duplicate-heavy dataset.
func frameClusterInput(n, d int, seed int64) *points.Block {
	rng := rand.New(rand.NewSource(seed))
	input := points.NewBlock(d, n+n/5)
	p := make([]float64, d)
	for i := 0; i < n; i++ {
		for j := range p {
			p[j] = float64(rng.Intn(30))
		}
		input.AppendRow(p)
	}
	for i := 0; i < n/5; i++ {
		input.AppendRow(append(p[:0:0], input.Row(i)...))
	}
	return input
}

// sortedCopy returns s sorted lexicographically, duplicates kept.
func sortedCopy(s points.Set) points.Set {
	out := append(points.Set(nil), s...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// TestFramedJobMatchesClassic runs the framed skyline job on a 3-worker
// cluster over duplicate-heavy input and requires, per partition, exactly
// the classic skyline.BNL skyline of the points routed there, as a
// sorted multiset.
func TestFramedJobMatchesClassic(t *testing.T) {
	ensureFrameJobs()
	master, _, _ := newCluster(t, MasterConfig{SplitSize: 100}, 3, WorkerConfig{})
	input := frameClusterInput(1500, 4, 11)

	res, err := master.Run(context.Background(),
		JobSpec{Name: "skyline-frame", Reducers: 3}, input)
	if err != nil {
		t.Fatal(err)
	}
	routed := map[int]points.Set{}
	for _, p := range input.ToSet() {
		routed[int(p[0])%frameParts] = append(routed[int(p[0])%frameParts], p)
	}
	if len(res.Blocks) != len(routed) {
		t.Fatalf("partitions: got %d, oracle %d", len(res.Blocks), len(routed))
	}
	for id, members := range routed {
		blk := res.Blocks[id]
		if blk == nil {
			t.Fatalf("partition %d missing from the result", id)
		}
		want, got := sortedCopy(skyline.BNL(members)), sortedCopy(blk.ToSet())
		if len(want) != len(got) {
			t.Fatalf("partition %d: skyline sizes %d vs BNL %d", id, len(got), len(want))
		}
		for i := range want {
			if !want[i].Equal(got[i]) {
				t.Fatalf("partition %d point %d: %v vs BNL %v", id, i, got[i], want[i])
			}
		}
	}
}

// TestFramedShuffleMetrics checks the per-worker frame-byte series land
// in the master's registry with payload semantics.
func TestFramedShuffleMetrics(t *testing.T) {
	ensureFrameJobs()
	reg := telemetry.NewRegistry()
	master, workers, _ := newCluster(t, MasterConfig{SplitSize: 200, Metrics: reg}, 2, WorkerConfig{})
	input := frameClusterInput(800, 3, 7)
	if _, err := master.Run(context.Background(),
		JobSpec{Name: "skyline-frame", Reducers: 2}, input); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, w := range workers {
		total += reg.Counter("rpcmr_shuffle_bytes_total", telemetry.L("worker", w.cfg.ID)).Value()
	}
	if total == 0 {
		t.Fatal("rpcmr_shuffle_bytes_total never incremented")
	}
	// Payload semantics: combiner output is at most the input, so bytes
	// must stay below the raw coordinate volume plus headers — far below
	// any gob-envelope figure for the same traffic.
	rawCoords := int64(input.Len() * 3 * 8)
	if total > rawCoords+rawCoords/2 {
		t.Fatalf("shuffle bytes %d exceed plausible payload bound %d", total, rawCoords+rawCoords/2)
	}
}

// TestFramedWorkerCrashRecovery: the frame path inherits lease-expiry
// reassignment — a worker vanishing mid-job must not lose frames.
func TestFramedWorkerCrashRecovery(t *testing.T) {
	ensureFrameJobs()
	mcfg := MasterConfig{SplitSize: 100, TaskLease: 200 * time.Millisecond}
	master, _, _ := newCluster(t, mcfg, 1, WorkerConfig{VanishAfterTasks: 2})

	healthy, err := NewWorker(WorkerConfig{MasterAddr: master.Addr(), ID: "healthy"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { healthy.Close() })
	go func() { _ = healthy.Run(context.Background()) }()

	input := frameClusterInput(1000, 3, 3)
	res, err := master.Run(context.Background(),
		JobSpec{Name: "skyline-frame", Reducers: 2}, input)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) == 0 {
		t.Fatal("no output blocks after crash recovery")
	}
	total := 0
	for _, blk := range res.Blocks {
		total += blk.Len()
	}
	if total == 0 {
		t.Fatal("empty skyline after crash recovery")
	}
}

// TestMapTaskAllocsIndependentOfRows: a worker map task decodes its input
// frame into one block and maps it through pooled builders, so its
// allocation count must not grow with the rows it carries.
func TestMapTaskAllocsIndependentOfRows(t *testing.T) {
	ensureJobs()
	allocs := func(rows int) float64 {
		docs := make([]string, rows)
		for i := range docs {
			docs[i] = testVocab[i%len(testVocab)]
		}
		task := TaskReply{Kind: TaskMap, JobName: "wordcount", Reducers: 2,
			Input: points.AppendFrame(nil, 0, wordsInput(docs...))}
		return testing.AllocsPerRun(20, func() {
			if _, _, err := executeMap(task); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1_000), allocs(10_000)
	t.Logf("map task allocs: %.0f at 1000 rows, %.0f at 10000 rows", small, large)
	if d := large - small; d >= 64 || d <= -64 {
		t.Fatalf("map task allocs %.0f at 1000 rows vs %.0f at 10000 rows: the worker allocates per row", small, large)
	}
}

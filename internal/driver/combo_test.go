package driver

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/rtree"
	"repro/internal/skyline"
)

// pointsSet keeps the kernel-override test readable.
type pointsSet = points.Set

// Combination coverage: option interactions that individual tests miss.

func TestPartitionerOverride(t *testing.T) {
	data := uniformSet(101, 1000, 3)
	want := skyline.Naive(data)
	hybrid, err := partition.FitAngularRadial(data, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := Compute(context.Background(), data, Options{
		Scheme:              partition.Angular,
		PartitionerOverride: hybrid,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(got, want) {
		t.Error("hybrid partitioner changed the skyline")
	}
	if stats.Partitions != hybrid.Partitions() {
		t.Errorf("stats report %d partitions, hybrid has %d", stats.Partitions, hybrid.Partitions())
	}
}

func TestSpillPlusHierarchicalMerge(t *testing.T) {
	data := uniformSet(102, 900, 3)
	want := skyline.Naive(data)
	got, stats, err := Compute(context.Background(), data, Options{
		Scheme:             partition.Angular,
		Nodes:              8,
		SpillDir:           t.TempDir(),
		ReducerBudgetBytes: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(got, want) {
		t.Error("spill + hierarchical merge changed the skyline")
	}
	if stats.MergeRounds < 2 {
		t.Errorf("MergeRounds = %d, want >= 2", stats.MergeRounds)
	}
}

func TestKernelOverrideBBS(t *testing.T) {
	data := uniformSet(103, 700, 4)
	want := skyline.Naive(data)
	bbsKernel := func(s pointsSet) pointsSet {
		if len(s) == 0 {
			return nil
		}
		tr, err := rtree.New(s, rtree.DefaultFanout)
		if err != nil {
			t.Fatal(err)
		}
		return tr.Skyline(nil)
	}
	got, _, err := Compute(context.Background(), data, Options{
		Scheme:         partition.Grid,
		KernelOverride: bbsKernel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(got, want) {
		t.Error("BBS kernel override changed the skyline")
	}
}

// TestOverridesHonouredEverywhere: every entry point honours the
// Options overrides it documents. ComputeSkyband must partition with
// PartitionerOverride and report its occupancy; ComputeStream's
// combiner must run KernelOverride.
func TestOverridesHonouredEverywhere(t *testing.T) {
	ctx := context.Background()
	data := uniformSet(104, 1200, 3)
	hybrid, err := partition.FitAngularRadial(data, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	band, stats, err := ComputeSkyband(ctx, data, 2, Options{Scheme: partition.Angular, PartitionerOverride: hybrid})
	if err != nil {
		t.Fatal(err)
	}
	want, err := skyline.Skyband(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(band, want) {
		t.Error("skyband with a partitioner override is not exact")
	}
	if stats.Partitions != hybrid.Partitions() {
		t.Errorf("skyband stats report %d partitions, override has %d", stats.Partitions, hybrid.Partitions())
	}
	total := 0
	for _, c := range stats.PartitionCounts {
		total += c
	}
	if total != len(data) {
		t.Errorf("skyband PartitionCounts sum to %d, want %d", total, len(data))
	}

	var calls atomic.Int64
	counting := func(s points.Set) points.Set {
		calls.Add(1)
		return skyline.BNL(s)
	}
	got, _, err := ComputeStream(ctx, mapreduce.SetSource(data, 200),
		Options{Scheme: partition.Angular, Nodes: 2, KernelOverride: counting})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Error("ComputeStream never ran the KernelOverride")
	}
	if !sameMultiset(got, skyline.BNL(data)) {
		t.Error("ComputeStream with a kernel override is not exact")
	}
}

// countingPartitioner wraps a partitioner and counts its Assign calls.
type countingPartitioner struct {
	partition.Partitioner
	assigns atomic.Int64
}

func (c *countingPartitioner) Assign(p points.Point) (int, error) {
	c.assigns.Add(1)
	return c.Partitioner.Assign(p)
}

// TestIndexHonoursPartitionerOverride: BuildIndex and LoadIndex must
// route later Adds through PartitionerOverride, not through a refit of
// Scheme, and BuildIndex must fit no second partitioner.
func TestIndexHonoursPartitionerOverride(t *testing.T) {
	ctx := context.Background()
	data := uniformSet(105, 600, 3)
	hybrid, err := partition.FitAngularRadial(data, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	fresh := points.Point{0.5, 0.01, 0.02}
	want, err := hybrid.Assign(fresh)
	if err != nil {
		t.Fatal(err)
	}

	built := &countingPartitioner{Partitioner: hybrid}
	ix, err := BuildIndex(ctx, data, Options{Scheme: partition.Angular, PartitionerOverride: built})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.View().Partitions(); got != hybrid.Partitions() {
		t.Errorf("index has %d partitions, override has %d", got, hybrid.Partitions())
	}
	before := built.assigns.Load()
	if id, _, err := ix.Add(fresh); err != nil || id != want {
		t.Errorf("Add: partition %d, err %v; override assigns %d", id, err, want)
	}
	if built.assigns.Load() != before+1 {
		t.Error("BuildIndex's Add bypassed the partitioner override")
	}
	if !sameMultiset(ix.Global(), skyline.BNL(append(data.Clone(), fresh))) {
		t.Error("index global skyline wrong after Add")
	}

	blob, err := ix.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	loaded := &countingPartitioner{Partitioner: hybrid}
	restored, err := LoadIndex(ctx, bytes.NewReader(blob), Options{Scheme: partition.Angular, PartitionerOverride: loaded})
	if err != nil {
		t.Fatal(err)
	}
	if id, _, err := restored.Add(points.Point{0.02, 0.5, 0.01}); err != nil || loaded.assigns.Load() != 1 {
		t.Errorf("LoadIndex's Add: partition %d, err %v, override saw %d assigns, want 1", id, err, loaded.assigns.Load())
	}
}

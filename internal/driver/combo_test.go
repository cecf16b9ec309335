package driver

import (
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
	got, _, err := Compute(context.Background(), data, Options{
		Scheme:            partition.Angular,
		Nodes:             8,
		SpillDir:          t.TempDir(),
		HierarchicalMerge: true,
		MergeFanIn:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(got, want) {
		t.Error("spill + hierarchical merge changed the skyline")
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

package driver

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/partition"
	"repro/internal/skyline"
)

func TestHierarchicalMergeMatchesFlat(t *testing.T) {
	data := uniformSet(21, 1500, 4)
	want := skyline.Naive(data)
	for _, fanIn := range []int{2, 3, 8} {
		got, stats, err := Compute(context.Background(), data, Options{
			Scheme:            partition.Angular,
			Nodes:             8, // 16 partitions → multiple merge rounds at fanIn 2-3
			HierarchicalMerge: true,
			MergeFanIn:        fanIn,
		})
		if err != nil {
			t.Fatalf("fanIn %d: %v", fanIn, err)
		}
		if !sameMultiset(got, want) {
			t.Errorf("fanIn %d: %d points, oracle %d", fanIn, len(got), len(want))
		}
		if stats.MergeJob.Total <= 0 {
			t.Errorf("fanIn %d: no merge timing recorded", fanIn)
		}
	}
}

func TestHierarchicalMergeAllSchemes(t *testing.T) {
	data := uniformSet(22, 800, 3)
	want := skyline.Naive(data)
	for _, scheme := range allSchemes() {
		got, _, err := Compute(context.Background(), data, Options{
			Scheme:            scheme,
			Nodes:             4,
			HierarchicalMerge: true,
			MergeFanIn:        2,
		})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if !sameMultiset(got, want) {
			t.Errorf("%v: hierarchical merge wrong", scheme)
		}
	}
}

func TestHierarchicalMergeDefaultFanIn(t *testing.T) {
	data := uniformSet(23, 400, 2)
	got, _, err := Compute(context.Background(), data, Options{
		Scheme:            partition.Grid,
		HierarchicalMerge: true, // MergeFanIn unset → default 8
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(got, skyline.Naive(data)) {
		t.Error("default fan-in merge wrong")
	}
}

func TestHierarchicalMergeSinglePartition(t *testing.T) {
	// Degenerate: one partition → one round, trivially correct.
	data := uniformSet(24, 200, 2)
	got, _, err := Compute(context.Background(), data, Options{
		Scheme:            partition.Random,
		Partitions:        1,
		HierarchicalMerge: true,
		MergeFanIn:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(got, skyline.Naive(data)) {
		t.Error("single-partition hierarchical merge wrong")
	}
}

// TestMergeScheduleTimingSums: both entry points that merge through the
// schedule — ComputeStream and Compute with HierarchicalMerge — report
// the schedule's wall time as a nonzero MergeJob, and the phase times sum
// to Timing.Total.
func TestMergeScheduleTimingSums(t *testing.T) {
	data := uniformSet(25, 2000, 4)
	_, hier, err := Compute(context.Background(), data, Options{
		Scheme: partition.Angular, Nodes: 4, HierarchicalMerge: true, MergeFanIn: 2})
	if err != nil {
		t.Fatal(err)
	}
	src, err := dataset.NewSource(dataset.KindAnticorrelated, 25, 20000, 4, 2000)
	if err != nil {
		t.Fatal(err)
	}
	_, stream, err := ComputeStream(context.Background(), src, Options{
		Scheme: partition.Angular, Nodes: 4, ReducerBudgetBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*Stats{"hierarchical": hier, "stream": stream} {
		if st.MergeJob.Total <= 0 || st.MergeJob.Reduce != st.MergeJob.Total {
			t.Errorf("%s: MergeJob = %+v, want a nonzero reduce-only schedule time", name, st.MergeJob)
		}
		if st.MergeRounds < 1 {
			t.Errorf("%s: MergeRounds = %d", name, st.MergeRounds)
		}
		if sum := st.PartitionJob.Total + st.MergeJob.Total; st.Timing.Total != sum {
			t.Errorf("%s: Timing.Total = %v, phases sum to %v", name, st.Timing.Total, sum)
		}
	}
}

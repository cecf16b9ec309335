package driver

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/partition"
	"repro/internal/skyline"
)

// A reducer budget below the local skylines' volume turns the merge into
// several rounds of budget-sized groups — the paper's §II iterative
// extension. These tests pin that the rounds happen and stay exact.

func TestHierarchicalMergeMatchesFlat(t *testing.T) {
	data := uniformSet(21, 1500, 4)
	want := skyline.Naive(data)
	for _, budget := range []int64{256, 1024, 4096} {
		got, stats, err := Compute(context.Background(), data, Options{
			Scheme:             partition.Angular,
			Nodes:              8,
			ReducerBudgetBytes: budget,
			SpillDir:           t.TempDir(),
		})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if !sameMultiset(got, want) {
			t.Errorf("budget %d: %d points, oracle %d", budget, len(got), len(want))
		}
		if stats.MergeRounds < 2 {
			t.Errorf("budget %d: %d merge rounds, want >= 2", budget, stats.MergeRounds)
		}
		if stats.MergeJob.Total <= 0 {
			t.Errorf("budget %d: no merge timing recorded", budget)
		}
	}
}

func TestHierarchicalMergeAllSchemes(t *testing.T) {
	data := uniformSet(22, 800, 3)
	want := skyline.Naive(data)
	for _, scheme := range allSchemes() {
		got, stats, err := Compute(context.Background(), data, Options{
			Scheme:             scheme,
			Nodes:              4,
			ReducerBudgetBytes: 128,
			SpillDir:           t.TempDir(),
		})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if !sameMultiset(got, want) {
			t.Errorf("%v: hierarchical merge wrong", scheme)
		}
		if stats.MergeRounds < 2 {
			t.Errorf("%v: %d merge rounds, want >= 2", scheme, stats.MergeRounds)
		}
	}
}

// TestHierarchicalMergeDefaultFanIn: with no budget the schedule puts
// every local skyline into one group — one round over all candidates,
// the paper's single global merge.
func TestHierarchicalMergeDefaultFanIn(t *testing.T) {
	data := uniformSet(23, 400, 2)
	got, stats, err := Compute(context.Background(), data, Options{Scheme: partition.Grid})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(got, skyline.Naive(data)) {
		t.Error("unbudgeted merge wrong")
	}
	want := int64(stats.LocalSkylineTotal() * data.Dim() * 8)
	if stats.MergeRounds != 1 || len(stats.MergeRoundBytes) != 1 || stats.MergeRoundBytes[0] != want {
		t.Errorf("MergeRounds = %d, MergeRoundBytes = %v; want one round of %d bytes",
			stats.MergeRounds, stats.MergeRoundBytes, want)
	}
}

func TestHierarchicalMergeSinglePartition(t *testing.T) {
	// Degenerate: one partition → one candidate → one round, even under
	// a budget it exceeds.
	data := uniformSet(24, 200, 2)
	got, stats, err := Compute(context.Background(), data, Options{
		Scheme:             partition.Random,
		Partitions:         1,
		ReducerBudgetBytes: 64,
		SpillDir:           t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(got, skyline.Naive(data)) {
		t.Error("single-partition hierarchical merge wrong")
	}
	if stats.MergeRounds != 1 {
		t.Errorf("MergeRounds = %d, want 1", stats.MergeRounds)
	}
}

// TestMergeScheduleTimingSums: every entry point reports its merge's wall
// time as a nonzero reduce-only MergeJob and at least one merge round,
// and the phase times sum to Timing.Total.
func TestMergeScheduleTimingSums(t *testing.T) {
	ctx := context.Background()
	data := uniformSet(25, 2000, 4)
	opts := Options{Scheme: partition.Angular, Nodes: 4}
	_, plain, err := Compute(ctx, data, opts)
	if err != nil {
		t.Fatal(err)
	}
	tight := opts
	tight.ReducerBudgetBytes = 512
	_, budgeted, err := Compute(ctx, data, tight)
	if err != nil {
		t.Fatal(err)
	}
	_, band, err := ComputeSkyband(ctx, data, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	src, err := dataset.NewSource(dataset.KindAnticorrelated, 25, 20000, 4, 2000)
	if err != nil {
		t.Fatal(err)
	}
	_, stream, err := ComputeStream(ctx, src, Options{
		Scheme: partition.Angular, Nodes: 4, ReducerBudgetBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*Stats{"plain": plain, "budgeted": budgeted, "skyband": band, "stream": stream} {
		if st.MergeJob.Total <= 0 || st.MergeJob.Reduce != st.MergeJob.Total {
			t.Errorf("%s: MergeJob = %+v, want a nonzero reduce-only merge time", name, st.MergeJob)
		}
		if st.MergeRounds < 1 {
			t.Errorf("%s: MergeRounds = %d", name, st.MergeRounds)
		}
		if sum := st.PartitionJob.Total + st.MergeJob.Total; st.Timing.Total != sum {
			t.Errorf("%s: Timing.Total = %v, phases sum to %v", name, st.Timing.Total, sum)
		}
	}
	if plain.MergeRounds != 1 || budgeted.MergeRounds < 2 {
		t.Errorf("MergeRounds: plain %d (want 1), budgeted %d (want >= 2)", plain.MergeRounds, budgeted.MergeRounds)
	}
}

package driver

import (
	"context"
	"testing"

	"repro/internal/partition"
	"repro/internal/qws"
	"repro/internal/skyline"
	"repro/internal/telemetry"
)

// TestFlatMatchesClassic runs the full pipeline on its flat block
// kernels across schemes and kernels and requires exactly the classic
// Set-kernel BNL skyline, as a multiset.
func TestFlatMatchesClassic(t *testing.T) {
	data := qws.Dataset(7, 1500, 5)
	want := skyline.BNL(data)
	for _, scheme := range []partition.Scheme{partition.Dimensional, partition.Grid, partition.Angular} {
		for _, kernel := range []skyline.Algorithm{skyline.BNLAlgorithm, skyline.SFSAlgorithm} {
			got, _, err := Compute(context.Background(), data,
				Options{Scheme: scheme, Nodes: 4, Kernel: kernel})
			if err != nil {
				t.Fatalf("%v/%v: %v", scheme, kernel, err)
			}
			if !sameMultiset(got, want) {
				t.Fatalf("%v/%v: %d points, BNL oracle %d", scheme, kernel, len(got), len(want))
			}
		}
	}
}

// TestFlatHierarchicalMerge covers the flat kernels feeding the
// multi-round merge schedule.
func TestFlatHierarchicalMerge(t *testing.T) {
	data := qws.Dataset(8, 1200, 4)
	got, stats, err := Compute(context.Background(), data,
		Options{Scheme: partition.Angular, Nodes: 4, ReducerBudgetBytes: 256, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if want := skyline.BNL(data); !sameMultiset(got, want) {
		t.Fatalf("hierarchical flat merge: %d points, BNL oracle %d", len(got), len(want))
	}
	if stats.MergeRounds < 2 {
		t.Errorf("MergeRounds = %d, want >= 2", stats.MergeRounds)
	}
}

// TestDominanceCounterBridged: a run with a registry must surface the
// flat kernels' dominance-test delta as skyline_dominance_tests_total.
func TestDominanceCounterBridged(t *testing.T) {
	data := qws.Dataset(9, 800, 4)
	reg := telemetry.NewRegistry()
	_, _, err := Compute(context.Background(), data,
		Options{Scheme: partition.Angular, Nodes: 4, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("skyline_dominance_tests_total").Value(); v <= 0 {
		t.Fatalf("skyline_dominance_tests_total = %d, want > 0", v)
	}
}

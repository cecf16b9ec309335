package driver

import (
	"context"
	"testing"

	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/skyline"
)

// dupSet builds a uniform set and re-appends a slice of exact
// duplicates, so the shuffle's multiset semantics are exercised, not just
// set semantics.
func dupSet(seed int64, n, d int) points.Set {
	s := uniformSet(seed, n, d)
	for i := 0; i < n/10; i++ {
		s = append(s, s[i].Clone())
	}
	return s
}

// TestFrameShuffleMatchesOracle is the in-process equivalence property:
// for every scheme and a spread of dimensions, on duplicate-heavy input,
// the framed pipeline's global skyline is the BNL skyline as a multiset,
// and every local skyline is the BNL skyline of its partition's points.
func TestFrameShuffleMatchesOracle(t *testing.T) {
	for _, d := range []int{2, 4, 6} {
		data := dupSet(int64(100+d), 700, d)
		want := skyline.BNL(data)
		for _, scheme := range allSchemes() {
			got, stats, err := Compute(context.Background(), data, Options{Scheme: scheme, Nodes: 4})
			if err != nil {
				t.Fatalf("%v d=%d: %v", scheme, d, err)
			}
			if !sameMultiset(got, want) {
				t.Errorf("%v d=%d: framed skyline (%d pts) != BNL oracle (%d pts)",
					scheme, d, len(got), len(want))
			}
			part, err := partition.New(scheme, data, 8)
			if err != nil {
				t.Fatal(err)
			}
			members := make(map[int]points.Set)
			for _, p := range data {
				id, err := part.Assign(p)
				if err != nil {
					t.Fatal(err)
				}
				members[id] = append(members[id], p)
			}
			for id, ls := range stats.LocalSkylines {
				if !sameMultiset(ls, skyline.BNL(members[id])) {
					t.Errorf("%v d=%d: partition %d local skyline differs from BNL", scheme, d, id)
				}
			}
		}
	}
}

// TestFrameShuffleSpillMatches runs the pipeline in spill mode: frames
// must survive the disk round trip with results identical to the
// in-memory run.
func TestFrameShuffleSpillMatches(t *testing.T) {
	data := dupSet(7, 900, 4)
	want := skyline.Naive(data)
	{
		framedSpill, _, err := Compute(context.Background(), data,
			Options{Scheme: partition.Angular, Nodes: 4, SpillDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		framedMem, _, err := Compute(context.Background(), data,
			Options{Scheme: partition.Angular, Nodes: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !sameMultiset(framedSpill, framedMem) {
			t.Error("spill-mode framed skyline differs from in-memory framed skyline")
		}
		if !sameMultiset(framedSpill, want) {
			t.Error("spill-mode framed skyline differs from oracle")
		}
	}
}

// TestFrameShuffleHierarchicalMerge checks the framed partitioning job
// feeds the merge schedule's budget-driven rounds correctly.
func TestFrameShuffleHierarchicalMerge(t *testing.T) {
	data := dupSet(9, 800, 3)
	want := skyline.Naive(data)
	got, stats, err := Compute(context.Background(), data,
		Options{Scheme: partition.Grid, Nodes: 4, ReducerBudgetBytes: 64, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(got, want) {
		t.Errorf("hierarchical framed skyline %d pts, oracle %d", len(got), len(want))
	}
	if stats.MergeJob.Total <= 0 || stats.MergeRounds < 2 {
		t.Errorf("merge rounds: %d in %v, want >= 2 in nonzero time", stats.MergeRounds, stats.MergeJob.Total)
	}
}

// TestFrameShuffleAblations: combiner off and pruning off still produce
// the BNL skyline.
func TestFrameShuffleAblations(t *testing.T) {
	data := dupSet(13, 600, 3)
	want := skyline.BNL(data)
	for _, opt := range []Options{
		{Scheme: partition.Grid, Nodes: 4, DisableCombiner: true},
		{Scheme: partition.Grid, Nodes: 4, DisableGridPruning: true},
	} {
		got, _, err := Compute(context.Background(), data, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !sameMultiset(got, want) {
			t.Errorf("ablation %+v: framed skyline differs from BNL", opt)
		}
	}
}

// TestFrameShuffleCounters: the framed run books shuffle counters with
// frame payload semantics (headers + coords, no gob envelope).
func TestFrameShuffleCounters(t *testing.T) {
	data := uniformSet(21, 1000, 4)
	_, stats, err := Compute(context.Background(), data, Options{Scheme: partition.Angular, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	recs := stats.Counters["mr.shuffle.records"]
	if recs <= 0 || recs > int64(2*len(data)) {
		t.Errorf("shuffle records = %d, implausible for %d inputs", recs, len(data))
	}
	bytes := stats.Counters["mr.shuffle.bytes"]
	// Combined local skylines can only shrink data; payload bytes must be
	// below raw coordinate volume plus generous header slack.
	max := int64(len(data)*4*8) * 2
	if bytes <= 0 || bytes > max {
		t.Errorf("shuffle bytes = %d, want in (0, %d]", bytes, max)
	}
}

package driver

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/rtree"
	"repro/internal/skyline"
)

// edgeInputs are the degenerate inputs every entry point must handle
// exactly: ties everywhere, one dimension, one point, the origin.
func edgeInputs() []struct {
	name string
	data points.Set
} {
	rng := rand.New(rand.NewSource(41))
	repeat := func(n int, p points.Point) points.Set {
		s := make(points.Set, n)
		for i := range s {
			s[i] = p.Clone()
		}
		return s
	}
	heavy := make(points.Set, 300)
	for i := range heavy {
		heavy[i] = points.Point{float64(rng.Intn(4)), float64(rng.Intn(4)), float64(rng.Intn(4))}
	}
	line := make(points.Set, 200)
	for i := range line {
		line[i] = points.Point{float64(rng.Intn(20))}
	}
	return []struct {
		name string
		data points.Set
	}{
		{"all-equal", repeat(120, points.Point{3, 3, 3})},
		{"heavy-duplicates", heavy},
		{"d=1", line},
		{"single-point", points.Set{{5, 7}}},
		{"zeros", repeat(40, points.Point{0, 0})},
	}
}

// edgeSchemes returns the schemes an input supports: angular
// partitioning needs at least two dimensions.
func edgeSchemes(d int) []partition.Scheme {
	if d == 1 {
		return []partition.Scheme{partition.Dimensional, partition.Grid}
	}
	return []partition.Scheme{partition.Dimensional, partition.Grid, partition.Angular}
}

// TestEdgeCaseOracleTable runs every Compute variant, ComputeStream over
// an in-memory chunk source (several chunks, and one), the skyband for
// k = 1..3 and the KernelOverride BBS path over the edge inputs, against
// skyline.Naive and skyline.Skyband as sorted multisets. Compute runs at
// 1, 4, 16 and 32 partitions, unbudgeted (one merge round) and under a
// tight reducer budget (several rounds whenever more than one local
// skyline does not fit it).
func TestEdgeCaseOracleTable(t *testing.T) {
	bbs := func(s points.Set) points.Set {
		if len(s) == 0 {
			return nil
		}
		tr, err := rtree.New(s, rtree.DefaultFanout)
		if err != nil {
			panic(err)
		}
		return tr.Skyline(nil)
	}
	variants := []struct {
		name string
		opts Options
	}{
		{"plain", Options{}},
		{"no-combiner", Options{DisableCombiner: true}},
		{"partitions-1", Options{Partitions: 1}},
		{"partitions-16", Options{Partitions: 16}},
		{"partitions-32", Options{Partitions: 32}},
		{"budget-64", Options{ReducerBudgetBytes: 64}},
		{"budget-64-partitions-16", Options{Partitions: 16, ReducerBudgetBytes: 64}},
		{"bbs-override", Options{KernelOverride: bbs}},
	}
	ctx := context.Background()
	multiRound := 0
	for _, in := range edgeInputs() {
		want := skyline.Naive(in.data)
		for _, scheme := range edgeSchemes(in.data.Dim()) {
			for _, v := range variants {
				name := fmt.Sprintf("%s/%v/%s", in.name, scheme, v.name)
				opts := v.opts
				opts.Scheme, opts.Nodes = scheme, 2
				if v.opts.ReducerBudgetBytes > 0 {
					opts.SpillDir = t.TempDir()
				}
				got, stats, err := Compute(ctx, in.data, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !sameMultiset(got, want) {
					t.Errorf("%s: %d points, Naive oracle %d", name, len(got), len(want))
				}
				candidates := int64(stats.LocalSkylineTotal() * in.data.Dim() * 8)
				budget := opts.ReducerBudgetBytes
				if budget > 0 && len(stats.LocalSkylines) > 1 && candidates > budget {
					multiRound++
					if stats.MergeRounds < 2 {
						t.Errorf("%s: %d merge rounds for %d candidate bytes under a %d-byte budget, want >= 2",
							name, stats.MergeRounds, candidates, budget)
					}
				} else if stats.MergeRounds != 1 {
					t.Errorf("%s: %d merge rounds, want 1", name, stats.MergeRounds)
				}
			}
			for _, split := range []int{(len(in.data) + 3) / 4, 0} {
				src := mapreduce.SetSource(in.data, split)
				got, _, err := ComputeStream(ctx, src, Options{Scheme: scheme, Nodes: 2})
				if err != nil {
					t.Fatalf("%s/%v/stream-%d-chunks: %v", in.name, scheme, src.Chunks(), err)
				}
				if !sameMultiset(got, want) {
					t.Errorf("%s/%v/stream-%d-chunks: %d points, Naive oracle %d",
						in.name, scheme, src.Chunks(), len(got), len(want))
				}
			}
			for k := 1; k <= 3; k++ {
				band, err := skyline.Skyband(in.data, k)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := ComputeSkyband(ctx, in.data, k, Options{Scheme: scheme, Nodes: 2})
				if err != nil {
					t.Fatalf("%s/%v/skyband-%d: %v", in.name, scheme, k, err)
				}
				if !sameMultiset(got, band) {
					t.Errorf("%s/%v/skyband-%d: %d points, Skyband oracle %d",
						in.name, scheme, k, len(got), len(band))
				}
			}
		}
	}
	if multiRound == 0 {
		t.Error("no tight-budget row needed more than one merge round")
	}
}

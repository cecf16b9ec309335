package driver

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/telemetry"
)

// canonicalSet renders a point set as sorted hex rows for multiset
// comparison.
func canonicalSet(s points.Set) []string {
	rows := make([]string, len(s))
	for i, p := range s {
		rows[i] = fmt.Sprintf("%x", []float64(p))
	}
	sort.Strings(rows)
	return rows
}

// TestComputeStreamOracle: the out-of-core pipeline over a chunk source
// must produce exactly the in-memory pipeline's skyline over the
// materialized equivalent, under both a generous and a tiny reducer
// budget (the latter forcing multi-pass folds and multi-round merges).
func TestComputeStreamOracle(t *testing.T) {
	const n, d = 6000, 4
	for _, kind := range []dataset.Kind{dataset.KindAnticorrelated, dataset.KindCorrelated} {
		src, err := dataset.NewSource(kind, 11, n, d, 500)
		if err != nil {
			t.Fatal(err)
		}
		// Materialize the same rows for the oracle.
		var data points.Set
		if err := src.Stream(func(blk *points.Block) error {
			data = append(data, blk.ToSet()...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		oracle, _, err := Compute(context.Background(), data,
			Options{Scheme: partition.Angular, Nodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		want := canonicalSet(oracle)

		for _, tc := range []struct {
			name   string
			budget int64
		}{
			{"ample", 1 << 24},
			{"tiny", d * 8 * 16}, // 16-row windows force spill passes
		} {
			t.Run(fmt.Sprintf("%s-%s", kind, tc.name), func(t *testing.T) {
				rec := telemetry.NewRecorder("stream-test")
				ctx := telemetry.WithRecorder(context.Background(), rec)
				got, stats, err := ComputeStream(ctx, src, Options{
					Scheme: partition.Angular, Nodes: 2,
					SpillDir:           t.TempDir(),
					Codec:              points.FrameAuto,
					ReducerBudgetBytes: tc.budget,
				})
				if err != nil {
					t.Fatalf("ComputeStream: %v", err)
				}
				gotRows := canonicalSet(got)
				if len(gotRows) != len(want) {
					t.Fatalf("skyline size %d, want %d", len(gotRows), len(want))
				}
				for i := range want {
					if gotRows[i] != want[i] {
						t.Fatalf("skyline row %d differs", i)
					}
				}
				if stats.ReducerPeakBytes <= 0 {
					t.Fatal("ReducerPeakBytes not recorded")
				}
				if stats.MergeRounds < 1 {
					t.Fatalf("MergeRounds = %d, want >= 1", stats.MergeRounds)
				}
				if len(stats.MergeRoundBytes) != stats.MergeRounds {
					t.Fatalf("MergeRoundBytes len %d != rounds %d",
						len(stats.MergeRoundBytes), stats.MergeRounds)
				}
				total := 0
				for _, c := range stats.PartitionCounts {
					total += c
				}
				if total != n {
					t.Fatalf("partition counts sum %d, want %d", total, n)
				}
				rep := rec.Report()
				if rep.MergeRounds != stats.MergeRounds {
					t.Fatalf("recorder rounds %d, stats %d", rep.MergeRounds, stats.MergeRounds)
				}
				if rep.ReducerPeakBytes != stats.ReducerPeakBytes {
					t.Fatalf("recorder peak %d, stats %d", rep.ReducerPeakBytes, stats.ReducerPeakBytes)
				}
				if kind == dataset.KindAnticorrelated && tc.budget < 1<<12 && stats.MergePasses < 2 {
					t.Fatalf("tiny budget on anticorrelated resolved in %d pass(es)", stats.MergePasses)
				}
			})
		}
	}
}

// TestComputeBudgetedOracle: Compute with a reducer budget must match
// unbudgeted Compute exactly.
func TestComputeBudgetedOracle(t *testing.T) {
	data := dataset.Anticorrelated(5, 3000, 4)
	want, _, err := Compute(context.Background(), data,
		Options{Scheme: partition.Angular, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{1 << 24, 4 * 8 * 16} {
		got, stats, err := Compute(context.Background(), data, Options{
			Scheme: partition.Angular, Nodes: 2,
			SpillDir:           t.TempDir(),
			Codec:              points.FrameAuto,
			ReducerBudgetBytes: budget,
		})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		w, g := canonicalSet(want), canonicalSet(got)
		if len(w) != len(g) {
			t.Fatalf("budget %d: skyline size %d, want %d", budget, len(g), len(w))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("budget %d: row %d differs", budget, i)
			}
		}
		if stats.ReducerPeakBytes <= 0 {
			t.Fatalf("budget %d: peak not recorded", budget)
		}
	}
}

// TestMergeScheduleRounds: a budget smaller than the candidate volume
// must force more than one merge round, and the round-bytes trail must
// shrink monotonically toward the final round.
func TestMergeScheduleRounds(t *testing.T) {
	const d = 3
	// 16 candidate "local skylines" of 32 rows each; budget fits ~2 blocks.
	candidates := make([]*points.Block, 16)
	for i := range candidates {
		blk := points.NewBlock(d, 32)
		for r := 0; r < 32; r++ {
			// Rows on a shifted anti-diagonal: most survive merging.
			v := float64(r)/32 + float64(i)*1e-4
			blk.AppendRow([]float64{v, 1 - v, float64(i) / 16})
		}
		candidates[i] = blk
	}
	stats := &Stats{}
	budget := int64(2*32*d*8 + 1)
	out, err := mergeSchedule(context.Background(), candidates, d, budget,
		Options{SpillDir: t.TempDir(), Codec: points.FrameAuto}, stats)
	if err != nil {
		t.Fatal(err)
	}
	if out == nil || out.Len() == 0 {
		t.Fatal("empty merge output")
	}
	if stats.MergeRounds < 2 {
		t.Fatalf("MergeRounds = %d, want >= 2 under tight budget", stats.MergeRounds)
	}
	for i := 1; i < len(stats.MergeRoundBytes); i++ {
		if stats.MergeRoundBytes[i] > stats.MergeRoundBytes[i-1] {
			t.Fatalf("round bytes grew: %v", stats.MergeRoundBytes)
		}
	}
	// Single empty-candidate edge.
	if blk, err := mergeSchedule(context.Background(), nil, d, budget, Options{}, &Stats{}); err != nil || blk != nil {
		t.Fatalf("nil candidates: blk=%v err=%v", blk, err)
	}
}

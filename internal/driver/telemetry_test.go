package driver

import (
	"context"
	"strings"
	"testing"

	"repro/internal/partition"
	"repro/internal/telemetry"
)

// TestComputeTelemetry: the in-process pipeline with a registry and
// tracer attached must publish per-partition gauges and record a root
// span with the partitioning job's engine span and the merge schedule
// nested under it, the merge tree's levels under the schedule.
func TestComputeTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer()
	ctx := telemetry.WithTracer(context.Background(), tr)
	data := uniformSet(11, 500, 2)
	opts := Options{Scheme: partition.Grid, Nodes: 2, Metrics: reg}
	sky, stats, err := Compute(ctx, data, opts)
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	sizeGauges := 0
	for name := range snap.Gauges {
		if strings.HasPrefix(name, "skyline_partition_local_size{") {
			sizeGauges++
		}
	}
	if sizeGauges != len(stats.LocalSkylines) {
		t.Errorf("local-size gauges = %d, want %d", sizeGauges, len(stats.LocalSkylines))
	}
	if got := snap.Gauges["skyline_global_size"]; got != float64(len(sky)) {
		t.Errorf("skyline_global_size = %v, want %d", got, len(sky))
	}
	if got := snap.Gauges["skyline_pruned_partitions"]; got != float64(stats.PrunedPartitions) {
		t.Errorf("skyline_pruned_partitions = %v, want %d", got, stats.PrunedPartitions)
	}
	// The one engine job bridged its counters under its job label.
	jobs := 0
	for name := range snap.Counters {
		if strings.HasPrefix(name, "mr_jobs_total{") {
			jobs++
		}
	}
	if jobs != 1 || snap.Counters[`mr_jobs_total{job="MR-Grid-partitioning"}`] != 1 {
		t.Errorf("want exactly the partitioning job bridged: %v", snap.Counters)
	}

	byName := map[string]telemetry.SpanData{}
	for _, s := range tr.Spans() {
		byName[s.Name] = s
	}
	root, ok := byName["skyline:MR-Grid"]
	if !ok {
		t.Fatal("no root skyline span")
	}
	for _, job := range []string{"mr-job:MR-Grid-partitioning", "merge-schedule"} {
		s, ok := byName[job]
		if !ok {
			t.Fatalf("no %s span", job)
		}
		if s.Parent != root.ID {
			t.Errorf("%s not nested under the skyline span", job)
		}
	}
	levels := 0
	for _, s := range tr.Spans() {
		if s.Name == "merge-level" {
			levels++
			if s.Parent != byName["merge-schedule"].ID {
				t.Error("merge-level span not nested under merge-schedule")
			}
		}
	}
	if levels == 0 {
		t.Errorf("no merge-level spans for %d local skylines", len(stats.LocalSkylines))
	}
}

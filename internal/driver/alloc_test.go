package driver

import (
	"context"
	"testing"

	"repro/internal/partition"
	"repro/internal/qws"
)

// TestComputeAllocsNotPerPoint: a paper-scale in-process run must not
// allocate per input point. Map tasks read blocks of rows and the
// shuffle moves frames, so the allocation count depends on tasks,
// partitions and skyline sizes, not on n; n/4 leaves ample room for
// those and still fails any path that allocates once per point.
func TestComputeAllocsNotPerPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale allocation count")
	}
	const n, d = 100_000, 6
	data := qws.Dataset(1, n, d)
	for _, scheme := range []partition.Scheme{partition.Angular, partition.Grid, partition.Dimensional} {
		t.Run(scheme.String(), func(t *testing.T) {
			opts := Options{Scheme: scheme, Workers: 2}
			allocs := testing.AllocsPerRun(2, func() {
				if _, _, err := Compute(context.Background(), data, opts); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s: %.0f allocs per Compute at n=%d", scheme, allocs, n)
			if allocs >= n/4 {
				t.Fatalf("%s: %.0f allocs per Compute at n=%d, want < %d", scheme, allocs, n, n/4)
			}
		})
	}
}

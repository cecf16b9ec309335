package skyjob

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/rpcmr"
	"repro/internal/skyline"
)

// TestClusterFrameMatchesOracle runs the two-job pipeline on a 3-worker
// cluster over a duplicate-heavy dataset and requires the BNL skyline as
// a multiset, with every local skyline equal to the BNL skyline of the
// points its partition received.
func TestClusterFrameMatchesOracle(t *testing.T) {
	master := startCluster(t, 3)
	data := uniformSet(42, 1200, 4)
	for i := 0; i < 120; i++ {
		data = append(data, data[i].Clone())
	}
	want := skyline.BNL(data)

	for _, scheme := range []partition.Scheme{partition.Angular, partition.Grid} {
		spec, err := SpecFor(data, scheme, 8)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ComputeSpec(context.Background(), master, data, spec, 3)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if !sameMultiset(res.Skyline, want) {
			t.Errorf("%v: skyline (%d pts) != BNL oracle (%d pts)",
				scheme, len(res.Skyline), len(want))
		}
		part, err := spec.Build()
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
		if len(res.LocalSkylines) != len(members) {
			t.Fatalf("%v: %d local skylines, %d occupied partitions",
				scheme, len(res.LocalSkylines), len(members))
		}
		for id, ls := range res.LocalSkylines {
			if !sameMultiset(ls, skyline.BNL(members[id])) {
				t.Errorf("%v: partition %d local skyline differs from BNL", scheme, id)
			}
		}
		if res.Optimality() <= 0 {
			t.Errorf("%v: optimality = %v, want > 0", scheme, res.Optimality())
		}
	}
}

// TestSpecClassicShuffleTravels: the shuffle settings must round-trip
// through the JSON params so every worker shuffles the same way. A fitted
// spec keeps the raw v1 frames and the assembling kernel folds; a
// codec and a reducer budget must reach both jobs a worker builds.
func TestSpecClassicShuffleTravels(t *testing.T) {
	data := uniformSet(3, 50, 3)
	spec, err := SpecFor(data, partition.Grid, 4)
	if err != nil {
		t.Fatal(err)
	}
	factories := map[string]func([]byte) (rpcmr.Job, error){"partition": newPartitionJob, "merge": newMergeJob}
	check := func(spec Spec, wantCodec points.FrameCodec, wantBudget bool) {
		t.Helper()
		params, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		for name, factory := range factories {
			job, err := factory(params)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			budgeted := fmt.Sprintf("%T", job.FrameFolder(0)) == "*mapreduce.budgetedFrameFold"
			if budgeted != wantBudget {
				t.Errorf("%s job budgeted folder = %v, want %v", name, budgeted, wantBudget)
			}
			if job.Codec != wantCodec {
				t.Errorf("%s job codec = %v, want %v", name, job.Codec, wantCodec)
			}
			if job.BlockMapper == nil || job.FrameCombiner == nil || job.FrameFolder == nil {
				t.Errorf("%s job is missing frame code: %+v", name, job)
			}
		}
	}
	if spec.Codec != points.FrameDefault || spec.ReducerBudgetBytes != 0 {
		t.Fatalf("fitted spec must default to raw frames, unbudgeted: %+v", spec)
	}
	check(spec, points.FrameDefault, false)
	spec.Codec = points.FrameAuto
	check(spec, points.FrameAuto, false)
	spec.ReducerBudgetBytes = 1 << 20
	check(spec, points.FrameAuto, true)
}

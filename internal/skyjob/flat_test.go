package skyjob

import (
	"encoding/json"
	"sort"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/rpcmr"
	"repro/internal/skyline"
)

// reduceBlock folds one partition's block through a job's frame folder
// and collects what it emits.
func reduceBlock(t *testing.T, folder mapreduce.FrameFolder, s points.Set) points.Set {
	t.Helper()
	blk, ok := points.BlockOf(s)
	if !ok {
		t.Fatal("mixed-dimension test set")
	}
	fold := folder(0)
	if err := fold.Absorb(blk); err != nil {
		t.Fatal(err)
	}
	var out points.Set
	err := fold.Finish(func(_ int, row []float64) {
		out = append(out, points.Point(row).Clone())
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFlatAndClassicReducersAgree: the worker-side flat reducers and
// combiners of both jobs, for every flat kernel, must emit exactly the
// classic BNL skyline multiset.
func TestFlatAndClassicReducersAgree(t *testing.T) {
	s := points.Set{{3, 1}, {1, 3}, {2, 2}, {1, 3}, {4, 4}, {0, 5}}
	want := skyline.BNL(s)
	sortSet(want)
	for _, kernel := range []skyline.Algorithm{skyline.BNLAlgorithm, skyline.SFSAlgorithm} {
		spec, err := SpecFor(s, partition.Grid, 4)
		if err != nil {
			t.Fatal(err)
		}
		spec.Kernel = kernel
		params, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs := map[string]func([]byte) (rpcmr.Job, error){"local": newPartitionJob, "merge": newMergeJob}
		for name, factory := range jobs {
			job, err := factory(params)
			if err != nil {
				t.Fatal(err)
			}
			blk, _ := points.BlockOf(s)
			combined, err := job.FrameCombiner(0, blk)
			if err != nil {
				t.Fatal(err)
			}
			for stage, got := range map[string]points.Set{
				"reducer":  reduceBlock(t, job.FrameFolder, s),
				"combiner": combined.ToSet(),
			} {
				sortSet(got)
				if len(got) != len(want) {
					t.Fatalf("%v/%s %s emitted %d points, BNL %d", kernel, name, stage, len(got), len(want))
				}
				for i := range got {
					if !got[i].Equal(want[i]) {
						t.Fatalf("%v/%s %s diverged at %d: %v vs %v", kernel, name, stage, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func sortSet(s points.Set) {
	sort.Slice(s, func(i, j int) bool {
		for k := range s[i] {
			if s[i][k] != s[j][k] {
				return s[i][k] < s[j][k]
			}
		}
		return false
	})
}

// TestSpecClassicKernelTravels: every kernel choice, the classic BNL
// default included, must survive the JSON trip to workers, and a worker's
// partition job built from the decoded params must reduce with it to the
// BNL skyline. A zero spec must omit the optional fields.
func TestSpecClassicKernelTravels(t *testing.T) {
	data := uniformSet(11, 300, 3)
	for i := 0; i < 30; i++ {
		data = append(data, data[i].Clone())
	}
	want := skyline.BNL(data)
	sortSet(want)
	spec, err := SpecFor(data, partition.Grid, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []skyline.Algorithm{skyline.BNLAlgorithm, skyline.SFSAlgorithm, skyline.DCAlgorithm, skyline.NaiveAlgorithm} {
		spec.Kernel = alg
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var out Spec
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatal(err)
		}
		if out.Kernel != alg {
			t.Fatalf("kernel %v did not round-trip: %+v", alg, out)
		}
		job, err := newPartitionJob(b)
		if err != nil {
			t.Fatalf("kernel %v: %v", alg, err)
		}
		got := reduceBlock(t, job.FrameFolder, data)
		sortSet(got)
		if len(got) != len(want) {
			t.Fatalf("kernel %v: worker reducer emitted %d points, BNL %d", alg, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("kernel %v diverged at %d: %v vs %v", alg, i, got[i], want[i])
			}
		}
	}
	def, _ := json.Marshal(Spec{})
	var m map[string]interface{}
	if err := json.Unmarshal(def, &m); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"codec", "reducer_budget_bytes", "angular_splits"} {
		if _, ok := m[field]; ok {
			t.Errorf("zero spec serialized %s", field)
		}
	}
}

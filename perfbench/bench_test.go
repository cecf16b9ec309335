package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/dataset"
	"repro/internal/driver"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/registry"
	"repro/internal/skyline"
)

// tinySizes shrinks a workload so the self-test runs in seconds.
func tinySizes(name string) sizes {
	sz := defaultSizes(name)
	sz.n, sz.services, sz.publishPool = 3000, 3000, 500
	sz.setups, sz.rate, sz.checkFresh = 1, 1000, 2 // 1000 ops/s: two full blocks of the mix in 0.2 s
	return sz
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmark(t *testing.T) (workloads []string, endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []benchMetric           `json:"end_to_end"`
		PerLayer  []benchMetric           `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	units := func(ms []benchMetric) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	for _, w := range doc.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, units(doc.EndToEnd), units(doc.PerLayer)
}

// TestEveryMetricEmitted runs every workload at tiny sizes, untraced and
// traced, and checks that each emits exactly the metrics BENCHMARK.json
// names, with their units, and that every op was correct.
func TestEveryMetricEmitted(t *testing.T) {
	names, endToEnd, perLayer := loadBenchmark(t)
	if len(perLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(perLayer), len(layerMetrics))
	}
	for _, name := range names {
		run, ok := workloads[name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q has no implementation", name)
		}
		for _, traced := range []bool{false, true} {
			rep, err := run(config{seed: 3, seconds: 0.4, trace: traced}, tinySizes(name))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if rep.attempted == 0 || rep.failed != 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed", name, traced, rep.failed, rep.attempted)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(rep.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(rep.metrics), len(want))
			}
			for m, unit := range want {
				got, ok := rep.metrics[m]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, traced, m)
				case got.Unit != unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", name, traced, m, got.Unit, unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", name, traced, m, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, m, got.Value)
				}
			}
			if traced && len(rep.spans.spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", name)
			}
		}
	}
}

// TestCheckCatchesCorruptSkyline corrupts a correct skyline in the ways a
// broken pipeline could and expects the output check to refuse each.
func TestCheckCatchesCorruptSkyline(t *testing.T) {
	data := dataset.Anticorrelated(5, 2000, 4)
	ref := canonical(skyline.SFS(data))
	sky, _, err := driver.Compute(context.Background(), data, driverOptions(tinySizes("anti"), partition.Angular))
	if err != nil {
		t.Fatal(err)
	}
	if !sameSkyline(sky, ref) {
		t.Fatal("correct skyline refused")
	}
	clone := func() points.Set {
		out := make(points.Set, len(sky))
		for i, p := range sky {
			out[i] = append(points.Point(nil), p...)
		}
		return out
	}
	moved := clone()
	moved[0][1] += 1e-9
	dropped := clone()[1:]
	doubled := append(clone()[1:], sky[1])
	for name, bad := range map[string]points.Set{"moved": moved, "dropped": dropped, "doubled": doubled} {
		if sameSkyline(bad, ref) {
			t.Errorf("%s skyline accepted", name)
		}
	}
}

// TestCheckCatchesWrongNames serves a registry and checks a ceiling
// against a published set that differs from the served one by a single
// coordinate-equal service: the name-for-name check must refuse it.
func TestCheckCatchesWrongNames(t *testing.T) {
	sz := tinySizes("serve")
	initial := serviceSet(7, sz.services, sz.d)
	reg, err := registry.New(context.Background(), initial, serveOptions(sz))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	h := reg.Handler()
	if !checkCeiling(h, "/skyline", initial) {
		t.Fatal("correct answer refused")
	}
	pts := make(points.Set, len(initial))
	for i, s := range initial {
		pts[i] = s.QoS
	}
	best := skyline.SFS(pts)[0]
	ghost := append(append([]registry.Service(nil), initial...),
		registry.Service{Name: "ghost", QoS: append([]float64(nil), best...)})
	if checkCeiling(h, "/skyline", ghost) {
		t.Error("answer missing a coordinate-equal service accepted")
	}
}

// TestTimedPartitionerCountsAndPrunes checks that the timing wrapper
// counts every Assign made from concurrent map tasks and keeps MR-Grid's
// pruning on.
func TestTimedPartitionerCountsAndPrunes(t *testing.T) {
	data := dataset.Independent(11, 20000, 3)
	ctx := context.Background()
	for _, s := range []partition.Scheme{partition.Angular, partition.Grid} {
		opts := driver.Options{Scheme: s, Nodes: 4, Workers: 2}
		_, plain, err := driver.Compute(ctx, data, opts)
		if err != nil {
			t.Fatal(err)
		}
		part, err := partition.New(s, data, 8)
		if err != nil {
			t.Fatal(err)
		}
		wrapped, tp := wrapTimed(part)
		opts.PartitionerOverride = wrapped
		_, st, err := driver.Compute(ctx, data, opts)
		if err != nil {
			t.Fatal(err)
		}
		if st.PrunedPartitions != plain.PrunedPartitions {
			t.Errorf("%v: %d pruned under the wrapper, %d without", s, st.PrunedPartitions, plain.PrunedPartitions)
		}
		want := int64(len(data))
		if s == partition.Grid {
			want *= 2 // MR-Grid assigns once for the occupancy pre-pass, once in the mappers
			if plain.PrunedPartitions == 0 {
				t.Error("MR-Grid pruned nothing: the forwarding check is vacuous")
			}
		}
		if got := tp.calls.Load(); got != want {
			t.Errorf("%v: counted %d Assign calls, want %d", s, got, want)
		}
	}
}

// Command perfbench is the repository's end-to-end benchmark. It builds
// seeded inputs, drives the skyline system only through its public entry
// points (driver.Compute, skyjob over an rpcmr cluster, the registry's
// HTTP handler), checks every answer against an oracle, and prints one
// JSON result line:
//
//	perfbench --workload qws --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no tracing. With --trace 1 it carries the per-layer metrics of a separate
// traced run, and the spans recorded around each call into a layer are
// written under .bench_build/perfbench/. See README.md for the workloads
// and the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects what one workload run produced: the gated metrics,
// the per-workload figures the summary line prints under their own names,
// and the op tallies.
type report struct {
	metrics   map[string]metric
	summary   map[string]metric
	attempted int64
	failed    int64
	spans     *tracer
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, summary: map[string]metric{}}
}

func (r *report) set(name string, v float64, unit string)  { r.metrics[name] = metric{v, unit} }
func (r *report) note(name string, v float64, unit string) { r.summary[name] = metric{v, unit} }

// op tallies one checked operation.
func (r *report) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// config is everything a workload run needs besides its sizes.
type config struct {
	seed    int64
	seconds float64
	trace   bool
}

// workload runs one named workload at the given sizes.
type workload func(cfg config, sz sizes) (*report, error)

var workloads = map[string]workload{
	"qws":     runQWS,
	"anti":    runAnti,
	"cluster": runCluster,
	"serve":   runServe,
}

func main() {
	name := flag.String("workload", "", "workload: qws, anti, cluster or serve")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload qws|anti|cluster|serve, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	env := stamp()
	fmt.Printf("# env %s\n", mustJSON(env))

	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}
	rep, err := run(cfg, defaultSizes(*name))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if cfg.trace {
		path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		if err := rep.spans.write(path, env, *name, *seed, rep.metrics); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("# spans %s\n", path)
	}
	rep.note("failed_ratio", float64(rep.failed)/float64(max(rep.attempted, 1)), "ratio")
	fmt.Printf("# summary %s %s\n", *name, mustJSON(rep.summary))

	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	fmt.Println(mustJSON(res))
	if !res.Correct {
		os.Exit(1)
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of finite floats and strings are marshalled
	}
	return string(b)
}

// window reports whether a measured window that began at start still has
// time left.
func window(start time.Time, seconds float64) bool {
	return time.Since(start).Seconds() < seconds
}

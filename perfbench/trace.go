package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/partition"
	"repro/internal/points"
)

// span is one recorded call into a layer: its name, its interval relative
// to the tracer's origin, the span that caused it and the job (or serve
// op) it belongs to. Attrs carries the counts taken at the same boundary.
type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent"`
	Job    int64              `json:"job"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_s"`
	End    float64            `json:"end_s"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer starts
// nil spans, whose methods do nothing, so untraced paths record nothing.
type tracer struct {
	origin time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t     *tracer
	s     span
	start time.Time
}

// start opens a span; end closes and records it.
func (t *tracer) start(job, parent int64, name string) *openSpan {
	if t == nil {
		return nil
	}
	return &openSpan{
		t:     t,
		s:     span{ID: t.ids.Add(1), Parent: parent, Job: job, Name: name},
		start: time.Now(),
	}
}

// id is the span's identifier, the parent of spans it causes.
func (o *openSpan) id() int64 { return o.s.ID }

func (o *openSpan) attr(k string, v float64) {
	if o == nil {
		return
	}
	if o.s.Attrs == nil {
		o.s.Attrs = map[string]float64{}
	}
	o.s.Attrs[k] = v
}

func (o *openSpan) end() time.Duration {
	if o == nil {
		return 0
	}
	now := time.Now()
	d := now.Sub(o.start)
	o.s.Start = o.start.Sub(o.t.origin).Seconds()
	o.s.End = now.Sub(o.t.origin).Seconds()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
	return d
}

// write stores the run's spans with its environment stamp and metrics.
func (t *tracer) write(path string, env envStamp, workload string, seed int64, m map[string]metric) error {
	if t == nil {
		return fmt.Errorf("no tracer")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Env      envStamp          `json:"env"`
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Metrics  map[string]metric `json:"metrics"`
		Spans    []span            `json:"spans"`
	}{env, workload, seed, m, t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// timedPartitioner counts and times every Assign call the engine makes
// through driver.Options.PartitionerOverride. Map tasks call it from
// several goroutines at once, so the tallies are atomic.
type timedPartitioner struct {
	partition.Partitioner
	calls atomic.Int64
	nanos atomic.Int64
}

func (p *timedPartitioner) Assign(pt points.Point) (int, error) {
	t0 := time.Now()
	id, err := p.Partitioner.Assign(pt)
	p.nanos.Add(int64(time.Since(t0)))
	p.calls.Add(1)
	return id, err
}

// timedPruner is a timedPartitioner over a partitioner that can prune
// dominated partitions (MR-Grid). It forwards Prunable, so wrapping does
// not switch pruning off.
type timedPruner struct {
	*timedPartitioner
	pruner partition.Pruner
}

func (p timedPruner) Prunable(occupied []bool) []bool { return p.pruner.Prunable(occupied) }

// wrapTimed returns the wrapper to hand the driver and its tallies.
func wrapTimed(part partition.Partitioner) (partition.Partitioner, *timedPartitioner) {
	tp := &timedPartitioner{Partitioner: part}
	if pr, ok := part.(partition.Pruner); ok {
		return timedPruner{tp, pr}, tp
	}
	return tp, tp
}

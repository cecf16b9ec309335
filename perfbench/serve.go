package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/driver"
	"repro/internal/partition"
	"repro/internal/points"
	"repro/internal/registry"
	"repro/internal/skyline"
)

// opKind is what one serve op does.
type opKind int

const (
	readPopular opKind = iota // GET /skyline under one of a few fixed ceilings
	readFresh                 // GET /skyline under a ceiling never asked before
	publish                   // POST /services with a fresh service
)

func (k opKind) String() string {
	return [...]string{"read.popular", "read.fresh", "publish"}[k]
}

// serveOp is one request of the mix.
type serveOp struct {
	kind   opKind
	target string           // request URI of a read
	svc    registry.Service // service of a publish
}

// opDeck deals the serve mix from a seed: every block of 100 ops holds
// exactly the configured share of each kind, in shuffled order, so the
// mix does not drift between seeds. Publishes come in two kinds, also at
// a fixed share: ordinary ones, fresh services the initial skyline
// already dominates, and entering ones, which join the skyline. An
// entering publish copies, or improves by a hair on one attribute, the
// latest version of a skyline service that lies outside every
// constrained popular ceiling, so it always enters and always evicts
// exactly one popular cache entry, the unconstrained read's. Safe for
// concurrent use.
type opDeck struct {
	mu        sync.Mutex
	rng       *rand.Rand
	sz        sizes
	block     []opKind
	popular   []string
	columns   [][]float64 // sorted per-attribute values, for drawing ceilings
	ordinary  points.Set  // fresh dominated services to publish
	bases     points.Set  // latest version of each entering publish's base
	publishes int
	entering  int
}

func newDeck(seed int64, sz sizes, initial []registry.Service) *opDeck {
	dk := &opDeck{rng: rand.New(rand.NewSource(seed)), sz: sz}
	d := len(initial[0].QoS)
	data := make(points.Set, len(initial))
	for i, s := range initial {
		data[i] = points.Point(s.QoS)
	}
	dk.columns = make([][]float64, d)
	for j := range dk.columns {
		col := make([]float64, len(data))
		for i, p := range data {
			col[i] = p[j]
		}
		sort.Float64s(col)
		dk.columns[j] = col
	}
	dk.popular = append(dk.popular, "/skyline")
	var ceilings []points.Point
	for len(dk.popular) < sz.popular {
		uri := dk.ceilingURI(dk.rng)
		dk.popular = append(dk.popular, uri)
		ceilings = append(ceilings, ceilingOf(uri))
	}
	sky := canonical(skyline.SFS(data))
	for _, p := range sky {
		inside := false
		for _, c := range ceilings {
			inside = inside || within(p, c)
		}
		if !inside {
			dk.bases = append(dk.bases, append(points.Point(nil), p...))
		}
	}
	if len(dk.bases) == 0 {
		dk.bases = sky // tiny inputs: every skyline point sits in some ceiling
	}
	dk.rng.Shuffle(len(dk.bases), func(i, j int) { dk.bases[i], dk.bases[j] = dk.bases[j], dk.bases[i] })
	// Extensions keep the base as their prefix; the pool skips it, so
	// ordinary publishes are fresh services, not copies of the catalogue.
	for _, p := range qwsData(seed+1, qwsBase+sz.publishPool, d)[qwsBase:] {
		if dominatedBy(p, sky) {
			dk.ordinary = append(dk.ordinary, p)
		}
	}
	return dk
}

func dominatedBy(p points.Point, by points.Set) bool {
	for _, q := range by {
		if points.Dominates(q, p) {
			return true
		}
	}
	return false
}

// ceilingURI draws a ?max= ceiling whose bound on each attribute is that
// attribute's value at a random quantile in [0.2, 0.6].
func (dk *opDeck) ceilingURI(rng *rand.Rand) string {
	parts := make([]string, len(dk.columns))
	for j, col := range dk.columns {
		q := 0.2 + 0.4*rng.Float64()
		parts[j] = strconv.FormatFloat(col[int(q*float64(len(col)-1))], 'g', 8, 64)
	}
	return "/skyline?max=" + strings.Join(parts, ",")
}

func (dk *opDeck) next() serveOp {
	dk.mu.Lock()
	defer dk.mu.Unlock()
	if len(dk.block) == 0 {
		for i := 0; i < 100; i++ {
			k := readPopular
			switch {
			case i < dk.sz.freshPct:
				k = readFresh
			case i < dk.sz.freshPct+dk.sz.publishPct:
				k = publish
			}
			dk.block = append(dk.block, k)
		}
		dk.rng.Shuffle(len(dk.block), func(i, j int) { dk.block[i], dk.block[j] = dk.block[j], dk.block[i] })
	}
	k := dk.block[0]
	dk.block = dk.block[1:]
	switch k {
	case readFresh:
		return serveOp{kind: k, target: dk.ceilingURI(dk.rng)}
	case publish:
		dk.publishes++
		name := fmt.Sprintf("pub-%06d", dk.publishes)
		if dk.publishes%dk.sz.enterEvery != 0 {
			qos := dk.ordinary[(dk.publishes-1)%len(dk.ordinary)]
			return serveOp{kind: k, svc: registry.Service{Name: name, QoS: append([]float64(nil), qos...)}}
		}
		// Entering publishes alternate between an exact copy, so answers
		// must name every coordinate-equal service, and an improvement.
		base := dk.bases[dk.entering%len(dk.bases)]
		qos := append([]float64(nil), base...)
		if dk.entering%2 == 1 {
			j := dk.rng.Intn(len(qos))
			qos[j] -= 1e-6 * (1 + math.Abs(qos[j]))
			copy(base, qos)
		}
		dk.entering++
		return serveOp{kind: k, svc: registry.Service{Name: name, QoS: qos}}
	default:
		return serveOp{kind: k, target: dk.popular[dk.rng.Intn(len(dk.popular))]}
	}
}

// sink is a ResponseWriter that keeps the status, counts the body and
// keeps it only when asked (publish replies are tiny; read bodies are
// checked after the window, not during it).
type sink struct {
	header http.Header
	status int
	n      int
	keep   bool
	body   bytes.Buffer
}

func (s *sink) Header() http.Header {
	if s.header == nil {
		s.header = http.Header{}
	}
	return s.header
}

func (s *sink) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
}

func (s *sink) Write(b []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	s.n += len(b)
	if s.keep {
		s.body.Write(b)
	}
	return len(b), nil
}

// opResult is one executed op.
type opResult struct {
	op        serveOp
	latency   time.Duration // from the op's due time (open loop) or its start
	lateness  time.Duration // how late a client picked the op up
	ok        bool
	inSkyline bool
}

// do runs one op through the handler.
func do(h http.Handler, op serveOp) (ok, inSkyline bool) {
	w := &sink{keep: op.kind == publish}
	var req *http.Request
	if op.kind == publish {
		body, err := json.Marshal(op.svc)
		if err != nil {
			return false, false
		}
		req = httptest.NewRequest(http.MethodPost, "/services", bytes.NewReader(body))
	} else {
		req = httptest.NewRequest(http.MethodGet, op.target, nil)
	}
	h.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		return false, false
	}
	if op.kind != publish {
		return w.n > 0, false
	}
	var reply struct {
		InSkyline bool `json:"in_skyline"`
	}
	if err := json.Unmarshal(w.body.Bytes(), &reply); err != nil {
		return false, false
	}
	return true, reply.InSkyline
}

// openLoop offers ops on a fixed schedule for dur, whatever the
// handler's speed: op i is due at start + i/rate and belongs to client
// i mod clients, which sends it at its due time or, when still busy with
// its previous op, as soon as it is free. Each op is timed from the
// moment it was due, so a stall shows in every op queued behind it, and
// the delay before sending is the generator's lateness.
func openLoop(h http.Handler, dk *opDeck, rate float64, dur time.Duration, clients int,
	tr *tracer, jobBase int64) []opResult {
	interval := time.Duration(float64(time.Second) / rate)
	n := int64(dur / interval)
	start := time.Now()
	var mu sync.Mutex
	var out []opResult
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(c); i < n; i += int64(clients) {
				due := start.Add(time.Duration(i) * interval)
				// Sleep to just short of the due time, then spin: the
				// runtime's timer wake-ups can be a millisecond late, far
				// coarser than a cache hit.
				if wait := time.Until(due) - 2*time.Millisecond; wait > 0 {
					time.Sleep(wait)
				}
				for time.Now().Before(due) {
				}
				op := dk.next()
				late := time.Since(due)
				sp := tr.start(jobBase+i, 0, "serve."+op.kind.String())
				ok, in := do(h, op)
				sp.attr("lateness_s", late.Seconds())
				sp.end()
				r := opResult{op: op, latency: time.Since(due), lateness: late, ok: ok, inSkyline: in}
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs clients that each send their next op as soon as the
// previous one returns, for dur, and returns every op and the elapsed time.
func closedLoop(h http.Handler, dk *opDeck, dur time.Duration, clients int) ([]opResult, time.Duration) {
	var mu sync.Mutex
	var out []opResult
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				op := dk.next()
				t0 := time.Now()
				ok, in := do(h, op)
				r := opResult{op: op, latency: time.Since(t0), ok: ok, inSkyline: in}
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// serviceSet builds the initial catalogue: QWS-like services, the last
// one percent of them copies of earlier services' coordinates, so answers
// hold coordinate-equal services from the start.
func serviceSet(seed int64, n, d int) []registry.Service {
	data := qwsData(seed, n, d)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	dups := n / 100
	out := make([]registry.Service, n)
	for i, p := range data {
		qos := append([]float64(nil), p...)
		if i >= n-dups {
			qos = append([]float64(nil), data[rng.Intn(n-dups)]...)
		}
		out[i] = registry.Service{Name: fmt.Sprintf("svc-%06d", i), QoS: qos}
	}
	return out
}

func serveOptions(sz sizes) driver.Options {
	return driver.Options{Scheme: partition.Angular, Nodes: sz.nodes, Workers: sz.workers}
}

// runServe serves a QWS-like registry in-process through its HTTP
// handler: reads mostly over popular ceilings (cache hits), a few fresh
// ceilings (misses), and publishes beside them.
func runServe(cfg config, sz sizes) (*report, error) {
	ctx := context.Background()
	rep := newReport()
	initial := serviceSet(cfg.seed, sz.services, sz.d)

	// Set-up: registry.New, several times, each from a collected heap;
	// the last one serves.
	var reg *registry.Registry
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		if reg != nil {
			reg.Close()
			reg = nil
		}
		runtime.GC()
		t0 := time.Now()
		r, err := registry.New(ctx, initial, serveOptions(sz))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		reg = r
	}
	defer reg.Close()
	h := reg.Handler()
	dk := newDeck(cfg.seed, sz, initial)
	// Fill the cache with the popular ceilings before any timing: a
	// deployed registry serves them warm.
	for _, uri := range dk.popular {
		ok, _ := do(h, serveOp{kind: readPopular, target: uri})
		rep.op(ok)
	}
	// Each run spends half its window on each phase: open then closed
	// loop, or, traced, untraced then traced open loop.
	half := time.Duration(cfg.seconds * float64(time.Second) / 2)

	var all []opResult
	if cfg.trace {
		tr := newTracer()
		rep.spans = tr
		base := openLoop(h, dk, sz.rate, half, sz.workers, nil, 0)
		all = append(all, base...)
		acc := layerAcc{}
		all = append(all, traceServe(reg, h, dk, sz, half, tr, base, acc)...)
		emitLayers(rep, acc)
	} else {
		runtime.GC()
		rt0 := readRuntime()
		open := openLoop(h, dk, sz.rate, half, sz.workers, nil, 0)
		m0 := reg.Metrics().Snapshot()
		closed, elapsed := closedLoop(h, dk, half, sz.workers)
		rt, m := rt0.delta(readRuntime()), reg.Metrics().Snapshot()
		rep.note("closed.cache_misses", counterDelta(m0, m, "registry_cache_misses_total"), "count")
		var entered float64
		for _, r := range closed {
			if r.inSkyline {
				entered++
			}
		}
		rep.note("closed.publishes_in_skyline", entered, "count")
		all = append(append(all, open...), closed...)
		rss, err := rssPeakBytes()
		if err != nil {
			return nil, err
		}
		reads, pubs, late := split(open)
		rep.set("setup_s", median(setups), "s")
		misses := latencies(open, readFresh)
		rep.set("op_s_p50", median(misses), "s")
		rep.set("work_per_s", div(float64(len(closed)), elapsed.Seconds()), "1/s")
		rep.set("alloc_bytes_per_op", div(float64(rt.allocBytes), float64(len(all))), "bytes")
		rep.set("rss_peak_bytes", rss, "bytes")

		rep.note("setup_s", median(setups), "s")
		rep.note("read_s_p50", median(reads), "s")
		rep.note("read_s_p99", quantile(reads, 0.99), "s")
		rep.note("reads", float64(len(reads)), "count")
		rep.note("miss_read_s_p50", median(misses), "s")
		rep.note("miss_reads", float64(len(misses)), "count")
		rep.note("publish_s_p50", median(pubs), "s")
		rep.note("publish_s_p90", quantile(pubs, 0.90), "s")
		rep.note("publishes", float64(len(pubs)), "count")
		rep.note("lateness_s_p50", median(late), "s")
		rep.note("lateness_s_p99", quantile(late, 0.99), "s")
		rep.note("offered_ops_per_s", sz.rate, "1/s")
		rep.note("serve_ops_per_s", div(float64(len(closed)), elapsed.Seconds()), "1/s")
		rep.note("alloc_bytes_per_op", div(float64(rt.allocBytes), float64(len(all))), "bytes")
		rep.note("rss_peak_bytes", rss, "bytes")
	}

	// Every op must have succeeded; then a fixed sample of ceilings must
	// match BNL over everything published, name for name.
	published := append([]registry.Service(nil), initial...)
	for _, r := range all {
		rep.op(r.ok)
		if r.ok && r.op.kind == publish {
			published = append(published, r.op.svc)
		}
	}
	sample := append([]string(nil), dk.popular...)
	check := rand.New(rand.NewSource(cfg.seed + 7))
	for i := 0; i < sz.checkFresh; i++ {
		sample = append(sample, dk.ceilingURI(check))
	}
	for _, uri := range sample {
		rep.op(checkCeiling(h, uri, published))
	}
	return rep, nil
}

// split separates open-loop results into read and publish latencies and
// the generator's lateness, all in seconds.
func split(rs []opResult) (reads, pubs, late []float64) {
	for _, r := range rs {
		if r.op.kind == publish {
			pubs = append(pubs, r.latency.Seconds())
		} else {
			reads = append(reads, r.latency.Seconds())
		}
		late = append(late, r.lateness.Seconds())
	}
	return reads, pubs, late
}

// latencies returns the latencies, in seconds, of the ops of one kind.
func latencies(rs []opResult, k opKind) []float64 {
	var out []float64
	for _, r := range rs {
		if r.op.kind == k {
			out = append(out, r.latency.Seconds())
		}
	}
	return out
}

// checkCeiling asks the handler for one ceiling and compares the service
// names it returns with BNL over the published services inside the
// ceiling, expanded to every service carrying a skyline coordinate.
func checkCeiling(h http.Handler, uri string, published []registry.Service) bool {
	max := ceilingOf(uri)
	var in points.Set
	for _, s := range published {
		if within(s.QoS, max) {
			in = append(in, points.Point(s.QoS))
		}
	}
	keys := map[string]bool{}
	for _, p := range skyline.BNL(in) {
		keys[points.Key(p)] = true
	}
	var want []string
	for _, s := range published {
		if within(s.QoS, max) && keys[points.Key(points.Point(s.QoS))] {
			want = append(want, s.Name)
		}
	}
	w := &sink{keep: true}
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, uri, nil))
	if w.status != http.StatusOK {
		return false
	}
	var got []registry.Service
	if err := json.Unmarshal(w.body.Bytes(), &got); err != nil {
		return false
	}
	names := make([]string, len(got))
	for i, s := range got {
		names[i] = s.Name
	}
	return sameNames(names, want)
}

// ceilingOf parses the ceiling of a ceilingURI; nil means unconstrained.
// The URIs are the deck's own, so their numbers always parse.
func ceilingOf(uri string) points.Point {
	var max points.Point
	if i := strings.Index(uri, "max="); i >= 0 {
		for _, f := range strings.Split(uri[i+4:], ",") {
			v, _ := strconv.ParseFloat(f, 64)
			max = append(max, v)
		}
	}
	return max
}

func within(q []float64, max points.Point) bool {
	for j := range max {
		if q[j] > max[j] {
			return false
		}
	}
	return true
}

// traceServe is the traced half of a traced serve run: the same open
// loop with a span around every op, the registry's query log sized to
// keep every record, and its counters read before and after. base is the
// untraced half, the overhead baseline. It returns the traced ops.
func traceServe(reg *registry.Registry, h http.Handler, dk *opDeck, sz sizes, dur time.Duration,
	tr *tracer, base []opResult, acc layerAcc) []opResult {
	reg.ConfigureQueryLog(1<<14, 16, 100*time.Millisecond)
	m0, dom0, rt0 := reg.Metrics().Snapshot(), skyline.DominanceTests(), readRuntime()
	traced := openLoop(h, dk, sz.rate, dur, sz.workers, tr, 1)
	rt, dom, m := rt0.delta(readRuntime()), skyline.DominanceTests()-dom0, reg.Metrics().Snapshot()

	var hits, misses, match, snapshot []float64
	for _, q := range reg.QueryLog().Recent(0) {
		if q.Op != "skyline" {
			continue
		}
		switch q.Path {
		case "cached":
			hits = append(hits, q.DurationSeconds)
		case "merge":
			misses = append(misses, q.DurationSeconds)
			for _, st := range q.Stages {
				switch st.Stage {
				case "match":
					match = append(match, st.Seconds)
				case "snapshot":
					snapshot = append(snapshot, st.Seconds)
				}
			}
		}
	}
	hit := counterDelta(m0, m, "registry_cache_hits_total")
	miss := counterDelta(m0, m, "registry_cache_misses_total")
	var pubs, entered float64
	for _, r := range traced {
		if r.op.kind == publish && r.ok {
			pubs++
			if r.inSkyline {
				entered++
			}
		}
	}
	reads, _, late := split(traced)
	baseReads, _, _ := split(base)
	ops := float64(len(traced))

	acc.add("registry.hit_s_p50", median(hits))
	acc.add("registry.miss_s_p50", median(misses))
	acc.add("registry.match_s_p50", median(match))
	acc.add("registry.snapshot_s_p50", median(snapshot))
	acc.add("registry.cache_hit_ratio", div(hit, hit+miss))
	acc.add("registry.cache_evictions", counterDelta(m0, m, "registry_cache_evictions_total"))
	acc.add("registry.publish_in_skyline_ratio", div(entered, pubs))
	acc.add("serve.lateness_s_p99", quantile(late, 0.99))
	acc.add("skyline.dominance_tests", div(float64(dom), ops))
	acc.add("skyline.global_size", float64(skylineSize(h)))
	acc.add("runtime.gc_cpu_s", div(rt.gcCPU, ops))
	acc.add("runtime.gc_cycles", div(float64(rt.gcCycles), ops))
	acc.add("runtime.alloc_bytes", div(float64(rt.allocBytes), ops))
	acc.add("runtime.alloc_objects", div(float64(rt.allocObjects), ops))
	acc.add("trace.traced_ops", ops)
	acc.add("trace.job_s_p50", median(reads))
	acc.add("trace.overhead_ratio", div(median(reads), median(baseReads)))
	return traced
}

// skylineSize reads the registry's global skyline size from /stats.
func skylineSize(h http.Handler) int {
	w := &sink{keep: true}
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st struct {
		SkylineSize int `json:"skyline_size"`
	}
	_ = json.Unmarshal(w.body.Bytes(), &st) // a failed read reports 0
	return st.SkylineSize
}

package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// The event log is the cluster's structured operational journal: every
// load-bearing transition — job and phase boundaries, task dispatch,
// retries, stragglers, spills, worker state changes — lands here as one
// leveled, attributed event. Storage is a bounded ring of per-slot
// locked cells: writers claim a slot with one atomic increment and touch
// only that slot's mutex, so concurrent producers never serialize on a
// global lock and the log can sit on dispatch paths. Readers snapshot
// the ring without stopping writers. Like the rest of the package it is
// nil-safe: a nil *EventLog drops everything, so call sites hold a bare
// handle with no branches.

// LogEvent is one recorded event. Seq is a process-wide monotonically
// increasing sequence number — the cursor for incremental consumers
// (/debug/events?since=N returns only newer events).
type LogEvent struct {
	Seq   uint64         `json:"seq"`
	Time  time.Time      `json:"time"`
	Level string         `json:"level"` // "debug", "info", "warn", "error"
	Msg   string         `json:"msg"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// levelIndex buckets a slog level into the four counter slots.
func levelIndex(l slog.Level) int {
	switch {
	case l < slog.LevelInfo:
		return 0
	case l < slog.LevelWarn:
		return 1
	case l < slog.LevelError:
		return 2
	default:
		return 3
	}
}

var levelNames = [4]string{"debug", "info", "warn", "error"}

// ParseLevel maps a level name ("debug", "info", "warn"/"warning",
// "error", any case) to its slog level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("telemetry: unknown level %q", s)
}

// eventSlot is one ring cell. seq is 0 while the cell has never been
// written. The event is retained pre-rendered as its JSON line in a
// buffer recycled across ring wraps: a full ring is pointer-free bytes
// the garbage collector never traces, so a busy log does not inflate
// mark cost for the job computing next to it. Reads (rare) parse the
// line back; seq and level stay as fields so filters skip without
// parsing.
type eventSlot struct {
	mu    sync.Mutex
	seq   uint64
	level int8 // levelIndex of the recorded level
	line  []byte
}

// EventLog is a bounded, concurrency-friendly ring of structured events.
// All methods are safe for concurrent use and no-op on a nil receiver.
type EventLog struct {
	slots  []eventSlot
	seq    atomic.Uint64
	min    atomic.Int64                // minimum recorded level (slog.Level)
	count  [4]atomic.Int64             // per-level totals since start
	bridge atomic.Pointer[[4]*Counter] // per-level registry counters, when bound
}

// NewEventLog returns an event log retaining the most recent capacity
// events (minimum 16; 1024 is a sensible default for a long-lived
// process). The log records every level until SetLevel raises the bar.
func NewEventLog(capacity int) *EventLog {
	if capacity < 16 {
		capacity = 16
	}
	l := &EventLog{slots: make([]eventSlot, capacity)}
	l.min.Store(int64(slog.LevelDebug))
	return l
}

// SetLevel drops events below min at the write path.
func (l *EventLog) SetLevel(min slog.Level) {
	if l == nil {
		return
	}
	l.min.Store(int64(min))
}

// Enabled reports whether an event at level would be recorded — the
// cheap pre-check for hot call sites that build attribute lists.
func (l *EventLog) Enabled(level slog.Level) bool {
	return l != nil && int64(level) >= l.min.Load()
}

// BindMetrics bridges the per-level event totals into reg as
// events_total{level} counters. Counts accumulated before binding are
// replayed so the series never under-reports.
func (l *EventLog) BindMetrics(reg *Registry) {
	if l == nil || reg == nil {
		return
	}
	var cs [4]*Counter
	for i, name := range levelNames {
		cs[i] = reg.Counter("events_total", L("level", name))
		cs[i].Add(l.count[i].Load())
	}
	l.bridge.Store(&cs)
}

// Log records one event. Attrs are flattened into the event's attribute
// map on read; later keys win. The write claims a ring slot with one
// atomic increment and locks only that slot — the attr slice is retained
// as-is, with no per-event map build.
func (l *EventLog) Log(level slog.Level, msg string, attrs ...Attr) {
	if l == nil || int64(level) < l.min.Load() {
		return
	}
	l.log(level, msg, attrs)
}

func (l *EventLog) log(level slog.Level, msg string, attrs []Attr) {
	li := levelIndex(level)
	l.count[li].Add(1)
	if cs := l.bridge.Load(); cs != nil {
		cs[li].Inc()
	}
	now := time.Now()
	seq := l.seq.Add(1)
	slot := &l.slots[(seq-1)%uint64(len(l.slots))]
	slot.mu.Lock()
	slot.seq = seq
	slot.level = int8(li)
	slot.line = appendEventJSON(slot.line[:0], seq, now, levelNames[li], msg, attrs)
	slot.mu.Unlock()
}

// appendEventJSON renders one event as its JSON line (no trailing
// newline), matching the LogEvent encoding. Hand-rolled so the write
// path costs one buffer append instead of reflection and retained maps.
func appendEventJSON(b []byte, seq uint64, t time.Time, level, msg string, attrs []Attr) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, `,"time":"`...)
	b = t.AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","level":"`...)
	b = append(b, level...)
	b = append(b, `","msg":`...)
	b = appendJSONString(b, msg)
	if len(attrs) > 0 {
		b = append(b, `,"attrs":{`...)
		for i, a := range attrs {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, a.Key)
			b = append(b, ':')
			b = appendJSONValue(b, a.Value)
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendJSONString appends s as a JSON string literal.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for _, r := range s {
		switch {
		case r == '"':
			b = append(b, '\\', '"')
		case r == '\\':
			b = append(b, '\\', '\\')
		case r == '\n':
			b = append(b, '\\', 'n')
		case r == '\t':
			b = append(b, '\\', 't')
		case r < 0x20:
			b = append(b, `\u00`...)
			const hex = "0123456789abcdef"
			b = append(b, hex[r>>4], hex[r&0xf])
		default:
			b = utf8.AppendRune(b, r)
		}
	}
	return append(b, '"')
}

// appendJSONValue appends an attribute value of any common scalar type;
// everything else is stringified.
func appendJSONValue(b []byte, v any) []byte {
	switch x := v.(type) {
	case string:
		return appendJSONString(b, x)
	case bool:
		return strconv.AppendBool(b, x)
	case int:
		return strconv.AppendInt(b, int64(x), 10)
	case int64:
		return strconv.AppendInt(b, x, 10)
	case uint64:
		return strconv.AppendUint(b, x, 10)
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return appendJSONString(b, strconv.FormatFloat(x, 'g', -1, 64))
		}
		return strconv.AppendFloat(b, x, 'g', -1, 64)
	case float32:
		return appendJSONValue(b, float64(x))
	case time.Duration:
		return appendJSONString(b, x.String())
	default:
		return appendJSONString(b, fmt.Sprint(v))
	}
}

// Debug, Info, Warn and Error are level shorthands for Log.
func (l *EventLog) Debug(msg string, attrs ...Attr) { l.Log(slog.LevelDebug, msg, attrs...) }
func (l *EventLog) Info(msg string, attrs ...Attr)  { l.Log(slog.LevelInfo, msg, attrs...) }
func (l *EventLog) Warn(msg string, attrs ...Attr)  { l.Log(slog.LevelWarn, msg, attrs...) }
func (l *EventLog) Error(msg string, attrs ...Attr) { l.Log(slog.LevelError, msg, attrs...) }

// LastSeq returns the sequence number of the most recently written event
// (0 when nothing has been logged) — the cursor for incremental reads.
func (l *EventLog) LastSeq() uint64 {
	if l == nil {
		return 0
	}
	return l.seq.Load()
}

// LevelCounts returns the per-level totals since the log was created
// (dropped-by-ring events included — the counts are write-side).
func (l *EventLog) LevelCounts() map[string]int64 {
	out := make(map[string]int64, 4)
	if l == nil {
		return out
	}
	for i, name := range levelNames {
		out[name] = l.count[i].Load()
	}
	return out
}

// Events returns the retained events with Seq > since and level >= min,
// in sequence order. A wrapped ring returns only the surviving tail —
// consumers detect loss by a gap between their cursor and the first
// returned Seq.
func (l *EventLog) Events(since uint64, min slog.Level) []LogEvent {
	if l == nil {
		return nil
	}
	out := make([]LogEvent, 0, len(l.slots))
	for _, line := range l.lines(since, min) {
		var ev LogEvent
		if json.Unmarshal(line, &ev) == nil {
			out = append(out, ev)
		}
	}
	return out
}

// lines snapshots the retained, filter-matching JSON lines in sequence
// order. Each line is copied out under its slot lock so later writes
// cannot mutate the returned bytes.
func (l *EventLog) lines(since uint64, min slog.Level) [][]byte {
	type seqLine struct {
		seq  uint64
		line []byte
	}
	matched := make([]seqLine, 0, len(l.slots))
	minIdx := levelIndex(min)
	for i := range l.slots {
		s := &l.slots[i]
		s.mu.Lock()
		if s.seq > since && int(s.level) >= minIdx {
			matched = append(matched, seqLine{s.seq, append([]byte(nil), s.line...)})
		}
		s.mu.Unlock()
	}
	sort.Slice(matched, func(i, j int) bool { return matched[i].seq < matched[j].seq })
	out := make([][]byte, len(matched))
	for i, m := range matched {
		out[i] = m.line
	}
	return out
}

// WriteJSONLines writes the retained events matching the filters as one
// JSON object per line — the exposition and shutdown-flush format.
func (l *EventLog) WriteJSONLines(w io.Writer, since uint64, min slog.Level) error {
	if l == nil {
		return nil
	}
	for _, line := range l.lines(since, min) {
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// log/slog integration

// Logger returns a *slog.Logger whose records land in the event log, so
// code written against the standard structured-logging API feeds the
// same ring as the direct Log calls.
func (l *EventLog) Logger() *slog.Logger {
	return slog.New(&slogHandler{log: l})
}

// slogHandler adapts EventLog to slog.Handler. WithAttrs pre-binds
// attributes; WithGroup prefixes subsequent keys ("group.key"), the flat
// rendering the JSON-lines exposition wants.
type slogHandler struct {
	log    *EventLog
	prefix string
	bound  []Attr
}

// Enabled implements slog.Handler.
func (h *slogHandler) Enabled(_ context.Context, level slog.Level) bool {
	return h.log != nil && int64(level) >= h.log.min.Load()
}

// Handle implements slog.Handler.
func (h *slogHandler) Handle(_ context.Context, r slog.Record) error {
	if h.log == nil {
		return nil
	}
	var attrs []Attr
	if len(h.bound) > 0 || r.NumAttrs() > 0 {
		attrs = make([]Attr, 0, len(h.bound)+r.NumAttrs())
		attrs = append(attrs, h.bound...)
		r.Attrs(func(a slog.Attr) bool {
			attrs = append(attrs, Attr{Key: h.prefix + a.Key, Value: a.Value.Resolve().Any()})
			return true
		})
	}
	h.log.log(r.Level, r.Message, attrs)
	return nil
}

// WithAttrs implements slog.Handler.
func (h *slogHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	nh := &slogHandler{log: h.log, prefix: h.prefix, bound: append([]Attr(nil), h.bound...)}
	for _, a := range attrs {
		nh.bound = append(nh.bound, Attr{Key: h.prefix + a.Key, Value: a.Value.Resolve().Any()})
	}
	return nh
}

// WithGroup implements slog.Handler.
func (h *slogHandler) WithGroup(name string) slog.Handler {
	if name == "" {
		return h
	}
	return &slogHandler{log: h.log, prefix: h.prefix + name + ".", bound: h.bound}
}

// ---------------------------------------------------------------------------
// Context plumbing

type eventLogKey struct{}

// WithEventLog installs log as the context's event destination.
func WithEventLog(ctx context.Context, log *EventLog) context.Context {
	return context.WithValue(ctx, eventLogKey{}, log)
}

// EventLogFrom returns the context's event log; nil when event logging
// is off (and a nil *EventLog is safe to use directly).
func EventLogFrom(ctx context.Context) *EventLog {
	log, _ := ctx.Value(eventLogKey{}).(*EventLog)
	return log
}

// ---------------------------------------------------------------------------
// HTTP exposition

// EventsPath is where MountEvents serves the log.
const EventsPath = "/debug/events"

// MountEvents serves the event log as JSON lines at /debug/events.
// Query parameters: ?level=info filters to that level and above,
// ?since=N returns only events with Seq > N (the incremental cursor),
// ?limit=N keeps only the most recent N matching events.
func MountEvents(mux *http.ServeMux, log *EventLog) {
	mux.HandleFunc(EventsPath, func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		min, err := ParseLevel(req.URL.Query().Get("level"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var since uint64
		if s := req.URL.Query().Get("since"); s != "" {
			since, err = strconv.ParseUint(s, 10, 64)
			if err != nil {
				http.Error(w, "bad since cursor: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
		events := log.Events(since, min)
		if s := req.URL.Query().Get("limit"); s != "" {
			limit, err := strconv.Atoi(s)
			if err != nil || limit < 0 {
				http.Error(w, "bad limit", http.StatusBadRequest)
				return
			}
			if len(events) > limit {
				events = events[len(events)-limit:]
			}
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for _, ev := range events {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
	})
}

// HealthPath is where MountHealth serves the health summary.
const HealthPath = "/debug/health"

// MountHealth serves source() as indented JSON at /debug/health. The
// source is called per request (so the summary is always current) and
// may return nil for 503 — a server that cannot assemble its health
// picture is not healthy.
func MountHealth(mux *http.ServeMux, source func() any) {
	mux.HandleFunc(HealthPath, func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h := source()
		if h == nil {
			http.Error(w, "health unavailable", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(h)
	})
}

// DumpOps writes a final operational snapshot — the retained event log
// as JSON lines, then a Prometheus metrics snapshot — the
// graceful-shutdown flush shared by the binaries. Either source may be
// nil; section headers are comment lines so the dump stays greppable
// and line-parseable.
func DumpOps(w io.Writer, log *EventLog, min slog.Level, reg *Registry) error {
	if log != nil {
		events := log.Events(0, min)
		if _, err := fmt.Fprintf(w, "# event log (%d events retained)\n", len(events)); err != nil {
			return err
		}
		enc := json.NewEncoder(w)
		for _, ev := range events {
			if err := enc.Encode(ev); err != nil {
				return err
			}
		}
	}
	if reg != nil {
		if _, err := fmt.Fprintln(w, "# final metrics snapshot"); err != nil {
			return err
		}
		return reg.WritePrometheus(w)
	}
	return nil
}

// Package obs is the runtime observability layer: a stdlib-only,
// concurrency-safe metrics registry (atomic counters, gauges, fixed-bucket
// histograms, timer spans) with Prometheus text-format exposition, plus the
// structured EventSink hook interface the FL engine fires on its hot paths.
//
// The registry is the live complement to the post-hoc JSONL artifact in
// internal/trace: a campaign wired with a MetricsSink exposes Eq. (10)
// round delay, Eq. (11) energy, Algorithm 2 selection fairness, and
// Algorithm 3 slack reclamation as scrapeable time series while it runs.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing float64, safe for concurrent use.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increments the counter by v; negative deltas panic (counters only go
// up — use a Gauge for values that can fall).
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic(fmt.Sprintf("obs: counter decremented by %g", v))
	}
	addFloat(&c.bits, v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is an instantaneous float64 value, safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// addFloat atomically adds v to a float64 stored as IEEE-754 bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Histogram counts observations into fixed buckets, Prometheus-style:
// counts[i] tallies observations ≤ bounds[i], with an implicit +Inf bucket
// at the end. Observe is lock-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf overflow
	sum    atomic.Uint64   // float64 bits
	count  atomic.Uint64
}

// newHistogram validates bounds (strictly increasing, finite) and builds the
// histogram.
func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("obs: non-finite bucket bound %g", b))
		}
		if i > 0 && b <= bounds[i-1] {
			panic(fmt.Sprintf("obs: bucket bounds not increasing at %g", b))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	addFloat(&h.sum, v)
	h.count.Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Snapshot is a point-in-time histogram copy for reporting.
type Snapshot struct {
	// Bounds are the bucket upper bounds; Counts[i] is the per-bucket
	// (non-cumulative) tally, with Counts[len(Bounds)] the +Inf overflow.
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Snapshot copies the current state. Concurrent Observes may land between
// field reads; the result is still a valid histogram.
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.Sum(),
		Count:  h.Count(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Span times an operation into a histogram of seconds.
type Span struct {
	h     *Histogram
	start time.Time
}

// StartSpan begins timing against h (which may be nil; End is then a no-op).
func StartSpan(h *Histogram) Span { return Span{h: h, start: time.Now()} }

// End records the elapsed seconds and returns the duration.
func (s Span) End() time.Duration {
	d := time.Since(s.start)
	if s.h != nil {
		s.h.Observe(d.Seconds())
	}
	return d
}

// ExpBuckets returns n exponentially growing bucket bounds starting at
// start with the given growth factor (> 1).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: bad exponential buckets (start=%g factor=%g n=%d)", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefSecondsBuckets spans 10 ms .. ~164 s, covering local-update wall time,
// simulated upload airtime, and full round makespans across the presets.
func DefSecondsBuckets() []float64 { return ExpBuckets(0.01, 2, 15) }

// metricKind discriminates the exposition TYPE line.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one registered metric name: either a single collector or a
// labelled set of children.
type family struct {
	name, help string
	kind       metricKind
	label      string // label name for vec families ("" for plain)

	counter *Counter
	gauge   *Gauge
	hist    *Histogram

	mu       sync.Mutex
	children map[string]*Counter // label value → child counter
}

// Registry holds named metrics and renders them in Prometheus text format.
// All methods are safe for concurrent use; registering an existing name
// returns the existing collector (so packages can look up shared metrics
// idempotently) and panics only on a kind or label mismatch.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{families: map[string]*family{}} }

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry the CLIs expose on /metrics.
func Default() *Registry { return defaultRegistry }

// register fetches or creates a family, enforcing kind/label consistency.
func (r *Registry) register(name, help string, kind metricKind, label string) *family {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || f.label != label {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s/%q (was %s/%q)",
				name, kind, label, f.kind, f.label))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, label: label}
	if label != "" {
		f.children = map[string]*Counter{}
	}
	r.families[name] = f
	return f
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, "")
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.counter == nil {
		f.counter = &Counter{}
	}
	return f.counter
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, kindGauge, "")
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.gauge == nil {
		f.gauge = &Gauge{}
	}
	return f.gauge
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.register(name, help, kindHistogram, "")
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.hist == nil {
		f.hist = newHistogram(bounds)
	}
	return f.hist
}

// CounterVec is a counter family keyed by one label.
type CounterVec struct{ f *family }

// CounterVec returns the named labelled counter family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if label == "" {
		panic("obs: counter vec needs a label name")
	}
	return &CounterVec{f: r.register(name, help, kindCounter, label)}
}

// With returns the child counter for a label value, creating it on first
// use.
func (v *CounterVec) With(value string) *Counter {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	if c, ok := v.f.children[value]; ok {
		return c
	}
	c := &Counter{}
	v.f.children[value] = c
	return c
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (families and label values in sorted order, so output
// is deterministic under a fixed metric state).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.RUnlock()

	var sb strings.Builder
	for _, f := range fams {
		f.write(&sb)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func (f *family) write(sb *strings.Builder) {
	if f.help != "" {
		fmt.Fprintf(sb, "# HELP %s %s\n", f.name, f.help)
	}
	fmt.Fprintf(sb, "# TYPE %s %s\n", f.name, f.kind)
	switch {
	case f.label != "":
		f.mu.Lock()
		values := make([]string, 0, len(f.children))
		for v := range f.children {
			values = append(values, v)
		}
		sort.Strings(values)
		for _, v := range values {
			fmt.Fprintf(sb, "%s{%s=%q} %s\n", f.name, f.label, v, fmtFloat(f.children[v].Value()))
		}
		f.mu.Unlock()
	case f.kind == kindHistogram:
		// The collector pointer is assigned under f.mu by Registry.Histogram
		// but this scrape runs concurrently with registration (e.g. the span
		// histogram bridge registers lazily per span name), so it must be
		// loaded under the same lock. Same for the counter/gauge cases below.
		f.mu.Lock()
		h := f.hist
		f.mu.Unlock()
		if h == nil {
			return
		}
		s := h.Snapshot()
		cum := uint64(0)
		for i, b := range s.Bounds {
			cum += s.Counts[i]
			fmt.Fprintf(sb, "%s_bucket{le=%q} %d\n", f.name, fmtFloat(b), cum)
		}
		cum += s.Counts[len(s.Bounds)]
		fmt.Fprintf(sb, "%s_bucket{le=\"+Inf\"} %d\n", f.name, cum)
		fmt.Fprintf(sb, "%s_sum %s\n", f.name, fmtFloat(s.Sum))
		fmt.Fprintf(sb, "%s_count %d\n", f.name, s.Count)
	case f.kind == kindCounter:
		f.mu.Lock()
		c := f.counter
		f.mu.Unlock()
		if c != nil {
			fmt.Fprintf(sb, "%s %s\n", f.name, fmtFloat(c.Value()))
		}
	default:
		f.mu.Lock()
		g := f.gauge
		f.mu.Unlock()
		if g != nil {
			fmt.Fprintf(sb, "%s %s\n", f.name, fmtFloat(g.Value()))
		}
	}
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

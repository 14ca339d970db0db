// Package telemetry is the process-wide live-metrics layer: a
// dependency-free (standard library only), lock-cheap registry of
// atomic counters, gauges and log2 histograms, a Prometheus text
// exposition (0.0.4) writer with a matching linter, a fleet-progress
// tracker with an SSE change feed, and an embeddable HTTP introspection
// server (/metrics, /healthz, /api/fleet, /api/debug, /debug/pprof/).
//
// Where internal/sim.Stats is the *deterministic, per-run* registry
// (snapshotted into results, byte-identical across runs), telemetry is
// the *live, process-global* view: every concurrently running
// simulation folds into one set of atomics that a scraper can read
// mid-sweep. Telemetry never feeds back into results, so enabling it
// cannot perturb determinism.
//
// Instrumentation follows the same nil-receiver zero-cost pattern as
// the obs tracer: hot paths hold typed *Counter / *Histogram pointers
// that are nil unless Enable was called before the run was constructed,
// and every method is nil-receiver safe, so the disabled cost is one
// pointer compare and the disabled path allocates nothing.
package telemetry

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// HistBuckets matches internal/sim's log2 bucketing: bucket 0 holds the
// sample 0, bucket i (i >= 1) holds samples v with 2^(i-1) <= v < 2^i.
// Buckets 0..63 cover every non-negative int64.
const HistBuckets = 64

// bucketIndex mirrors sim.BucketIndex so the live histograms and the
// deterministic snapshots bucket identically.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// bucketHigh returns the inclusive upper bound of bucket i (the
// Prometheus `le` boundary; bucket 63 is capped at max int64).
func bucketHigh(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return 1<<63 - 1
	}
	return int64(1)<<i - 1
}

// Counter is a monotone atomic counter. A nil *Counter is the no-op
// implementation; Add on a nil receiver costs one compare.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d (no-op on a nil receiver).
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. A nil *Gauge is the no-op
// implementation.
type Gauge struct {
	v atomic.Int64
}

// Set stores v (no-op on a nil receiver).
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is an atomic log2-bucketed distribution of non-negative
// samples, bucketed exactly like sim.Histogram so live telemetry and
// deterministic snapshots agree on shape. A nil *Histogram is the no-op
// implementation.
type Histogram struct {
	sum     atomic.Int64
	buckets [HistBuckets]atomic.Int64
}

// Observe adds one sample (negative samples clamp to 0; no-op on nil).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
}

// Count returns the total number of samples (0 for a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of all samples (0 for a nil histogram).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Label is one metric label pair.
type Label struct {
	Key, Value string
}

// kind is a metric family's exposition type.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	}
	return "histogram"
}

// series is one labeled instance within a family.
type series struct {
	labels []Label // sorted by key
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups every series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   kind
	series map[string]*series // keyed by canonical label rendering
	order  []string           // insertion-independent: sorted on export
}

// Registry is a set of metric families. All methods are safe for
// concurrent use, and safe on a nil *Registry (they return nil metrics,
// which are themselves no-ops) — so instrumentation sites can resolve
// metrics unconditionally from a possibly-disabled registry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey renders a sorted label set canonically for series identity.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}

// sortLabels returns a sorted copy of labels.
func sortLabels(labels []Label) []Label {
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// lookup returns (creating if needed) the series for name+labels,
// panicking on a kind clash — mixing kinds under one name is a
// programming error that would corrupt the exposition.
func (r *Registry) lookup(name, help string, k kind, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != k {
		panic(fmt.Sprintf("telemetry: metric %q registered as both %v and %v", name, f.kind, k))
	}
	if f.help == "" {
		f.help = help
	}
	sorted := sortLabels(labels)
	key := labelKey(sorted)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: sorted}
		switch k {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			s.h = &Histogram{}
		}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter returns (creating if needed) the named counter. Nil-registry
// safe: a nil *Registry yields a nil (no-op) *Counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, labels).c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, labels).g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindHistogram, labels).h
}

// ---------------------------------------------------------------------
// Process-global default registry
// ---------------------------------------------------------------------

// defaultReg is nil until Enable: instrumentation resolved against a
// disabled default comes back nil and therefore costs one compare per
// hot-path emit and zero allocations.
var defaultReg atomic.Pointer[Registry]

// Enable installs (idempotently) and returns the process-global
// registry. Call it before constructing the runs that should report —
// instrumentation resolves its metric handles at construction time.
func Enable() *Registry {
	if r := defaultReg.Load(); r != nil {
		return r
	}
	r := NewRegistry()
	if defaultReg.CompareAndSwap(nil, r) {
		return r
	}
	return defaultReg.Load()
}

// Default returns the global registry, or nil while telemetry is
// disabled.
func Default() *Registry { return defaultReg.Load() }

// setDefault swaps the global registry (tests only).
func setDefault(r *Registry) { defaultReg.Store(r) }

// C resolves a counter from the global registry (nil while disabled).
func C(name, help string, labels ...Label) *Counter {
	return Default().Counter(name, help, labels...)
}

// G resolves a gauge from the global registry (nil while disabled).
func G(name, help string, labels ...Label) *Gauge {
	return Default().Gauge(name, help, labels...)
}

// H resolves a histogram from the global registry (nil while disabled).
func H(name, help string, labels ...Label) *Histogram {
	return Default().Histogram(name, help, labels...)
}

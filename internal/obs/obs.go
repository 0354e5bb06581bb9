// Package obs is the repo's telemetry substrate: typed counters, gauges,
// and histograms collected in a Registry, hierarchical wall-clock Spans
// for phase tracing, and pluggable Sinks for live emission. It is the
// measurement layer the ROADMAP's scaling work reports against — "where
// does the time go?" for the SART solver, the ACE performance model, the
// SFI campaigns, and the RTL simulator.
//
// Design constraints:
//
//   - zero dependencies beyond the standard library;
//   - lock-cheap on hot paths: counters and gauges are single atomics, and
//     instrumented inner loops accumulate locally and Add once per phase;
//   - nil-safe end to end: every method works on a nil *Registry, nil
//     *Counter, or nil *Span, so instrumented code needs no "is telemetry
//     on?" branches — an un-wired pipeline pays one nil check per call;
//   - snapshot-to-JSON: Registry.Snapshot serializes everything, including
//     a run manifest (options, seed, workload, ...) that makes benchmark
//     JSONs self-describing.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Safe on nil.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. Safe on nil.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 on nil).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically updated float64 holding a last-written value
// (a rate, a ratio, a convergence delta).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Safe on nil.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Load returns the current value (0 on nil).
func (g *Gauge) Load() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// LatencyBuckets is the shared fixed-bucket layout for latency
// histograms observed in seconds (server.request_seconds,
// sweep.plan_compile_seconds, artifact.restore_seconds,
// harden.optimize_seconds, solve.incremental_seconds): 500µs to 10s,
// roughly geometric — the range a sweep stage can plausibly occupy. Fixed, identical bounds are
// what let a fleet gateway sum per-replica Prometheus buckets.
var LatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram accumulates a distribution over fixed upper-bound buckets
// plus count/sum/min/max. The bucket layout is fixed at registration
// (FixedHistogram), so every process exposes identical le= series and a
// fleet gateway can sum them exactly. Observe takes a mutex: use it for
// per-iteration or per-phase observations, not per-vertex ones.
type Histogram struct {
	mu     sync.Mutex
	count  uint64
	sum    float64
	min    float64
	max    float64
	bounds []float64 // sorted upper bounds (le)
	fixed  []uint64  // non-cumulative counts per bound
}

// Observe records one sample. Safe on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	// sort.SearchFloat64s returns len(bounds) for NaN and for samples
	// beyond the last bound; both then count only toward the implicit
	// +Inf bucket (count itself).
	if i := sort.SearchFloat64s(h.bounds, v); i < len(h.fixed) {
		h.fixed[i]++
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// HistogramSnapshot is the JSON form of a Histogram.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	// Bounds/Counts are the sorted upper bounds and the non-cumulative
	// sample count per bound. Samples beyond the last bound appear only
	// in Count.
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []uint64  `json:"bucket_counts,omitempty"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Count:  h.count,
		Sum:    h.sum,
		Min:    h.min,
		Max:    h.max,
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.fixed...),
	}
	if h.count > 0 {
		s.Mean = h.sum / float64(h.count)
	}
	return s
}

// Registry is a named collection of metrics, spans, and a run manifest.
// The zero value is not usable; call New. A nil *Registry is a valid
// always-off registry: every method no-ops and every returned metric is a
// nil no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	manifest map[string]any
	roots    []*Span
	sink     Sink
}

// New returns an empty Registry with no sink attached.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		manifest: make(map[string]any),
	}
}

// Counter returns the named counter, creating it on first use. Returns a
// nil (no-op) counter on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// FixedHistogram returns the named histogram with fixed upper-bound
// buckets (typically LatencyBuckets), creating it on first use. Bounds
// must be sorted ascending. The first registration's layout wins: a
// stable layout is what lets expositions merge across processes.
func (r *Registry) FixedHistogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{bounds: append([]float64(nil), bounds...), fixed: make([]uint64, len(bounds))}
		r.hists[name] = h
	}
	return h
}

// SetManifest records one self-describing fact about the run (an option
// value, the seed, the workload name, a result flag). Manifest entries are
// serialized verbatim into the snapshot.
func (r *Registry) SetManifest(key string, v any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.manifest[key] = v
}

// SetSink attaches a live-emission sink (nil detaches).
func (r *Registry) SetSink(s Sink) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sink = s
}

func (r *Registry) currentSink() Sink {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sink
}

// Snapshot is the JSON-serializable state of a Registry.
type Snapshot struct {
	Manifest   map[string]any               `json:"manifest,omitempty"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Spans      []SpanSnapshot               `json:"spans,omitempty"`
}

// Snapshot captures the registry's current state in one pass: every
// metric family is read under a single registry lock (histograms take
// their own lock nested inside it), so concurrent writers cannot make
// one family's values inconsistent with another's — the property both
// the JSON endpoint and the Prometheus encoder rely on. In-flight
// spans are included with Running set.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]int64, len(r.counters))
	for k, c := range r.counters {
		counters[k] = c.Load()
	}
	gauges := make(map[string]float64, len(r.gauges))
	for k, g := range r.gauges {
		gauges[k] = g.Load()
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for k, h := range r.hists {
			s.Histograms[k] = h.snapshot()
		}
	}
	if len(r.manifest) > 0 {
		s.Manifest = make(map[string]any, len(r.manifest))
		for k, v := range r.manifest {
			s.Manifest[k] = v
		}
	}
	roots := append([]*Span(nil), r.roots...)
	r.mu.Unlock()

	if len(counters) > 0 {
		s.Counters = counters
	}
	if len(gauges) > 0 {
		s.Gauges = gauges
	}
	for _, sp := range roots {
		s.Spans = append(s.Spans, sp.snapshot())
	}
	return s
}

// WriteJSON writes an indented JSON snapshot to w.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteFile writes the JSON snapshot to path.
func (r *Registry) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sortedNames returns m's keys in lexical order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Package telemetry is the unified instrumentation layer for the
// middleware: allocation-conscious atomic counters, gauges, and
// fixed-bucket histograms, organized into hierarchical registries
// (per-connection, per-session, per-channel) that snapshot into text or
// JSON for the -stats flags, the rftpd HTTP endpoint, and the bench
// report summaries.
//
// The paper's diagnostic findings (GridFTP's single-core ceiling, the
// credit-ramp dynamics of Figure 10) were only visible because the
// middleware was instrumented; this package makes that instrumentation a
// first-class subsystem instead of ad-hoc struct fields.
//
// Every metric type is safe for concurrent use and nil-safe: methods on
// a nil *Counter/*Gauge/*Histogram/*Registry are no-ops, so a component
// whose telemetry was never attached pays one nil check per event and
// allocates nothing.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a cumulative atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value gauge that also tracks its high-water mark.
type Gauge struct{ v, max atomic.Int64 }

// Set records the current value. No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Value returns the last value set (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max returns the high-water mark (0 for a nil gauge).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// GaugeSnapshot is the exported state of a gauge.
type GaugeSnapshot struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// Histogram is a fixed-bucket histogram: bucket i counts observations
// v <= Bounds[i]; one implicit overflow bucket counts the rest. Bounds
// are set at construction and never change, so Observe is a binary
// search plus one atomic add.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last = overflow
	count  atomic.Int64
	sum    atomic.Int64
}

// NewHistogram creates a histogram with the given ascending bucket upper
// bounds. Panics on empty or unsorted bounds (always a construction
// bug).
func NewHistogram(bounds ...int64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending at %d: %d <= %d", i, bounds[i], bounds[i-1]))
		}
	}
	return &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value. No-op on a nil histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the total number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Snapshot captures a consistent-enough view of the histogram (bucket
// counts are read individually; concurrent observers may skew totals by
// in-flight observations, never lose them).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is the exported state of a histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra final
	// entry for the overflow bucket.
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
}

// Merge combines two snapshots of histograms with identical bounds.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) (HistogramSnapshot, error) {
	if s.Count == 0 && len(s.Bounds) == 0 {
		return o, nil
	}
	if o.Count == 0 && len(o.Bounds) == 0 {
		return s, nil
	}
	if len(s.Bounds) != len(o.Bounds) {
		return HistogramSnapshot{}, fmt.Errorf("telemetry: merging histograms with %d vs %d buckets", len(s.Bounds), len(o.Bounds))
	}
	for i := range s.Bounds {
		if s.Bounds[i] != o.Bounds[i] {
			return HistogramSnapshot{}, fmt.Errorf("telemetry: merging histograms with different bounds at %d: %d vs %d", i, s.Bounds[i], o.Bounds[i])
		}
	}
	out := HistogramSnapshot{
		Bounds: append([]int64(nil), s.Bounds...),
		Counts: make([]int64, len(s.Counts)),
		Count:  s.Count + o.Count,
		Sum:    s.Sum + o.Sum,
	}
	for i := range s.Counts {
		out.Counts[i] = s.Counts[i] + o.Counts[i]
	}
	return out, nil
}

// bucketsText renders the populated buckets with their upper bounds as
// " buckets=[≤b:n ...]" (empty string for an empty histogram), so the
// text rendering exposes the same distribution the JSON Bounds/Counts
// fields and the Prometheus le-labelled buckets carry.
func (s HistogramSnapshot) bucketsText() string {
	if s.Count == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString(" buckets=[")
	first := true
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if !first {
			b.WriteByte(' ')
		}
		first = false
		if i < len(s.Bounds) {
			fmt.Fprintf(&b, "≤%v:%d", time.Duration(s.Bounds[i]), c)
		} else {
			fmt.Fprintf(&b, ">%v:%d", time.Duration(s.Bounds[len(s.Bounds)-1]), c)
		}
	}
	b.WriteByte(']')
	return b.String()
}

// Mean returns the average observation (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile approximates the q-quantile (0 < q <= 1) by linear
// interpolation within the bucket containing the target rank. The
// overflow bucket reports the last finite bound.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		if i >= len(s.Bounds) {
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := int64(0)
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		frac := (rank - float64(cum)) / float64(c)
		return lo + int64(frac*float64(hi-lo))
	}
	return s.Bounds[len(s.Bounds)-1]
}

// DurationBuckets returns the default latency buckets: 1-2-5 decades
// from 1 µs to 10 s, in nanoseconds. Suitable for post→completion,
// credit-grant→consume, and store latencies on any of the fabrics.
func DurationBuckets() []int64 {
	var out []int64
	for _, scale := range []int64{
		int64(time.Microsecond), int64(10 * time.Microsecond), int64(100 * time.Microsecond),
		int64(time.Millisecond), int64(10 * time.Millisecond), int64(100 * time.Millisecond),
		int64(time.Second),
	} {
		out = append(out, scale, 2*scale, 5*scale)
	}
	return append(out, int64(10*time.Second))
}

// ExpBuckets returns n ascending bounds start, start*factor, ...
func ExpBuckets(start int64, factor float64, n int) []int64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		panic("telemetry: exp buckets need n > 0, start > 0, factor > 1")
	}
	out := make([]int64, n)
	v := float64(start)
	for i := range out {
		out[i] = int64(v)
		if i > 0 && out[i] <= out[i-1] { // guard rounding collisions
			out[i] = out[i-1] + 1
		}
		v *= factor
	}
	return out
}

// Registry is a named collection of metrics plus child registries
// (fabric, source, per-channel, per-session...). Metric constructors are
// create-or-get, so independent components can share names safely.
type Registry struct {
	name string

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	children map[string]*Registry
}

// NewRegistry creates an empty registry.
func NewRegistry(name string) *Registry {
	return &Registry{
		name:     name,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		children: make(map[string]*Registry),
	}
}

// Name returns the registry's name ("" for nil).
func (r *Registry) Name() string {
	if r == nil {
		return ""
	}
	return r.name
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a valid no-op counter) on a nil registry.
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

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds ...int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds...)
		r.hists[name] = h
	}
	return h
}

// Child returns the named child registry, creating it on first use.
func (r *Registry) Child(name string) *Registry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.children[name]
	if !ok {
		c = NewRegistry(name)
		r.children[name] = c
	}
	return c
}

// Snapshot captures the registry tree. Returns nil for a nil registry.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	s := &Snapshot{Name: r.name}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]GaugeSnapshot, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = GaugeSnapshot{Value: g.Value(), Max: g.Max()}
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.Snapshot()
		}
	}
	children := make([]*Registry, 0, len(r.children))
	for _, c := range r.children {
		children = append(children, c)
	}
	r.mu.Unlock()
	// Child snapshots taken outside r.mu: children have their own locks.
	for _, c := range children {
		s.Children = append(s.Children, c.Snapshot())
	}
	sort.Slice(s.Children, func(i, j int) bool { return s.Children[i].Name < s.Children[j].Name })
	return s
}

// Snapshot is a point-in-time export of a registry tree.
type Snapshot struct {
	Name       string                       `json:"name"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Children   []*Snapshot                  `json:"children,omitempty"`
}

// Find returns the descendant snapshot at the given path of child names
// (nil when absent).
func (s *Snapshot) Find(path ...string) *Snapshot {
	cur := s
	for _, name := range path {
		if cur == nil {
			return nil
		}
		var next *Snapshot
		for _, c := range cur.Children {
			if c.Name == name {
				next = c
				break
			}
		}
		cur = next
	}
	return cur
}

// Counter returns the named counter value (0 when absent).
func (s *Snapshot) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	return s.Counters[name]
}

// Histogram returns the named histogram snapshot (zero value when
// absent).
func (s *Snapshot) Histogram(name string) HistogramSnapshot {
	if s == nil {
		return HistogramSnapshot{}
	}
	return s.Histograms[name]
}

// WriteText renders the snapshot tree as indented text with sorted
// keys; histograms print count/mean/p50/p95.
func (s *Snapshot) WriteText(w io.Writer) error {
	return s.writeText(w, "")
}

func (s *Snapshot) writeText(w io.Writer, indent string) error {
	if s == nil {
		return nil
	}
	if _, err := fmt.Fprintf(w, "%s%s:\n", indent, s.Name); err != nil {
		return err
	}
	inner := indent + "  "
	for _, name := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "%s%-28s %d\n", inner, name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		g := s.Gauges[name]
		if _, err := fmt.Fprintf(w, "%s%-28s %d (max %d)\n", inner, name, g.Value, g.Max); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		if _, err := fmt.Fprintf(w, "%s%-28s n=%d mean=%v p50=%v p95=%v%s\n",
			inner, name, h.Count,
			time.Duration(int64(h.Mean())), time.Duration(h.Quantile(0.50)), time.Duration(h.Quantile(0.95)),
			h.bucketsText()); err != nil {
			return err
		}
	}
	for _, c := range s.Children {
		if err := c.writeText(w, inner); err != nil {
			return err
		}
	}
	return nil
}

// MarshalJSONIndent renders the snapshot as indented JSON.
func (s *Snapshot) MarshalJSONIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

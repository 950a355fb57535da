// registry.go implements the metrics half of the observability layer
// (§3.1.3 record-then-inspect, applied to the pipeline): named counters,
// gauges and fixed-bucket histograms behind one goroutine-safe registry
// whose snapshots serialize in deterministic order.
package obs

import (
	"encoding/json"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds a run's metrics. Instruments are identified by a name
// plus an optional set of label key/value pairs; asking twice for the
// same identity returns the same instrument. A nil *Registry hands out
// nil instruments, whose methods are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]counterEntry
	gauges   map[string]gaugeEntry
	hists    map[string]histEntry
}

// Each entry keeps the instrument's name and canonical label set beside
// the instrument itself: label values are user-supplied (tenant names
// become Prometheus labels), so snapshots must never re-derive them by
// parsing the identity string — a value containing '=', ',' or '{'
// would come back corrupted.
type counterEntry struct {
	name   string
	labels labelSet
	c      *Counter
}

type gaugeEntry struct {
	name   string
	labels labelSet
	g      *Gauge
}

type histEntry struct {
	name   string
	labels labelSet
	h      *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]counterEntry),
		gauges:   make(map[string]gaugeEntry),
		hists:    make(map[string]histEntry),
	}
}

// labelSet is a canonicalized label list: pairs sorted by key.
type labelSet []Label

// Label is one metric label.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// makeLabels canonicalizes alternating key/value strings. An odd
// trailing key gets an empty value rather than being dropped, so the
// mistake is visible in the snapshot.
func makeLabels(kv []string) labelSet {
	if len(kv) == 0 {
		return nil
	}
	ls := make(labelSet, 0, (len(kv)+1)/2)
	for i := 0; i < len(kv); i += 2 {
		l := Label{Key: kv[i]}
		if i+1 < len(kv) {
			l.Value = kv[i+1]
		}
		ls = append(ls, l)
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// id renders the canonical instrument identity "name{k=v,…}".
func (ls labelSet) id(name string) string {
	if len(ls) == 0 {
		return name
	}
	out := name + "{"
	for i, l := range ls {
		if i > 0 {
			out += ","
		}
		out += l.Key + "=" + l.Value
	}
	return out + "}"
}

// Counter is a monotonically increasing integer. Counters count logical
// pipeline events, so their values are deterministic across worker
// counts (see the package documentation).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count, 0 on nil.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float — configuration facts and last-seen levels.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on nil.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the stored value, 0 on nil.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution. Buckets are cumulative-style
// upper bounds fixed at first registration; observations above the last
// bound land in an implicit +Inf bucket (the final element of Counts).
type Histogram struct {
	bounds []float64

	mu    sync.Mutex
	count int64
	sum   float64
	cells []int64 // len(bounds)+1; last cell is +Inf
}

// Observe records one value. No-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.cells[i]++
}

// Counter returns the counter registered under name and labels, creating
// it on first use. Nil registry returns nil.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	ls := makeLabels(labels)
	id := ls.id(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.counters[id]
	if !ok {
		e = counterEntry{name: name, labels: ls, c: &Counter{}}
		r.counters[id] = e
	}
	return e.c
}

// Gauge returns the gauge registered under name and labels, creating it
// on first use. Nil registry returns nil.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	ls := makeLabels(labels)
	id := ls.id(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.gauges[id]
	if !ok {
		e = gaugeEntry{name: name, labels: ls, g: &Gauge{}}
		r.gauges[id] = e
	}
	return e.g
}

// RemoveGauge deletes the gauge with the given identity, if registered.
// Gauges describe current state, and keeping one alive for an evicted
// tenant would report state that no longer exists. No-op on a nil
// registry.
func (r *Registry) RemoveGauge(name string, labels ...string) {
	if r == nil {
		return
	}
	id := makeLabels(labels).id(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.gauges, id)
}

// FoldCounter retires the counter identified by (name, from) and adds
// its final value to the (name, into) series of the same family, all
// under a single registry lock acquisition: a concurrent Snapshot sees
// either the source series or the grown destination, never the gap
// between, so sums over the family never go backwards between scrapes.
// The destination is created on demand (only when there is a non-zero
// value to carry); an absent source is a no-op. Returns the folded
// value; 0 when the source was absent or on a nil registry. The
// scheduler uses this when it evicts an idle tenant's cost series.
func (r *Registry) FoldCounter(name string, from, into []string) int64 {
	if r == nil {
		return 0
	}
	fromID := makeLabels(from).id(name)
	intoLS := makeLabels(into)
	intoID := intoLS.id(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.counters[fromID]
	if !ok {
		return 0
	}
	delete(r.counters, fromID)
	v := e.c.Value()
	if v > 0 {
		dst, ok := r.counters[intoID]
		if !ok {
			dst = counterEntry{name: name, labels: intoLS, c: &Counter{}}
			r.counters[intoID] = dst
		}
		dst.c.Add(v)
	}
	return v
}

// RemoveHistogram deletes the histogram with the given identity, if
// registered. Unlike counters, a retired distribution has no meaningful
// fold into a survivor (mixed-tenant latency quantiles would answer a
// question nobody asked), so the observations are simply dropped; the
// caller should count the retirement if the history matters. No-op on a
// nil registry.
func (r *Registry) RemoveHistogram(name string, labels ...string) {
	if r == nil {
		return
	}
	id := makeLabels(labels).id(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.hists, id)
}

// Histogram returns the histogram registered under name and labels,
// creating it with the given bucket upper bounds on first use (bounds
// are sorted; later calls reuse the first registration's bounds). Nil
// registry returns nil.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	ls := makeLabels(labels)
	id := ls.id(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.hists[id]
	if !ok {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		e = histEntry{name: name, labels: ls, h: &Histogram{bounds: b, cells: make([]int64, len(b)+1)}}
		r.hists[id] = e
	}
	return e.h
}

// LatencyBuckets is the default bucket set for millisecond latency
// histograms: exponential from sub-millisecond to minutes.
var LatencyBuckets = []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000}

// CounterPoint is one counter in a snapshot.
type CounterPoint struct {
	Name   string   `json:"name"`
	Labels labelSet `json:"labels,omitempty"`
	Value  int64    `json:"value"`
}

// GaugePoint is one gauge in a snapshot.
type GaugePoint struct {
	Name   string   `json:"name"`
	Labels labelSet `json:"labels,omitempty"`
	Value  float64  `json:"value"`
}

// HistogramPoint is one histogram in a snapshot. Bounds are the bucket
// upper bounds; Counts has one extra trailing cell for +Inf.
type HistogramPoint struct {
	Name   string    `json:"name"`
	Labels labelSet  `json:"labels,omitempty"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot is a point-in-time copy of every registered instrument, each
// section sorted by canonical identity. Marshaling a snapshot with
// identical instrument values therefore produces identical bytes — the
// property the counters section is guaranteed to have across worker
// counts.
type Snapshot struct {
	Counters   []CounterPoint   `json:"counters"`
	Gauges     []GaugePoint     `json:"gauges"`
	Histograms []HistogramPoint `json:"histograms"`
}

// Snapshot copies the registry's current state. Nil registry yields an
// empty (but non-nil-sectioned) snapshot.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   []CounterPoint{},
		Gauges:     []GaugePoint{},
		Histograms: []HistogramPoint{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.counters {
		snap.Counters = append(snap.Counters, CounterPoint{Name: e.name, Labels: e.labels, Value: e.c.Value()})
	}
	for _, e := range r.gauges {
		snap.Gauges = append(snap.Gauges, GaugePoint{Name: e.name, Labels: e.labels, Value: e.g.Value()})
	}
	for _, e := range r.hists {
		h := e.h
		h.mu.Lock()
		p := HistogramPoint{
			Name: e.name, Labels: e.labels,
			Bounds: append([]float64(nil), h.bounds...),
			Counts: append([]int64(nil), h.cells...),
			Count:  h.count,
			Sum:    h.sum,
		}
		h.mu.Unlock()
		snap.Histograms = append(snap.Histograms, p)
	}
	sort.Slice(snap.Counters, func(i, j int) bool {
		return snap.Counters[i].Labels.id(snap.Counters[i].Name) < snap.Counters[j].Labels.id(snap.Counters[j].Name)
	})
	sort.Slice(snap.Gauges, func(i, j int) bool {
		return snap.Gauges[i].Labels.id(snap.Gauges[i].Name) < snap.Gauges[j].Labels.id(snap.Gauges[j].Name)
	})
	sort.Slice(snap.Histograms, func(i, j int) bool {
		return snap.Histograms[i].Labels.id(snap.Histograms[i].Name) < snap.Histograms[j].Labels.id(snap.Histograms[j].Name)
	})
	return snap
}

// MarshalIndent renders the snapshot as indented JSON.
func (s Snapshot) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// CountersJSON renders only the deterministic counters section — the
// sub-document that is byte-identical across worker counts.
func (s Snapshot) CountersJSON() ([]byte, error) {
	return json.Marshal(s.Counters)
}

// Counter returns the snapshotted value of the named counter (labels in
// any order), or 0 when absent.
func (s Snapshot) Counter(name string, labels ...string) int64 {
	want := makeLabels(labels).id(name)
	for _, c := range s.Counters {
		if c.Labels.id(c.Name) == want {
			return c.Value
		}
	}
	return 0
}

// Gauge returns the snapshotted value of the named gauge (labels in
// any order), or 0 when absent.
func (s Snapshot) Gauge(name string, labels ...string) float64 {
	want := makeLabels(labels).id(name)
	for _, g := range s.Gauges {
		if g.Labels.id(g.Name) == want {
			return g.Value
		}
	}
	return 0
}

// HistogramPoint returns the snapshotted histogram with the given
// identity, or false when absent.
func (s Snapshot) HistogramPoint(name string, labels ...string) (HistogramPoint, bool) {
	want := makeLabels(labels).id(name)
	for _, h := range s.Histograms {
		if h.Labels.id(h.Name) == want {
			return h, true
		}
	}
	return HistogramPoint{}, false
}

// Quantile estimates the q-quantile (0 < q ≤ 1) of the recorded
// distribution by linear interpolation inside the bucket holding the
// rank — the same estimator Prometheus's histogram_quantile uses.
// Observations in the +Inf bucket clamp to the last finite bound (the
// estimate is a floor, not an extrapolation). Returns 0 on an empty
// histogram.
func (h HistogramPoint) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	cum := int64(0)
	for i, c := range h.Counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(h.Bounds) {
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		hi := h.Bounds[i]
		prev := float64(cum - c)
		frac := (rank - prev) / float64(c)
		return lo + (hi-lo)*frac
	}
	return h.Bounds[len(h.Bounds)-1]
}

// AddGauge inserts a derived gauge into the snapshot, keeping the gauges
// section sorted by canonical identity so serialization stays
// deterministic. It exists for render-time summaries (e.g. the scheduler
// quantiles wasabid's /metrics derives from its latency histograms)
// that should not live as mutable registry state.
func (s *Snapshot) AddGauge(name string, value float64, labels ...string) {
	p := GaugePoint{Name: name, Labels: makeLabels(labels), Value: value}
	id := p.Labels.id(p.Name)
	i := sort.Search(len(s.Gauges), func(i int) bool {
		return s.Gauges[i].Labels.id(s.Gauges[i].Name) >= id
	})
	s.Gauges = append(s.Gauges, GaugePoint{})
	copy(s.Gauges[i+1:], s.Gauges[i:])
	s.Gauges[i] = p
}

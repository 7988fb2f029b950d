// Package obs is the twin's unified observability layer: a
// dependency-free metric registry (counters, gauges, bounded-bucket
// histograms — all atomic and race-clean) with a Prometheus
// text-exposition /metrics handler, plus the per-scenario lifecycle
// tracer the sweep service emits NDJSON span records into.
//
// Every counter the twin keeps (httpmw request accounting, sweep
// failure/cache counters, store counters, solver stats) is either an
// obs instrument or a func-backed series read from its owner at scrape
// time, and the /metrics exposition is the only way any of them leaves
// the process — one source of truth, nothing to reconcile.
//
// Two registration styles coexist:
//
//   - instruments (Counter, Gauge, Histogram, and their labeled *Vec
//     forms) own their storage — writers call Inc/Set/Observe on the
//     hot path, lock-free;
//   - func-backed series (CounterFunc, GaugeFunc, VecFunc,
//     HistogramFunc) are collected at scrape time from state owned
//     elsewhere — Go runtime stats, the durable store's mutex-guarded
//     counters, the live twin's last-run gauges.
//
// Metric names are validated at registration: lowercase snake case,
// counters end in _total, histograms in _seconds or _bytes. A
// malformed name is a programmer error and panics immediately rather
// than producing an unscrapable exposition.
package obs

import (
	"fmt"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// Kind is a metric family's type.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

var nameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// CheckName validates a metric family name against the repo's naming
// conventions (scripts/metrics_lint.sh enforces the same rules on the
// live exposition): lowercase snake case, counters end in _total,
// histograms in _seconds or _bytes, and nothing else ends in _total.
func CheckName(kind Kind, name string) error {
	if !nameRe.MatchString(name) {
		return fmt.Errorf("obs: metric name %q is not lowercase snake case", name)
	}
	isTotal := strings.HasSuffix(name, "_total")
	switch kind {
	case KindCounter:
		if !isTotal {
			return fmt.Errorf("obs: counter %q must end in _total", name)
		}
	case KindHistogram:
		if !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes") {
			return fmt.Errorf("obs: histogram %q must end in _seconds or _bytes", name)
		}
	default:
		if isTotal {
			return fmt.Errorf("obs: non-counter %q must not end in _total", name)
		}
	}
	return nil
}

// family is one metric name: its metadata plus instrument-backed series
// and/or scrape-time collectors. A family may accumulate several
// collectors — e.g. two HTTP middleware stacks each emitting their own
// server="..." series into one shared family.
type family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string
	buckets    []float64 // histogram families only

	mu         sync.Mutex
	series     map[string]*series // label-values key → series
	collectors []func(emit func(labelValues []string, v float64))
	histCols   []func(emit func(labelValues []string, h HistogramSnapshot))
}

// series is one instrument-backed (labelValues, storage) pair.
type series struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. All methods are safe for concurrent use; the
// instruments it hands out are lock-free on the write path.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// familyFor returns the family for name, creating it on first
// registration. Re-registering with an identical schema returns the
// existing family (two subsystems may share one family, each
// contributing differently labeled series); a schema mismatch panics —
// it means two call sites disagree about what the metric is.
func (r *Registry) familyFor(kind Kind, name, help string, buckets []float64, labelNames []string) *family {
	if err := CheckName(kind, name); err != nil {
		panic(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labelNames, labelNames) || !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different schema", name))
		}
		return f
	}
	f := &family{
		name:       name,
		help:       help,
		kind:       kind,
		labelNames: labelNames,
		buckets:    buckets,
		series:     make(map[string]*series),
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// seriesKey joins label values into a map key. The separator cannot
// appear unescaped ambiguity-wise because it is only an internal key;
// exposition re-renders from the stored values.
func seriesKey(values []string) string { return strings.Join(values, "\x1f") }

// seriesFor returns (creating if needed) the instrument-backed series
// for the given label values. mk builds the storage on first use.
func (f *family) seriesFor(values []string, mk func(*series)) *series {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q expects %d label values, got %d",
			f.name, len(f.labelNames), len(values)))
	}
	key := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labelValues: append([]string(nil), values...)}
	mk(s)
	f.series[key] = s
	return s
}

// Counter registers (or returns the already-registered) unlabeled
// counter named name.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.familyFor(KindCounter, name, help, nil, nil)
	s := f.seriesFor(nil, func(s *series) { s.counter = &Counter{} })
	return s.counter
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	f := r.familyFor(KindCounter, name, help, nil, labelNames)
	return &CounterVec{f: f}
}

// Gauge registers (or returns the already-registered) unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.familyFor(KindGauge, name, help, nil, nil)
	s := f.seriesFor(nil, func(s *series) { s.gauge = &Gauge{} })
	return s.gauge
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	f := r.familyFor(KindGauge, name, help, nil, labelNames)
	return &GaugeVec{f: f}
}

// Histogram registers an unlabeled histogram with the given bucket
// upper bounds (nil → DefBuckets). The +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.familyFor(KindHistogram, name, help, buckets, nil)
	s := f.seriesFor(nil, func(s *series) { s.hist = NewHistogram(buckets) })
	return s.hist
}

// CounterFunc registers a scrape-time collected counter series: fn is
// called per scrape and must be monotonically non-decreasing.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.familyFor(KindCounter, name, help, nil, nil)
	f.mu.Lock()
	f.collectors = append(f.collectors, func(emit func([]string, float64)) { emit(nil, fn()) })
	f.mu.Unlock()
}

// GaugeFunc registers a scrape-time collected gauge series.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.familyFor(KindGauge, name, help, nil, nil)
	f.mu.Lock()
	f.collectors = append(f.collectors, func(emit func([]string, float64)) { emit(nil, fn()) })
	f.mu.Unlock()
}

// VecFunc registers a scrape-time collected labeled family of the given
// kind (counter or gauge): collect is called per scrape and emits any
// number of (labelValues, value) series. Several collectors may attach
// to one family as long as the schemas match — each typically owns a
// disjoint slice of the label space.
func (r *Registry) VecFunc(kind Kind, name, help string, labelNames []string, collect func(emit func(labelValues []string, v float64))) {
	if kind == KindHistogram {
		panic("obs: VecFunc does not accept histograms; use HistogramFunc")
	}
	f := r.familyFor(kind, name, help, nil, labelNames)
	f.mu.Lock()
	f.collectors = append(f.collectors, collect)
	f.mu.Unlock()
}

// HistogramFunc registers a scrape-time collected labeled histogram
// family: collect emits (labelValues, snapshot) pairs, letting an
// instrument owned elsewhere (e.g. the HTTP middleware's latency
// histogram) appear in the exposition without double bookkeeping.
func (r *Registry) HistogramFunc(name, help string, labelNames []string, buckets []float64, collect func(emit func(labelValues []string, h HistogramSnapshot))) {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.familyFor(KindHistogram, name, help, buckets, labelNames)
	f.mu.Lock()
	f.histCols = append(f.histCols, collect)
	f.mu.Unlock()
}

// Handler serves the exposition at GET — mount as /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.Write(w)
	})
}

// sortedFamilies snapshots the family list in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

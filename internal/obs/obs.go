// Package obs is the repo's observability layer: alloc-free metric
// primitives (monotonic counters, gauges, fixed-bucket histograms), a
// Registry that renders them in Prometheus text exposition format and
// JSON, a structured NDJSON run journal (journal.go), an HTTP exporter
// with net/http/pprof (server.go), and a shared profiling-flag helper
// for the cmds (profile.go).
//
// The design constraint carried throughout is zero overhead when
// disabled: the engines expose nil-checked StepTimer hooks (they never
// import obs — obs imports core, so the dependency can only point this
// way), and every hot-path operation here — Counter.Add, Gauge.Set,
// Histogram.Observe, Journal.Round — is allocation-free in the steady
// state, so attaching instrumentation never knocks an engine off its
// zero-alloc round. Observers and timers only read, so trajectories are
// bit-identical with or without them (pinned by differential tests).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is ready
// to use; all methods are safe for concurrent use and never allocate.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down. The zero value is
// ready to use; all methods are safe for concurrent use and never
// allocate.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d to the gauge (CAS loop).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets with the given upper
// bounds (ascending; an implicit +Inf bucket is appended), tracking the
// total count and sum like a Prometheus histogram. Observe is a linear
// scan over the bounds plus three atomic updates — branch-predictable,
// lock-free, and allocation-free — so it is safe on the engines' round
// path. Build histograms through Registry.Histogram.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; counts[len(bounds)] is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) (*Histogram, error) {
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			return nil, fmt.Errorf("obs: histogram bounds not ascending at %d: %g after %g", i, bounds[i], bounds[i-1])
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}, nil
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Bounds returns the histogram's upper bounds (without the implicit
// +Inf). Callers must not mutate the returned slice.
func (h *Histogram) Bounds() []float64 { return h.bounds }

// BucketCount returns the raw (non-cumulative) count of bucket i, where
// i == len(Bounds()) is the +Inf bucket.
func (h *Histogram) BucketCount(i int) uint64 { return h.counts[i].Load() }

// Label is one name=value pair attached to a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for Label{k, v}.
func L(k, v string) Label { return Label{k, v} }

// series is one registered time series: a collector plus its identity.
type series struct {
	family string
	typ    string // "counter", "gauge", "histogram"
	labels []Label

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds registered metrics and renders them. Registration is
// idempotent: registering the same (name, labels) again returns the
// existing collector, so per-replication wiring can re-register freely
// and everything accumulates into one series. Registration takes a
// mutex; the returned collectors are lock-free.
type Registry struct {
	mu    sync.Mutex
	order []string // family names in first-registration order
	help  map[string]string
	typ   map[string]string
	byKey map[string]*series
	list  []*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		help:  map[string]string{},
		typ:   map[string]string{},
		byKey: map[string]*series{},
	}
}

// metric and label names follow the Prometheus charset. Registration is
// init-time wiring, so violations are programming errors and panic.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func seriesKey(family string, labels []Label) string {
	var sb strings.Builder
	sb.WriteString(family)
	for _, l := range labels {
		sb.WriteByte(0)
		sb.WriteString(l.Key)
		sb.WriteByte(0)
		sb.WriteString(l.Value)
	}
	return sb.String()
}

// register finds or creates the series, building a new series' collector
// under the lock too: concurrent first registrations (replications
// starting in parallel) must agree on one collector, and a scrape must
// never see a series without one. bounds is used by histograms only.
func (r *Registry) register(family, help, typ string, bounds []float64, labels []Label) *series {
	if !validName(family) {
		panic(fmt.Sprintf("obs: invalid metric name %q", family))
	}
	for _, l := range labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l.Key, family))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := seriesKey(family, labels)
	if s, ok := r.byKey[key]; ok {
		if s.typ != typ {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", family, typ, s.typ))
		}
		return s
	}
	if prev, ok := r.typ[family]; ok && prev != typ {
		panic(fmt.Sprintf("obs: metric family %s holds %s series, cannot add %s", family, prev, typ))
	}
	if _, ok := r.typ[family]; !ok {
		r.order = append(r.order, family)
		r.typ[family] = typ
		r.help[family] = help
	}
	s := &series{family: family, typ: typ, labels: append([]Label(nil), labels...)}
	switch typ {
	case "counter":
		s.counter = &Counter{}
	case "gauge":
		s.gauge = &Gauge{}
	case "histogram":
		h, err := newHistogram(bounds)
		if err != nil {
			panic(err.Error())
		}
		s.hist = h
	}
	r.byKey[key] = s
	r.list = append(r.list, s)
	return s
}

// Counter registers (or finds) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, "counter", nil, labels).counter
}

// Gauge registers (or finds) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.register(name, help, "gauge", nil, labels).gauge
}

// Histogram registers (or finds) a histogram series with the given
// bucket upper bounds (ascending, +Inf implicit). Bounds are fixed at
// first registration; later registrations of the same series return the
// existing histogram regardless of the bounds passed.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return r.register(name, help, "histogram", bounds, labels).hist
}

// snapshot returns the families in registration order with their series.
func (r *Registry) snapshot() (families []string, help, typ map[string]string, byFamily map[string][]*series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	families = append([]string(nil), r.order...)
	help = make(map[string]string, len(r.help))
	typ = make(map[string]string, len(r.typ))
	for k, v := range r.help {
		help[k] = v
	}
	for k, v := range r.typ {
		typ[k] = v
	}
	byFamily = make(map[string][]*series, len(families))
	for _, s := range r.list {
		byFamily[s.family] = append(byFamily[s.family], s)
	}
	return families, help, typ, byFamily
}

func appendLabels(dst []byte, labels []Label, extra ...Label) []byte {
	all := len(labels) + len(extra)
	if all == 0 {
		return dst
	}
	dst = append(dst, '{')
	first := true
	emit := func(l Label) {
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = append(dst, l.Key...)
		dst = append(dst, '=', '"')
		for i := 0; i < len(l.Value); i++ {
			switch c := l.Value[i]; c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\n':
				dst = append(dst, '\\', 'n')
			default:
				dst = append(dst, c)
			}
		}
		dst = append(dst, '"')
	}
	for _, l := range labels {
		emit(l)
	}
	for _, l := range extra {
		emit(l)
	}
	dst = append(dst, '}')
	return dst
}

func formatPromFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered series in the Prometheus text
// exposition format (version 0.0.4): one # HELP / # TYPE pair per
// family, then its series; histograms render cumulative _bucket series
// with le labels plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	families, help, typ, byFamily := r.snapshot()
	var buf []byte
	for _, fam := range families {
		buf = buf[:0]
		if h := help[fam]; h != "" {
			buf = append(buf, "# HELP "...)
			buf = append(buf, fam...)
			buf = append(buf, ' ')
			buf = append(buf, strings.NewReplacer("\\", "\\\\", "\n", "\\n").Replace(h)...)
			buf = append(buf, '\n')
		}
		buf = append(buf, "# TYPE "...)
		buf = append(buf, fam...)
		buf = append(buf, ' ')
		buf = append(buf, typ[fam]...)
		buf = append(buf, '\n')
		for _, s := range byFamily[fam] {
			switch s.typ {
			case "counter":
				buf = append(buf, fam...)
				buf = appendLabels(buf, s.labels)
				buf = append(buf, ' ')
				buf = strconv.AppendUint(buf, s.counter.Value(), 10)
				buf = append(buf, '\n')
			case "gauge":
				buf = append(buf, fam...)
				buf = appendLabels(buf, s.labels)
				buf = append(buf, ' ')
				buf = append(buf, formatPromFloat(s.gauge.Value())...)
				buf = append(buf, '\n')
			case "histogram":
				h := s.hist
				cum := uint64(0)
				for i := 0; i <= len(h.bounds); i++ {
					cum += h.BucketCount(i)
					le := "+Inf"
					if i < len(h.bounds) {
						le = formatPromFloat(h.bounds[i])
					}
					buf = append(buf, fam...)
					buf = append(buf, "_bucket"...)
					buf = appendLabels(buf, s.labels, Label{"le", le})
					buf = append(buf, ' ')
					buf = strconv.AppendUint(buf, cum, 10)
					buf = append(buf, '\n')
				}
				buf = append(buf, fam...)
				buf = append(buf, "_sum"...)
				buf = appendLabels(buf, s.labels)
				buf = append(buf, ' ')
				buf = append(buf, formatPromFloat(h.Sum())...)
				buf = append(buf, '\n')
				buf = append(buf, fam...)
				buf = append(buf, "_count"...)
				buf = appendLabels(buf, s.labels)
				buf = append(buf, ' ')
				buf = strconv.AppendUint(buf, h.Count(), 10)
				buf = append(buf, '\n')
			}
		}
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("obs: write metrics: %w", err)
		}
	}
	return nil
}

// jsonSeries is the JSON rendering of one series.
type jsonSeries struct {
	Name    string            `json:"name"`
	Type    string            `json:"type"`
	Labels  map[string]string `json:"labels,omitempty"`
	Value   *float64          `json:"value,omitempty"`
	Count   *uint64           `json:"count,omitempty"`
	Sum     *float64          `json:"sum,omitempty"`
	Buckets map[string]uint64 `json:"buckets,omitempty"`
}

// WriteJSON renders every registered series as a JSON array (one object
// per series; histograms carry cumulative buckets keyed by le).
func (r *Registry) WriteJSON(w io.Writer) error {
	families, _, _, byFamily := r.snapshot()
	var out []jsonSeries
	for _, fam := range families {
		for _, s := range byFamily[fam] {
			js := jsonSeries{Name: fam, Type: s.typ}
			if len(s.labels) > 0 {
				js.Labels = make(map[string]string, len(s.labels))
				for _, l := range s.labels {
					js.Labels[l.Key] = l.Value
				}
			}
			switch s.typ {
			case "counter":
				v := float64(s.counter.Value())
				js.Value = &v
			case "gauge":
				v := s.gauge.Value()
				js.Value = &v
			case "histogram":
				h := s.hist
				count := h.Count()
				sum := h.Sum()
				js.Count = &count
				js.Sum = &sum
				js.Buckets = make(map[string]uint64, len(h.bounds)+1)
				cum := uint64(0)
				for i := 0; i <= len(h.bounds); i++ {
					cum += h.BucketCount(i)
					le := "+Inf"
					if i < len(h.bounds) {
						le = formatPromFloat(h.bounds[i])
					}
					js.Buckets[le] = cum
				}
			}
			out = append(out, js)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ServeHTTP implements http.Handler, serving the Prometheus text format.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WritePrometheus(w)
}

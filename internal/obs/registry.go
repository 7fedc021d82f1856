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

	"smthill/internal/telemetry"
)

// Registry is the single metric surface of a process: counters, gauges,
// and histograms register once under a validated Prometheus name and
// render together as one deterministic text exposition. Sub-registries
// (Attach) let a component own its instruments — and render them alone
// for back-compat surfaces — while still appearing in the parent's
// combined /metrics.
//
// Registration is configuration-time programmer API: an invalid name,
// an invalid label, or a name already registered in the same registry
// panics, and Attach panics on a name collision across registries.
// Tests reach every registration in serve and fabric, so a bad name
// fails `go test` rather than a running daemon.
type Registry struct {
	mu       sync.Mutex
	families map[string]*metricFamily // guarded by mu
	subs     []*Registry              // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*metricFamily)}
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHist
)

type metricFamily struct {
	name   string
	help   string
	kind   metricKind
	labels []string
	fn     func() float64

	mu     sync.Mutex
	series map[string]*metricSeries // guarded by mu
}

type metricSeries struct {
	labelVals []string
	counter   atomic.Uint64
	gaugeBits atomic.Uint64
	histMu    sync.Mutex
	hist      telemetry.Hist // guarded by histMu
}

// Counter is a monotonically increasing uint64 metric.
type Counter struct{ s *metricSeries }

// Inc adds one.
func (c *Counter) Inc() { c.s.counter.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.s.counter.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.s.counter.Load() }

// Gauge is a settable float64 metric.
type Gauge struct{ s *metricSeries }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.s.gaugeBits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.s.gaugeBits.Load()) }

// Hist is a power-of-two-bucketed histogram of non-negative integer
// samples (telemetry.Hist under a lock), rendered in cumulative
// Prometheus bucket form.
type Hist struct{ s *metricSeries }

// Observe records one sample.
func (h *Hist) Observe(v int) {
	h.s.histMu.Lock()
	h.s.hist.Observe(v)
	h.s.histMu.Unlock()
}

// Snapshot returns a copy of the underlying histogram.
func (h *Hist) Snapshot() telemetry.Hist {
	h.s.histMu.Lock()
	defer h.s.histMu.Unlock()
	return h.s.hist
}

// CounterVec is a counter family partitioned by labels.
type CounterVec struct{ fam *metricFamily }

// With returns (materializing if needed) the series for the given label
// values, so zero-valued series render from the moment they are
// declared.
func (v *CounterVec) With(values ...string) *Counter {
	return &Counter{s: v.fam.with(values)}
}

// GaugeVec is a gauge family partitioned by labels.
type GaugeVec struct{ fam *metricFamily }

// With returns the series for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return &Gauge{s: v.fam.with(values)}
}

// HistVec is a histogram family partitioned by labels.
type HistVec struct{ fam *metricFamily }

// With returns the series for the given label values.
func (v *HistVec) With(values ...string) *Hist {
	return &Hist{s: v.fam.with(values)}
}

func (f *metricFamily) with(values []string) *metricSeries {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &metricSeries{labelVals: append([]string(nil), values...)}
		f.series[key] = s
	}
	return s
}

// validName reports whether s matches the Prometheus metric-name
// charset [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabel reports whether s matches the Prometheus label-name
// charset [a-zA-Z_][a-zA-Z0-9_]*.
func validLabel(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func (r *Registry) register(name, help string, kind metricKind, labels []string) *metricFamily {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabel(l) {
			panic(fmt.Sprintf("obs: metric %s has invalid label name %q", name, l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("obs: metric %s registered twice", name))
	}
	f := &metricFamily{
		name: name, help: help, kind: kind,
		labels: append([]string(nil), labels...),
		series: make(map[string]*metricSeries),
	}
	r.families[name] = f
	return f
}

// Counter registers an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, nil)
	return &Counter{s: f.with(nil)}
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.register(name, help, kindCounter, labels)}
}

// Gauge registers an unlabeled settable gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, kindGauge, nil)
	return &Gauge{s: f.with(nil)}
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.register(name, help, kindGauge, labels)}
}

// GaugeFunc registers a gauge computed at scrape time — the natural
// shape for "current depth of that queue over there".
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGaugeFunc, nil)
	f.fn = fn
}

// Hist registers an unlabeled histogram.
func (r *Registry) Hist(name, help string) *Hist {
	f := r.register(name, help, kindHist, nil)
	return &Hist{s: f.with(nil)}
}

// HistVec registers a labeled histogram family.
func (r *Registry) HistVec(name, help string, labels ...string) *HistVec {
	return &HistVec{fam: r.register(name, help, kindHist, labels)}
}

// Attach adds sub's families to r's rendered exposition. The
// sub-registry keeps its own identity (and can render alone). Attach
// panics when a family name in sub (or its subs) is already present in
// r (or its subs). The check sees only the families registered so far,
// so attach a sub-registry once its owner has finished registering —
// every constructor in this repo does.
func (r *Registry) Attach(sub *Registry) {
	if sub == nil || sub == r {
		return
	}
	have := map[string]bool{}
	for _, f := range r.collect() {
		have[f.name] = true
	}
	for _, f := range sub.collect() {
		if have[f.name] {
			panic(fmt.Sprintf("obs: attached metric %s is already registered", f.name))
		}
	}
	r.mu.Lock()
	r.subs = append(r.subs, sub)
	r.mu.Unlock()
}

// collect returns all families of r and its attached sub-registries.
func (r *Registry) collect() []*metricFamily {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*metricFamily, 0, len(names))
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	subs := append([]*Registry(nil), r.subs...)
	r.mu.Unlock()
	for _, sub := range subs {
		fams = append(fams, sub.collect()...)
	}
	return fams
}

// Write renders the registry (and attached sub-registries) in
// Prometheus text exposition format, families sorted by name and series
// sorted by label values, so equal states render to equal bytes.
func (r *Registry) Write(w io.Writer) {
	fams := r.collect()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		f.write(w)
	}
}

func (f *metricFamily) write(w io.Writer) {
	if f.kind == kindGaugeFunc {
		fmt.Fprintf(w, "%s %s\n", f.name, formatMetricValue(f.fn()))
		return
	}
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	series := make([]*metricSeries, len(keys))
	for i, k := range keys {
		series[i] = f.series[k]
	}
	f.mu.Unlock()
	for _, s := range series {
		base := labelString(f.labels, s.labelVals)
		switch f.kind {
		case kindCounter:
			fmt.Fprintf(w, "%s%s %d\n", f.name, wrap(base), s.counter.Load())
		case kindGauge:
			fmt.Fprintf(w, "%s%s %s\n", f.name, wrap(base), formatMetricValue(math.Float64frombits(s.gaugeBits.Load())))
		case kindHist:
			s.histMu.Lock()
			h := s.hist
			s.histMu.Unlock()
			writeHistSeries(w, f.name, base, &h)
		}
	}
}

// writeHistSeries renders one histogram series in cumulative bucket
// form: le is the inclusive integer upper bound of each power-of-two
// bucket, with a final +Inf bucket (the layout serve and fabric have
// exposed since PR 4/PR 6).
func writeHistSeries(w io.Writer, name, base string, h *telemetry.Hist) {
	cum := uint64(0)
	for i := 0; i < telemetry.HistBuckets; i++ {
		cum += h.Buckets[i]
		le := "+Inf"
		if i < telemetry.HistBuckets-1 {
			le = strconv.Itoa(telemetry.BucketLo(i+1) - 1)
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, wrap(joinLabels(base, `le=`+strconv.Quote(le))), cum)
	}
	fmt.Fprintf(w, "%s_sum%s %d\n", name, wrap(base), h.Sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, wrap(base), h.Count)
}

// labelString renders `k1="v1",k2="v2"` (no braces) in declaration
// order, or "" with no labels.
func labelString(names, vals []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(vals[i]))
	}
	return b.String()
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	return a + "," + b
}

// wrap puts a non-empty label string in braces.
func wrap(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// formatMetricValue renders integral floats without an exponent or
// decimal point and everything else in shortest-round-trip form, so
// `0.5` is "0.5" and `3` is "3".
func formatMetricValue(v float64) string {
	//smtlint:ignore float-compare exact-integrality test chooses a rendering, never simulator behaviour
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

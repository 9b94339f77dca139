package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// metric type discriminators, matching the Prometheus TYPE names.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Emit is the callback handed to GaugeSet collectors: call it once per
// sample, with the label values in registration order.
type Emit func(v float64, labelValues ...string)

// family is one registered metric name: its metadata plus the children
// (one per distinct label-value combination).
type family struct {
	name   string
	help   string
	typ    string
	labels []string
	bounds []float64 // histogram families only

	mu       sync.Mutex
	children map[string]any // guarded-by: mu (→ *Counter, *Gauge or *Histogram)

	// Callback families (GaugeFunc/GaugeSet/CounterFunc) have no
	// children; they are sampled at exposition time instead.
	fn    func(Emit)
	fnInt func() uint64 // CounterFunc fast form
}

// child returns (creating on first use) the sample for one
// label-value combination.
func (f *family) child(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s has %d labels, got %d values",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	var c any
	switch f.typ {
	case typeCounter:
		c = NewCounter()
	case typeGauge:
		c = NewGauge()
	case typeHistogram:
		c = NewHistogram(f.bounds...)
	}
	f.children[key] = c
	return c
}

// Registry holds metric families and renders them. The zero value is
// not useful — construct with NewRegistry. A nil *Registry is the
// disabled registry: every constructor returns a nil handle, whose
// methods all no-op.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family // guarded-by: mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

var nameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// register installs (or retrieves, when name is already present with
// identical shape) a family. Conflicting re-registration panics: metric
// names are program constants and a clash is a programmer error.
func (r *Registry) register(name, help, typ string, labels []string, bounds []float64, fn func(Emit), fnInt func() uint64) *family {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !nameRe.MatchString(l) {
			panic(fmt.Sprintf("obs: metric %s: invalid label name %q", name, l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ || !equalStrings(f.labels, labels) || f.fn != nil || fn != nil || f.fnInt != nil || fnInt != nil {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different shape", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels:   append([]string(nil), labels...),
		bounds:   append([]float64(nil), bounds...),
		children: make(map[string]any),
		fn:       fn,
		fnInt:    fnInt,
	}
	sort.Float64s(f.bounds)
	r.fams[name] = f
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

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, typeCounter, nil, nil, nil, nil).child(nil).(*Counter)
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.register(name, help, typeCounter, labels, nil, nil, nil)}
}

// CounterFunc registers a counter sampled from fn at exposition time —
// for code that already maintains its own atomic counter.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	if r == nil {
		return
	}
	r.register(name, help, typeCounter, nil, nil, nil, fn)
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, typeGauge, nil, nil, nil, nil).child(nil).(*Gauge)
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.register(name, help, typeGauge, labels, nil, nil, nil)}
}

// GaugeFunc registers a gauge sampled from fn at exposition time. Use
// it for quantities that are cheap to compute on demand but would cost
// hot-path updates to maintain (queue depths, map sizes).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, help, typeGauge, nil, nil, func(emit Emit) { emit(fn()) }, nil)
}

// GaugeSet registers a labeled gauge family collected by callback: at
// exposition time fn is invoked and emits any number of samples. This
// is how per-relation index statistics (tree nodes, marker counts, …)
// are exported without touching the match path at all.
func (r *Registry) GaugeSet(name, help string, labels []string, fn func(Emit)) {
	if r == nil {
		return
	}
	r.register(name, help, typeGauge, labels, nil, fn, nil)
}

// Histogram registers (or fetches) an unlabeled histogram with the
// given bucket upper bounds (DefBuckets when empty).
func (r *Registry) Histogram(name, help string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	return r.register(name, help, typeHistogram, nil, bounds, nil, nil).child(nil).(*Histogram)
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	return &HistogramVec{f: r.register(name, help, typeHistogram, labels, bounds, nil, nil)}
}

// CounterVec is a labeled counter family. With resolves one child;
// resolve once and keep the handle on hot paths.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (nil on a nil
// vec, so the disabled path stays allocation-free).
func (v *CounterVec) With(labelValues ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.child(labelValues).(*Counter)
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.child(labelValues).(*Gauge)
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.child(labelValues).(*Histogram)
}

// sample is one rendered child, collected under the family mutex and
// rendered outside it.
type sample struct {
	labelValues []string
	value       float64  // counter/gauge
	counts      []uint64 // histogram buckets (non-cumulative, +Inf last)
	sum         float64  // histogram
	hist        bool
}

// collect snapshots one family's samples in deterministic order.
func (f *family) collect() []sample {
	if f.fnInt != nil {
		return []sample{{value: float64(f.fnInt())}}
	}
	if f.fn != nil {
		var out []sample
		f.fn(func(v float64, labelValues ...string) {
			if len(labelValues) != len(f.labels) {
				panic(fmt.Sprintf("obs: metric %s emit with %d label values, want %d",
					f.name, len(labelValues), len(f.labels)))
			}
			out = append(out, sample{labelValues: append([]string(nil), labelValues...), value: v})
		})
		sort.Slice(out, func(i, j int) bool {
			return lessStrings(out[i].labelValues, out[j].labelValues)
		})
		return out
	}
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]sample, 0, len(keys))
	for _, k := range keys {
		var lv []string
		if len(f.labels) > 0 {
			lv = strings.Split(k, "\xff")
		}
		s := sample{labelValues: lv}
		switch c := f.children[k].(type) {
		case *Counter:
			s.value = float64(c.Value())
		case *Gauge:
			s.value = float64(c.Value())
		case *Histogram:
			s.hist = true
			s.counts, s.sum = c.snapshot()
		}
		out = append(out, s)
	}
	f.mu.Unlock()
	return out
}

func lessStrings(a, b []string) bool {
	for i := range a {
		if i >= len(b) || a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			return true
		}
	}
	return len(a) < len(b)
}

// families returns the registered families sorted by name.
func (r *Registry) families() []*family {
	r.mu.Lock()
	out := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		out = append(out, f)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// escapeLabel escapes a label value per the Prometheus text format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

// labelString renders {k="v",...}; empty when there are no labels.
// extra appends one more pair (the histogram "le" label).
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a float the way Prometheus expects: integers
// without a decimal point, +Inf for the last histogram bound.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every registered family in the Prometheus
// text exposition format (version 0.0.4), families and samples in
// deterministic order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, f := range r.families() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.collect() {
			if !s.hist {
				if _, err := fmt.Fprintf(w, "%s%s %s\n",
					f.name, labelString(f.labels, s.labelValues, "", ""), formatValue(s.value)); err != nil {
					return err
				}
				continue
			}
			var cum uint64
			for i, c := range s.counts {
				cum += c
				le := "+Inf"
				if i < len(f.bounds) {
					le = formatValue(f.bounds[i])
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
					f.name, labelString(f.labels, s.labelValues, "le", le), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %g\n",
				f.name, labelString(f.labels, s.labelValues, "", ""), s.sum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n",
				f.name, labelString(f.labels, s.labelValues, "", ""), cum); err != nil {
				return err
			}
		}
	}
	return nil
}

// JSON snapshot types (the /varz form).
type jsonBucket struct {
	LE    any    `json:"le"` // float bound or the string "+Inf"
	Count uint64 `json:"count"`
}

type jsonSample struct {
	Labels  map[string]string `json:"labels,omitempty"`
	Value   *float64          `json:"value,omitempty"`
	Count   *uint64           `json:"count,omitempty"`
	Sum     *float64          `json:"sum,omitempty"`
	Buckets []jsonBucket      `json:"buckets,omitempty"`
}

type jsonFamily struct {
	Name    string       `json:"name"`
	Type    string       `json:"type"`
	Help    string       `json:"help,omitempty"`
	Samples []jsonSample `json:"samples"`
}

// WriteJSON renders the same snapshot as WritePrometheus in a JSON
// form (the daemon's /varz endpoint), cumulative bucket counts and all.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{\"metrics\":[]}\n")
		return err
	}
	var fams []jsonFamily
	for _, f := range r.families() {
		jf := jsonFamily{Name: f.name, Type: f.typ, Help: f.help, Samples: []jsonSample{}}
		for _, s := range f.collect() {
			js := jsonSample{}
			if len(f.labels) > 0 {
				js.Labels = make(map[string]string, len(f.labels))
				for i, n := range f.labels {
					js.Labels[n] = s.labelValues[i]
				}
			}
			if s.hist {
				var cum uint64
				for i, c := range s.counts {
					cum += c
					le := any("+Inf")
					if i < len(f.bounds) {
						le = f.bounds[i]
					}
					js.Buckets = append(js.Buckets, jsonBucket{LE: le, Count: cum})
				}
				sum := s.sum
				js.Count, js.Sum = &cum, &sum
			} else {
				v := s.value
				js.Value = &v
			}
			jf.Samples = append(jf.Samples, js)
		}
		fams = append(fams, jf)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Metrics []jsonFamily `json:"metrics"`
	}{Metrics: fams})
}

package metrics

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is the serving layer's one metrics registry: counters, up/down
// gauges, cumulative histograms, and families whose samples are read from
// their owner at scrape time, rendered in the Prometheus text exposition
// format (version 0.0.4). The order is fixed — families in registration
// order, series sorted by label values — so two scrapes of an idle process
// are byte-identical. A labelled series appears on first use; a family
// without series renders nothing, not even its HELP/TYPE header.
//
// Families are registered when their owner is built; the handles they
// return are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// maxLabels bounds the label keys of one family (a histogram's le is extra).
const maxLabels = 2

// labelValues keys a series by its label values, in the family's key order.
type labelValues [maxLabels]string

// labelEscaper escapes a label value per the exposition format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

// series is one labelled instance of a family's metric.
type series interface {
	appendSamples(b []byte, f *family, lv *labelValues) []byte
}

type family struct {
	name, help, typ string
	keys            []string // sorted label keys
	le              []string // rendered bucket bounds (histograms only)
	newSeries       func() series

	mu     sync.Mutex
	series map[labelValues]series

	// collect, when set, supplies the samples at scrape time instead.
	collect func(emit func(v float64, values ...string))
}

func (r *Registry) register(f *family) *family {
	if len(f.keys) > maxLabels || !slices.IsSorted(f.keys) {
		panic("metrics: " + f.name + ": label keys must be sorted and at most " + strconv.Itoa(maxLabels))
	}
	f.series = make(map[labelValues]series)
	r.mu.Lock()
	r.families = append(r.families, f)
	r.mu.Unlock()
	return f
}

// with returns the series for values, creating it on first use.
func (f *family) with(values []string) series {
	if len(values) != len(f.keys) {
		panic("metrics: " + f.name + ": wrong number of label values")
	}
	var lv labelValues
	copy(lv[:], values)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[lv]
	if !ok {
		s = f.newSeries()
		f.series[lv] = s
	}
	return s
}

// Vec is a family of labelled series.
type Vec[S series] struct{ f *family }

// With returns the series for values, given in the (sorted) order of the
// family's keys, creating it on first use.
func (v Vec[S]) With(values ...string) S { return v.f.with(values).(S) }

// Counter is a monotone integer count.
type Counter struct{ n atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds d.
func (c *Counter) Add(d int64) { c.n.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

func (c *Counter) appendSamples(b []byte, f *family, lv *labelValues) []byte {
	return scraped(c.Value()).appendSamples(b, f, lv)
}

// Gauge is an integer level that moves both ways (Add a negative delta).
type Gauge struct{ Counter }

// scraped is a value read at scrape time.
type scraped float64

func (v scraped) appendSamples(b []byte, f *family, lv *labelValues) []byte {
	return append(appendFloat(f.appendSeries(b, "", lv, ""), float64(v)), '\n')
}

// Histogram counts observations into cumulative buckets.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // per bucket; the last is the overflow bucket
	sum    float64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.mu.Unlock()
}

func (h *Histogram) appendSamples(b []byte, f *family, lv *labelValues) []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	var cum uint64
	for i, le := range f.le {
		cum += h.counts[i]
		b = append(strconv.AppendUint(f.appendSeries(b, "_bucket", lv, le), cum, 10), '\n')
	}
	b = append(appendFloat(f.appendSeries(b, "_sum", lv, ""), h.sum), '\n')
	return append(strconv.AppendUint(f.appendSeries(b, "_count", lv, ""), cum, 10), '\n')
}

// CounterVec registers a counter family labelled by keys.
func (r *Registry) CounterVec(name, help string, keys ...string) Vec[*Counter] {
	return Vec[*Counter]{r.register(&family{name: name, help: help, typ: "counter", keys: keys,
		newSeries: func() series { return new(Counter) }})}
}

// Counter registers an unlabelled counter; it renders from the start.
func (r *Registry) Counter(name, help string) *Counter { return r.CounterVec(name, help).With() }

// Gauge registers an unlabelled up/down gauge; it renders from the start.
func (r *Registry) Gauge(name, help string) *Gauge {
	return Vec[*Gauge]{r.register(&family{name: name, help: help, typ: "gauge",
		newSeries: func() series { return new(Gauge) }})}.With()
}

// HistogramVec registers a histogram family labelled by keys, with the
// given bucket upper bounds (an overflow bucket, le="+Inf", is added).
func (r *Registry) HistogramVec(name, help string, bounds []float64, keys ...string) Vec[*Histogram] {
	var le []string
	for _, ub := range bounds {
		le = append(le, string(appendFloat(nil, ub)))
	}
	return Vec[*Histogram]{r.register(&family{name: name, help: help, typ: "histogram", keys: keys,
		le: append(le, "+Inf"),
		newSeries: func() series {
			return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
		}})}
}

// Collect registers a family of the given type ("counter" or "gauge")
// whose samples fn supplies at scrape time: one emit per series, with its
// label values in the order of keys (which must be sorted).
func (r *Registry) Collect(name, help, typ string, keys []string, fn func(emit func(v float64, values ...string))) {
	r.register(&family{name: name, help: help, typ: typ, keys: keys, collect: fn})
}

// GaugeFunc registers an unlabelled gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.Collect(name, help, "gauge", nil, func(emit func(float64, ...string)) { emit(fn()) })
}

// AppendText appends the exposition of every family to b.
func (r *Registry) AppendText(b []byte) []byte {
	r.mu.Lock()
	families := r.families
	r.mu.Unlock()
	type row struct {
		lv labelValues
		s  series
	}
	var rows []row
	for _, f := range families {
		rows = rows[:0]
		if f.collect != nil {
			f.collect(func(v float64, values ...string) {
				var lv labelValues
				copy(lv[:], values)
				rows = append(rows, row{lv, scraped(v)})
			})
		} else {
			f.mu.Lock()
			for lv, s := range f.series {
				rows = append(rows, row{lv, s})
			}
			f.mu.Unlock()
		}
		if len(rows) == 0 {
			continue
		}
		slices.SortFunc(rows, func(a, b row) int { return slices.Compare(a.lv[:], b.lv[:]) })
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for i := range rows {
			b = rows[i].s.appendSamples(b, f, &rows[i].lv)
		}
	}
	return b
}

// appendSeries renders the start of one sample line: name+suffix, the
// label set in key order (with an le pair when le is not empty), and the
// space before the value.
func (f *family) appendSeries(b []byte, suffix string, lv *labelValues, le string) []byte {
	b = append(append(b, f.name...), suffix...)
	start := len(b)
	for i, k := range f.keys {
		if le != "" && k > "le" {
			b, le = appendLabel(b, "le", le), ""
		}
		b = appendLabel(b, k, lv[i])
	}
	if le != "" {
		b = appendLabel(b, "le", le)
	}
	if len(b) > start {
		b[start] = '{'
		b = append(b, '}')
	}
	return append(b, ' ')
}

// appendLabel appends `,k="v"` with v escaped.
func appendLabel(b []byte, k, v string) []byte {
	b = append(append(append(b, ','), k...), `="`...)
	return append(append(b, labelEscaper.Replace(v)...), '"')
}

// appendFloat renders a sample value (Prometheus spells infinities +Inf/-Inf).
func appendFloat(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

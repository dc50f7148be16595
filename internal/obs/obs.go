// Package obs is the observability substrate: a zero-dependency metrics
// registry (atomic counters, fixed-bucket histograms and gauges collected at
// scrape time) with Prometheus text-format exposition, plus a structured
// slow-operation log and the HTTP side-listener handler (/metrics, /healthz,
// /debug/pprof).
//
// Design constraints, in order:
//
//   - instruments on the hot path are lock-free: a Counter.Add or
//     Histogram.Observe is a handful of atomic operations, never a mutex,
//     so instrumenting the per-op server path and the WAL flush loop does
//     not create a new convoy point;
//   - one source of truth: the registry does not keep shadow copies of
//     counters that exist elsewhere. Components either own an instrument
//     (histograms, new counters) or are exported through *collected*
//     families: the tagged fields of the component's own stats struct,
//     snapshotted once per scrape (CollectStruct, structs.go) — which is
//     what lets the STATS wire frame and /metrics report identical numbers
//     by construction;
//   - naming follows the sias_<subsystem>_<name>{shard="..."} scheme with
//     Prometheus conventions (base units: seconds and bytes; _total suffix
//     on counters).
//
// The package imports only the standard library, so every layer of the
// engine (wal, buffer, engine, server) can depend on it without cycles.
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

// Labels is one series' label set. Instruments are registered once at
// assembly time, so the map form costs nothing on the hot path.
type Labels map[string]string

// Metric families have one of the Prometheus exposition types.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the exposition to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// DefLatencyBuckets are the default latency histogram bounds in seconds:
// exponential-ish from 50µs to 2.5s, chosen so both an in-memory op (tens
// of µs) and a convoyed fsync (tens of ms) land mid-range.
var DefLatencyBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// DefSizeBuckets are histogram bounds for small cardinalities (group-commit
// batch sizes, scan fan-outs).
var DefSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Histogram is a fixed-bucket histogram with atomic buckets, in the
// Prometheus cumulative-bucket model. Observe is lock-free; the p50/p95/p99
// extraction used by reports interpolates within the owning bucket.
type Histogram struct {
	bounds  []float64      // ascending finite upper bounds
	counts  []atomic.Int64 // len(bounds)+1; last bucket is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-add
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum reports the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot reads the per-bucket counts (non-cumulative).
func (h *Histogram) snapshot() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile extracts the q-quantile (0 < q < 1) by linear interpolation
// within the bucket holding the rank, the same estimate Prometheus'
// histogram_quantile computes. Observations beyond the last finite bound
// report that bound. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	return quantile(q, h.bounds, h.snapshot())
}

// quantile is shared between live histograms and parsed scrape data.
func quantile(q float64, bounds []float64, counts []int64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(bounds) { // +Inf bucket: report the last finite bound
			if len(bounds) == 0 {
				return 0
			}
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-float64(prev))/float64(c)
	}
	return bounds[len(bounds)-1]
}

// series is one labelled instrument within a family.
type series struct {
	labels string // pre-rendered {k="v",...} suffix, "" for unlabelled
	ctr    *Counter
	hist   *Histogram
}

// family is one metric name: HELP/TYPE plus its series. A family is either
// static (instruments registered up front) or collected: its samples come
// at scrape time from a CollectStruct snapshot, or from its own callback.
type family struct {
	name, help, typ string
	buckets         []float64

	mu     sync.Mutex
	series map[string]*series
	order  []string

	collect func(emit func(Labels, float64))
}

// Registry holds metric families and renders them in exposition format.
// Registration is idempotent: asking for the same name+labels returns the
// existing instrument, so wiring code can be re-run (tests) safely.
// Registering a name twice with a different type panics — that is a
// programming error caught at assembly time, not a runtime condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
	// sources are the CollectStruct snapshots: each runs once per WriteText
	// and emits samples for any number of families.
	sources []func(emit func(name, labels string, v float64))
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

func (r *Registry) familyFor(name, help, typ string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: map[string]*series{}}
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, typ, f.typ))
	}
	return f
}

func (f *family) seriesFor(labels Labels) *series {
	key := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter registers (or retrieves) a counter series.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	s := r.familyFor(name, help, typeCounter).seriesFor(labels)
	if s.ctr == nil {
		s.ctr = &Counter{}
	}
	return s.ctr
}

// Histogram registers (or retrieves) a histogram series with the given
// bucket bounds (which must match across series of one family).
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	f := r.familyFor(name, help, typeHistogram)
	f.mu.Lock()
	if f.buckets == nil {
		bs := append([]float64(nil), buckets...)
		sort.Float64s(bs)
		f.buckets = bs
	}
	bounds := f.buckets
	f.mu.Unlock()
	s := f.seriesFor(labels)
	if s.hist == nil {
		s.hist = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	}
	return s.hist
}

// CollectGauge registers a gauge family whose series are produced by fn at
// scrape time, for the odd value that is not a field of a stats struct
// (CollectStruct is the rule). Registering the same name again replaces fn.
func (r *Registry) CollectGauge(name, help string, fn func(emit func(Labels, float64))) {
	f := r.familyFor(name, help, typeGauge)
	f.mu.Lock()
	f.collect = fn
	f.mu.Unlock()
}

// renderLabels renders a label set as the exposition suffix (see
// renderPairs).
func renderLabels(labels Labels) string {
	pairs := make([][2]string, 0, len(labels))
	for k, v := range labels {
		pairs = append(pairs, [2]string{k, v})
	}
	return renderPairs(pairs)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatFloat renders a sample value; integral values print without
// exponent noise.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// withLabel splices an extra label (le for histogram buckets) into a
// pre-rendered label suffix, keeping it last — Prometheus does not require
// sorted labels, only consistency.
func withLabel(rendered, name, value string) string {
	if rendered == "" {
		return "{" + name + `="` + value + `"}`
	}
	return rendered[:len(rendered)-1] + "," + name + `="` + value + `"}`
}

// WriteText renders the registry in Prometheus text exposition format
// (version 0.0.4): families in registration order, HELP and TYPE once per
// family, series in registration (or sorted, for collected families) order.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	sources := r.sources[:len(r.sources):len(r.sources)]
	r.mu.Unlock()

	type sample struct {
		labels string
		v      float64
	}
	scraped := map[string][]sample{}
	for _, src := range sources {
		src(func(name, labels string, v float64) {
			scraped[name] = append(scraped[name], sample{labels, v})
		})
	}

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)

		f.mu.Lock()
		collect := f.collect
		keys := append([]string(nil), f.order...)
		ss := make([]*series, len(keys))
		for i, k := range keys {
			ss[i] = f.series[k]
		}
		f.mu.Unlock()

		samples := scraped[f.name]
		if collect != nil {
			collect(func(l Labels, v float64) {
				samples = append(samples, sample{renderLabels(l), v})
			})
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i].labels < samples[j].labels })
		for _, s := range samples {
			fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatFloat(s.v))
		}
		for _, s := range ss {
			switch {
			case s.ctr != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.ctr.Value())
			case s.hist != nil:
				h := s.hist
				counts := h.snapshot()
				var cum int64
				for i, bound := range h.bounds {
					cum += counts[i]
					le := strconv.FormatFloat(bound, 'g', -1, 64)
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, withLabel(s.labels, "le", le), cum)
				}
				cum += counts[len(counts)-1]
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, withLabel(s.labels, "le", "+Inf"), cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, s.labels, formatFloat(h.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, s.labels, cum)
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

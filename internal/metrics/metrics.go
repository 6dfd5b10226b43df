package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant key="value" pair attached to a series at
// registration time. Labels distinguish series within a family (the
// per-model registry counters use model="<name>"); they are fixed for
// the life of the series, never parsed back, and rendered sorted by key
// so identity is order-independent.
type Label struct{ Key, Value string }

// metric is one registered series (or histogram series bundle).
type metric interface {
	// write appends the series lines (without HELP/TYPE headers) for
	// this metric; name already carries the rendered label suffix.
	write(w io.Writer, name string) error
}

// entry is a registered metric plus its family metadata.
type entry struct {
	family string // bare family name (no labels)
	labels string // rendered {k="v",...} suffix, "" when none
	help   string
	typ    string // counter | gauge | histogram
	m      metric
}

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. Registration is idempotent: asking for a series
// that already exists returns the existing instance, so per-model
// series survive ownership rebalances without double counting.
// Registering the same series under a different type is a programming
// error and panics, mirroring the prometheus client's MustRegister
// contract.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// Counter is a monotone uint64. The zero value is usable; a nil
// *Counter ignores Add, so optional wiring needs no branches.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) write(w io.Writer, name string) error {
	_, err := fmt.Fprintf(w, "%s %d\n", name, c.v.Load())
	return err
}

// Gauge is a settable int64 level (queue depth, active version). The
// zero value is usable; nil ignores Set.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

func (g *Gauge) write(w io.Writer, name string) error {
	_, err := fmt.Fprintf(w, "%s %d\n", name, g.v.Load())
	return err
}

// gaugeFunc samples a callback at scrape time — for levels that already
// live somewhere authoritative (len of a channel, a registry's version)
// and would drift if mirrored into a stored gauge.
type gaugeFunc struct{ fn func() float64 }

func (g gaugeFunc) write(w io.Writer, name string) error {
	_, err := fmt.Fprintf(w, "%s %s\n", name, formatFloat(g.fn()))
	return err
}

// Counter registers (or fetches) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	e := r.register(name, help, "counter", labels, func() metric { return &Counter{} })
	return e.m.(*Counter)
}

// Gauge registers (or fetches) a stored gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	e := r.register(name, help, "gauge", labels, func() metric { return &Gauge{} })
	return e.m.(*Gauge)
}

// GaugeFunc registers a callback-backed gauge series; fn runs at every
// scrape. Re-registering an existing series replaces its callback
// (ownership of a per-model gauge moves with the model).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := name + renderLabels(labels)
	if e, ok := r.entries[key]; ok {
		if e.typ != "gauge" {
			panic(fmt.Sprintf("metrics: %s re-registered as gauge (is %s)", key, e.typ))
		}
		e.m = gaugeFunc{fn}
		return
	}
	r.entries[key] = &entry{family: name, labels: renderLabels(labels), help: help, typ: "gauge", m: gaugeFunc{fn}}
}

// Histogram registers (or fetches) a histogram with the given upper
// bucket bounds (strictly increasing; the +Inf bucket is implicit).
// Bounds are fixed for the life of the series — the exposition schema
// is deterministic by construction.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	e := r.register(name, help, "histogram", labels, func() metric { return newHistogram(buckets) })
	return e.m.(*Histogram)
}

// Unregister removes a series; a scrape no longer reports it. Removing
// an absent series is a no-op.
func (r *Registry) Unregister(name string, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.entries, name+renderLabels(labels))
}

// register is the shared idempotent-or-panic registration path.
func (r *Registry) register(name, help, typ string, labels []Label, mk func() metric) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	suffix := renderLabels(labels)
	key := name + suffix
	if e, ok := r.entries[key]; ok {
		if e.typ != typ {
			panic(fmt.Sprintf("metrics: %s re-registered as %s (is %s)", key, typ, e.typ))
		}
		return e
	}
	e := &entry{family: name, labels: suffix, help: help, typ: typ, m: mk()}
	r.entries[key] = e
	return e
}

// renderLabels renders a sorted, escaped {k="v",...} suffix ("" for no
// labels). Sorting makes series identity independent of argument order.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// escapeLabel escapes the three characters the text format reserves.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// formatFloat renders a float64 the shortest way that round-trips,
// with Inf spelled the Prometheus way.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Write renders every registered series in the text exposition format:
// families sorted by name, series within a family sorted by label
// suffix, one HELP/TYPE header per family. The order is deterministic,
// so scrapes diff cleanly in tests.
func (r *Registry) Write(w io.Writer) error {
	r.mu.Lock()
	sorted := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		sorted = append(sorted, e)
	}
	r.mu.Unlock()
	// Families sorted by name, series within a family by label suffix:
	// every family's header precedes all of its series.
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].family != sorted[j].family {
			return sorted[i].family < sorted[j].family
		}
		return sorted[i].labels < sorted[j].labels
	})
	lastFamily := ""
	for _, e := range sorted {
		if e.family != lastFamily {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", e.family, e.help, e.family, e.typ); err != nil {
				return err
			}
			lastFamily = e.family
		}
		if err := e.m.write(w, e.family+e.labels); err != nil {
			return err
		}
	}
	return nil
}

// Handler serves the registry as a Prometheus-text scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.Write(w) //nolint:errcheck // a vanished scraper needs no report
	})
}

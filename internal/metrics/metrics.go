// Package metrics is a stdlib-only metrics registry rendered in the
// Prometheus text exposition format (version 0.0.4). It exists so every
// layer of the stack — server, storage, replication, tracer — can export
// latency histograms, and the counters and gauges a collector reads at
// scrape time, over HTTP without pulling in a client library the container
// doesn't have.
//
// Design constraints, in order:
//
//   - The hot path (Histogram.Observe) is allocation-free and
//     never takes a lock shared with the scrape path for longer than a few
//     array increments. Histograms are lock-striped: an observation picks a
//     stripe round-robin off an atomic counter, so concurrent observers
//     rarely contend and a scrape merging all stripes blocks any one
//     observer only briefly.
//   - Rendering is deterministic: families appear in registration order,
//     labeled children in sorted label order, so golden tests and diffing
//     two scrapes both work.
//   - Metric names follow the Prometheus conventions the README documents:
//     `trod_<subsystem>_<name>_<unit>`, counters end in `_total`, durations
//     are in seconds.
package metrics

import (
	"io"
	"strconv"
	"strings"
	"sync"
)

// A Metric is anything the registry can render: Histogram, HistogramVec, or
// a Collect function.
type Metric interface {
	// Name returns the family name, used for duplicate detection ("" for a
	// collector, which renders several).
	Name() string
	// write appends the family's # HELP / # TYPE header and samples.
	write(b *strings.Builder)
}

// Registry holds registered metrics and renders them on demand. The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu    sync.Mutex
	order []Metric
	names map[string]bool
}

func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// Register adds m to the registry. Registering two families with the same
// name is a programming error and panics.
func (r *Registry) Register(m Metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := m.Name(); n != "" {
		if r.names[n] {
			panic("metrics: duplicate registration of " + n)
		}
		r.names[n] = true
	}
	r.order = append(r.order, m)
}

// WriteText renders every registered family in registration order.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	ms := make([]Metric, len(r.order))
	copy(ms, r.order)
	r.mu.Unlock()
	var b strings.Builder
	for _, m := range ms {
		m.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Collect registers fn as a collector: on every scrape it is called once and
// each family it returns is rendered in order. Subsystems that keep their own
// counters hand over one consistent snapshot per scrape this way.
func (r *Registry) Collect(fn func() []Family) { r.Register(collector(fn)) }

// header writes the # HELP / # TYPE preamble for a family.
func header(b *strings.Builder, name, help, typ string) {
	b.WriteString("# HELP ")
	b.WriteString(name)
	b.WriteByte(' ')
	b.WriteString(escapeHelp(help))
	b.WriteString("\n# TYPE ")
	b.WriteString(name)
	b.WriteByte(' ')
	b.WriteString(typ)
	b.WriteByte('\n')
}

// escapeHelp escapes backslash and newline per the exposition format.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// EscapeLabel escapes a label value per the exposition format (backslash,
// double quote, newline). Use it when building Sample.Labels from
// free-form strings.
func EscapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a sample value the way Prometheus expects: shortest
// representation that round-trips, +Inf spelled literally.
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// Sample is one observation in a Family.
type Sample struct {
	// Labels is the pre-rendered label pairs without braces, e.g.
	// `subscriber="0"`, or empty. Values built from free-form strings
	// should pass through EscapeLabel.
	Labels string
	Value  float64
}

// Family is one metric family as a collector returns it: Type is "counter"
// or "gauge".
type Family struct {
	Name, Help, Type string
	Samples          []Sample
}

// collector is a registered Collect function. It has no name of its own, so
// the registry cannot check its families for duplicates.
type collector func() []Family

func (c collector) Name() string { return "" }

func (c collector) write(b *strings.Builder) {
	for _, f := range c() {
		header(b, f.Name, f.Help, f.Type)
		for _, s := range f.Samples {
			b.WriteString(f.Name)
			if s.Labels != "" {
				b.WriteByte('{')
				b.WriteString(s.Labels)
				b.WriteByte('}')
			}
			b.WriteByte(' ')
			b.WriteString(formatFloat(s.Value))
			b.WriteByte('\n')
		}
	}
}

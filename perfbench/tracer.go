package main

import (
	"sort"
	"strings"
	"time"

	"multiclock/internal/machine"
	"multiclock/internal/sim"
)

// Tracer records the traced run's spans in memory. A nil *Tracer is the
// untraced mode: every method is a no-op, so the end-to-end runs pay one
// nil check per boundary and nothing else.
//
// Spans nest on a stack (the simulator is single-threaded). Calls hotter
// than one per operation — YCSB Run.Step — are aggregated: they occupy a
// stack frame so their children and their self time are accounted exactly,
// but only their duration histogram is kept, not one span each.
type Tracer struct {
	now   func() int64 // nanoseconds since the tracer started
	spans []Span
	stack []frame

	self  map[string]int64 // self nanoseconds by name, spans and hot calls
	total map[string]int64 // duration nanoseconds by name
	hists map[string]*Hist // duration histograms by name
}

// Span is one stored span. Parent indexes the tracer's span list (-1 for a
// root); Self is the duration minus the time its children cover.
type Span struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

type frame struct {
	span    int32 // index into spans, -1 for an aggregated call
	name    string
	start   int64
	childNS int64 // duration of the frame's completed children
}

// NewTracer returns a tracer on the host's monotonic clock.
func NewTracer() *Tracer {
	t0 := time.Now()
	return newTracerClock(func() int64 { return int64(time.Since(t0)) })
}

func newTracerClock(now func() int64) *Tracer {
	return &Tracer{
		now:   now,
		self:  map[string]int64{},
		total: map[string]int64{},
		hists: map[string]*Hist{},
	}
}

// Begin opens a stored span.
func (t *Tracer) Begin(name string) {
	if t == nil {
		return
	}
	parent := int32(-1)
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i].span >= 0 {
			parent = t.stack[i].span
			break
		}
	}
	start := t.now()
	t.spans = append(t.spans, Span{Name: name, Parent: parent, Start: start})
	t.stack = append(t.stack, frame{span: int32(len(t.spans) - 1), name: name, start: start})
}

// BeginHot opens an aggregated call.
func (t *Tracer) BeginHot(name string) {
	if t == nil {
		return
	}
	t.stack = append(t.stack, frame{span: -1, name: name, start: t.now()})
}

// End closes the innermost open span or aggregated call.
func (t *Tracer) End() {
	if t == nil {
		return
	}
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	end := t.now()
	d := end - f.start
	self := d - f.childNS
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].childNS += d
	}
	t.self[f.name] += self
	t.total[f.name] += d
	if f.span >= 0 {
		s := &t.spans[f.span]
		s.End, s.Self = end, self
	}
	h := t.hists[f.name]
	if h == nil {
		h = &Hist{}
		t.hists[f.name] = h
	}
	h.Add(d)
}

// Region brackets fn in a stored span.
func (t *Tracer) Region(name string, fn func()) {
	t.Begin(name)
	fn()
	t.End()
}

// Total returns the summed duration of every closed span or aggregated call
// named name, in nanoseconds.
func (t *Tracer) Total(name string) int64 {
	if t == nil {
		return 0
	}
	return t.total[name]
}

// TotalPrefix sums Total over every name with the prefix.
func (t *Tracer) TotalPrefix(prefix string) int64 {
	if t == nil {
		return 0
	}
	var n int64
	for name, d := range t.total {
		if strings.HasPrefix(name, prefix) {
			n += d
		}
	}
	return n
}

// Durations returns the duration histogram of the spans or aggregated
// calls named name (nil when never recorded).
func (t *Tracer) Durations(name string) *Hist {
	if t == nil {
		return nil
	}
	return t.hists[name]
}

// SelfTimes returns self nanoseconds by name, largest first.
func (t *Tracer) SelfTimes() []NamedNS {
	if t == nil {
		return nil
	}
	out := make([]NamedNS, 0, len(t.self))
	for name, ns := range t.self {
		out = append(out, NamedNS{name, ns})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].NS != out[j].NS {
			return out[i].NS > out[j].NS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// NamedNS is one entry of a self-time table.
type NamedNS struct {
	Name string `json:"name"`
	NS   int64  `json:"ns"`
}

// passTimer wraps every daemon wakeup on a machine's clock in a span named
// "daemon.<daemon name>". It chains to the hook it replaced (the metrics
// collector's), so both observe every pass; like any sim.PassHook it calls
// run exactly once and never touches virtual time.
type passTimer struct {
	t     *Tracer
	next  sim.PassHook
	names map[string]string
}

// DaemonPass implements sim.PassHook.
func (p *passTimer) DaemonPass(d *sim.Daemon, run func()) {
	name, ok := p.names[d.Name]
	if !ok {
		name = "daemon." + d.Name
		p.names[d.Name] = name
	}
	p.t.Begin(name)
	if p.next != nil {
		p.next.DaemonPass(d, run)
	} else {
		run()
	}
	p.t.End()
}

// timeDaemons installs the pass timer on m, chained in front of any hook
// already installed. Call it after the telemetry that sets its own hook.
func (t *Tracer) timeDaemons(m *machine.Machine) {
	if t == nil {
		return
	}
	m.Clock.Hook = &passTimer{t: t, next: m.Clock.Hook, names: map[string]string{}}
}

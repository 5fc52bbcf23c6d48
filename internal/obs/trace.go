package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Tracer collects finished root spans in one bounded ring (newest kept).
// A finished span is immutable, so the ring is all a reader needs:
// Roots hands out the spans, Exports builds JSON-ready copies of them
// when somebody asks — a statement pays for filing its span, never for
// a copy nobody may read. A nil *Tracer is a valid "tracing disabled"
// tracer: Start returns a nil span whose whole API is a no-op, so
// instrumented paths pay one nil check when tracing is off.
type Tracer struct {
	mu   sync.Mutex
	ring []*Span // the last len(ring) finished roots, oldest at next once full
	next int
	n    int

	keep   int // how many of them Roots returns
	expCap int // how many of them Exports returns; 0 until EnableExport
}

// NewTracer returns a tracer retaining the last keep root spans
// (default 16 when keep <= 0).
func NewTracer(keep int) *Tracer {
	if keep <= 0 {
		keep = 16
	}
	return &Tracer{keep: keep, ring: make([]*Span, keep)}
}

// Start opens a root span. Nil-tracer safe.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	r := new(rootSpan) // set field by field: a composite literal is built, then copied
	r.tr, r.Name, r.start = t, name, time.Now()
	r.Span.tags, r.Span.children, r.Span.root = r.tags[:0], r.kids[:0], r
	return &r.Span
}

// rootSpan is a root with room for the few tags and children a
// statement gives it and for its first children themselves, so opening
// a statement's spans takes one allocation, not two more per child.
type rootSpan struct {
	Span
	tags  [4]spanTag
	kids  [3]*Span
	spare [1]Span // handed out to the tree's first child, at any depth: "exec" on a cache hit
	used  int
}

// newSpan is a zero span for the tree under s: one of the root's spares
// while they last.
func (s *Span) newSpan() *Span {
	if r := s.root; r != nil && r.used < len(r.spare) {
		r.used++
		return &r.spare[r.used-1]
	}
	return new(Span)
}

// record files a finished root span. Called from Span.Finish.
func (t *Tracer) record(s *Span) {
	t.mu.Lock()
	t.ring[t.next] = s
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.mu.Unlock()
}

// last returns the newest min(k, retained) roots, oldest first.
func (t *Tracer) last(k int) []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	k = min(k, t.n)
	out := make([]*Span, k)
	for i := range out {
		out[i] = t.ring[(t.next-k+i+len(t.ring))%len(t.ring)]
	}
	return out
}

// EnableExport makes Exports return the last keep finished root spans
// (default 64 when keep <= 0), growing the ring to hold them. Nil-tracer
// safe.
func (t *Tracer) EnableExport(keep int) {
	if t == nil {
		return
	}
	if keep <= 0 {
		keep = 64
	}
	held := t.last(len(t.ring))
	t.mu.Lock()
	t.expCap = keep
	t.ring = make([]*Span, max(t.keep, keep))
	t.n = copy(t.ring, held[max(0, len(held)-len(t.ring)):])
	t.next = t.n % len(t.ring)
	t.mu.Unlock()
}

// Exports returns the retained root spans as SpanExport trees, oldest
// first (nil when export is disabled or nothing finished yet). The
// copies are built here, on the reader's time.
func (t *Tracer) Exports() []SpanExport {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	k := t.expCap
	t.mu.Unlock()
	roots := t.last(k)
	if len(roots) == 0 {
		return nil
	}
	out := make([]SpanExport, len(roots))
	for i, s := range roots {
		out[i] = s.Export()
	}
	return out
}

// Last returns the most recently finished root span (nil when none).
func (t *Tracer) Last() *Span {
	if t == nil {
		return nil
	}
	if l := t.last(1); len(l) == 1 {
		return l[0]
	}
	return nil
}

// Roots returns the retained root spans, oldest first.
func (t *Tracer) Roots() []*Span {
	if t == nil {
		return nil
	}
	return t.last(t.keep)
}

// Span is one timed region with tags and child spans. Spans are built
// by one goroutine at a time (the query path is sequential per query);
// the tracer's ring is what synchronizes cross-goroutine access, and a
// span is published there only after Finish — from then on nothing
// writes to it or to its children. All methods are no-ops on a nil
// receiver.
type Span struct {
	tr   *Tracer
	Name string

	start    time.Time
	dur      time.Duration
	parent   *Span
	root     *rootSpan // nil for a span of no tracer's tree
	children []*Span
	tags     []spanTag
	finishes int32
}

type spanTag struct{ k, v string }

// Child opens a sub-span. Nil-safe: a nil parent yields a nil child.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.ChildAt(name, time.Now())
}

// ChildAt is Child for a caller that has already read the clock: the
// sub-span starts at start. Nil-safe.
func (s *Span) ChildAt(name string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	c := s.newSpan()
	c.Name, c.start, c.parent, c.root = name, start, s, s.root
	s.children = append(s.children, c)
	return c
}

// Graft attaches an already-measured child span with an explicit
// duration — the hook for timings collected outside the span API, such
// as per-operator executor profiles. The child is created finished
// (Finish on it is unnecessary and would count as a double close);
// further Graft calls on the returned span build a subtree. Nil-safe.
func (s *Span) Graft(name string, d time.Duration) *Span {
	if s == nil {
		return nil
	}
	c := s.newSpan()
	c.Name, c.parent, c.root, c.dur, c.finishes = name, s, s.root, d, 1
	s.children = append(s.children, c)
	return c
}

// SetTag attaches a key/value annotation.
func (s *Span) SetTag(k, v string) {
	if s != nil {
		s.tags = append(s.tags, spanTag{k, v})
	}
}

// SetTagf attaches a formatted annotation.
func (s *Span) SetTagf(k, format string, args ...any) {
	if s != nil {
		s.tags = append(s.tags, spanTag{k, fmt.Sprintf(format, args...)})
	}
}

// Finish closes the span, recording its duration. Finishing a root span
// files it with its tracer. Each Finish call is counted so tests can
// assert spans close exactly once (see Finishes).
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.FinishAfter(time.Since(s.start))
}

// FinishAfter is Finish for a caller that has already measured the
// span's duration d.
func (s *Span) FinishAfter(d time.Duration) {
	if s == nil {
		return
	}
	s.finishes++
	s.dur = d
	if s.parent == nil && s.tr != nil {
		s.tr.record(s)
	}
}

// Duration reports the span's measured duration (0 until Finish).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return s.dur
}

// Finishes reports how many times Finish has run on this span (grafted
// spans are born with 1). Anything other than 1 on a published span is
// a lifecycle bug.
func (s *Span) Finishes() int {
	if s == nil {
		return 0
	}
	return int(s.finishes)
}

// Children returns the span's direct child spans in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	return s.children
}

// SpanExport is an immutable, JSON-ready snapshot of a finished span
// tree. Durations are nanoseconds; tags are flattened to a map (last
// write wins on duplicate keys, matching Dump's sorted rendering).
type SpanExport struct {
	Name       string            `json:"name"`
	DurationNs int64             `json:"duration_ns"`
	Tags       map[string]string `json:"tags,omitempty"`
	Children   []SpanExport      `json:"children,omitempty"`
}

// Export freezes the span tree into a SpanExport. Call it only on
// finished spans (Tracer.Exports does, for the roots it retains).
// Nil-safe.
func (s *Span) Export() SpanExport {
	if s == nil {
		return SpanExport{}
	}
	e := SpanExport{Name: s.Name, DurationNs: s.dur.Nanoseconds()}
	if len(s.tags) > 0 {
		e.Tags = make(map[string]string, len(s.tags))
		for _, t := range s.tags {
			e.Tags[t.k] = t.v
		}
	}
	for _, c := range s.children {
		e.Children = append(e.Children, c.Export())
	}
	return e
}

// Dump renders the span tree as indented text, one span per line:
//
//	query 412µs {stmt=SELECT}
//	  parse 18µs
//	  plan 33µs {nodes=4 depth=3}
//	  exec 344µs
func (s *Span) Dump() string {
	if s == nil {
		return "(no trace)\n"
	}
	var sb strings.Builder
	s.dump(&sb, 0)
	return sb.String()
}

func (s *Span) dump(sb *strings.Builder, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	sb.WriteString(s.Name)
	sb.WriteByte(' ')
	sb.WriteString(s.dur.Round(time.Microsecond).String())
	if len(s.tags) > 0 {
		tags := make([]string, len(s.tags))
		for i, t := range s.tags {
			tags[i] = t.k + "=" + t.v
		}
		sort.Strings(tags)
		sb.WriteString(" {" + strings.Join(tags, " ") + "}")
	}
	sb.WriteByte('\n')
	for _, c := range s.children {
		c.dump(sb, depth+1)
	}
}

// Package explain holds per-query execution traces. A Trace is a
// thread-safe span tree the SPARQL engine fills in while evaluating one
// query (sparql.Options.Trace): a "parse" span, one "plan" span per reordered pattern group, and an
// "execute" span whose children are the per-pattern join stages — each
// carrying the strategy the executor picked (id-merge, id-probe, id-cross,
// hash, paged-scan), the rows entering and leaving the stage, and for the
// paged streaming driver the number of store pages scanned. The HTTP layer
// serves the tree on POST /sparql?explain=1 and summarizes it in the
// slow-query log.
package explain

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"
)

// maxTraceSpans bounds one trace's size: a query fanning OPTIONAL groups
// across thousands of bindings must not serialize thousands of spans.
// Further spans are counted in Trace.Dropped instead of recorded.
const maxTraceSpans = 512

// Span is one node of an execution trace.
type Span struct {
	// Name classifies the stage: "query", "parse", "plan", "execute",
	// "pattern".
	Name string `json:"name"`
	// Detail is the stage's subject — for pattern spans, the triple pattern
	// text; for plan spans, the join order chosen.
	Detail string `json:"detail,omitempty"`
	// Strategy is how a pattern span was executed: "id-merge", "id-probe",
	// "id-cross", "id-empty", or "paged-scan".
	Strategy string `json:"strategy,omitempty"`
	// RowsIn and RowsOut count the solution rows entering and leaving the
	// stage.
	RowsIn  int `json:"rowsIn,omitempty"`
	RowsOut int `json:"rowsOut,omitempty"`
	// Pages counts store pages a paged scan pulled (streaming driver only).
	Pages int `json:"pages,omitempty"`
	// DurationMicros is the stage's wall time in microseconds.
	DurationMicros int64 `json:"durationMicros"`
	// Children are sub-stages, in completion order.
	Children []*Span `json:"children,omitempty"`
}

// Trace is one query's span tree. Safe for concurrent Add calls — parallel
// pattern evaluation records spans from worker goroutines.
type Trace struct {
	mu      sync.Mutex
	root    *Span
	n       int
	dropped int
	start   time.Time
}

// NewTrace starts a trace; the root "query" span's duration runs until
// Finish.
func NewTrace() *Trace {
	return &Trace{root: &Span{Name: "query"}, start: time.Now()}
}

// Add attaches a new span under parent (nil = the root) and returns it. The
// caller fills the span's fields afterward; once the per-trace span budget
// is spent, Add counts the span as dropped and returns nil (safe: callers
// write fields through nilable pointers only when non-nil).
func (t *Trace) Add(parent *Span, name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n >= maxTraceSpans {
		t.dropped++
		return nil
	}
	t.n++
	s := &Span{Name: name}
	if parent == nil {
		parent = t.root
	}
	parent.Children = append(parent.Children, s)
	return s
}

// Set fills a span's measurements; a nil span (trace disabled or budget
// spent) is a no-op.
func (s *Span) Set(detail, strategy string, rowsIn, rowsOut int, start time.Time) {
	if s == nil {
		return
	}
	s.Detail = detail
	s.Strategy = strategy
	s.RowsIn = rowsIn
	s.RowsOut = rowsOut
	if !start.IsZero() {
		s.DurationMicros = time.Since(start).Microseconds()
	}
}

// SetPages records a paged scan's page count; a nil span is a no-op.
func (s *Span) SetPages(n int) {
	if s != nil {
		s.Pages = n
	}
}

// Finish closes the root span's duration.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.root.DurationMicros = time.Since(t.start).Microseconds()
}

// traceJSON is the wire shape of a trace.
type traceJSON struct {
	Root    *Span `json:"root"`
	Dropped int   `json:"droppedSpans,omitempty"`
}

// MarshalJSON renders the trace as {"root": <span tree>} with HTML escaping
// off — pattern details are full of IRI angle brackets and must stay
// readable.
func (t *Trace) MarshalJSON() ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(traceJSON{Root: t.root, Dropped: t.dropped}); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

// Root returns the root span (for tests and summaries). The tree must not
// be mutated while the query is still evaluating.
func (t *Trace) Root() *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.root
}

// ZeroDurations clears every span's duration, making traces comparable in
// golden tests.
func (t *Trace) ZeroDurations() {
	t.mu.Lock()
	defer t.mu.Unlock()
	zeroDur(t.root)
}

func zeroDur(s *Span) {
	s.DurationMicros = 0
	for _, c := range s.Children {
		zeroDur(c)
	}
}

// Summary renders one compact line per pattern span — what the slow-query
// log records: "pattern[?s <p> ?o] id-merge 120->45" joined by "; ".
func (t *Trace) Summary() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var parts []string
	var walk func(s *Span)
	walk = func(s *Span) {
		if s.Name == "pattern" {
			parts = append(parts, fmt.Sprintf("pattern[%s] %s %d->%d", s.Detail, s.Strategy, s.RowsIn, s.RowsOut))
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(t.root)
	if t.dropped > 0 {
		parts = append(parts, fmt.Sprintf("(+%d spans dropped)", t.dropped))
	}
	return strings.Join(parts, "; ")
}

package main

import (
	"sort"
	"time"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
	"github.com/lodviz/lodviz/internal/wal"
)

// span is one call into a layer, as the benchmark saw it from outside.
type span struct {
	Name  string `json:"name"` // <layer>.<operation>
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Parent is the index of the span that caused this one, -1 for the root
	// span of a request.
	Parent int `json:"parent"`
	Req    int `json:"req"`
	// Callback is the part of the span spent in the caller's callbacks (the
	// fn of a ForEach*). It is the caller's time, not the span's.
	Callback int64 `json:"callback_ns,omitempty"`
}

// tracer keeps the spans of a replay in memory. A nil tracer records nothing,
// which is how the untraced pass of the replay runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // the stack of spans begun and not yet ended
	req   int
	// clock is what reading the clock costs. An interval measured around a
	// callback of a few nanoseconds is mostly this, so it is taken off.
	clock time.Duration
}

func newTracer() *tracer {
	const reads = 1000
	start := time.Now()
	for i := 0; i < reads; i++ {
		_ = time.Since(start)
	}
	return &tracer{clock: time.Since(start) / reads, t0: time.Now(), req: -1}
}

// begin opens a span under the innermost open one. The replay runs on one
// goroutine, so the innermost open span is the caller.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	} else {
		t.req++
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: t.req})
	t.open = append(t.open, id)
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns, for each span, its duration minus the part of it that
// its child spans cover, with callback time moved from a span to its parent.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, upto := int64(0), s.Start
		for _, k := range kids {
			from, to := max(spans[k].Start, upto), min(spans[k].End, s.End)
			if to > from {
				covered += to - from
				upto = to
			}
		}
		self[i] += s.End - s.Start - covered - s.Callback
		if s.Parent >= 0 {
			self[s.Parent] += s.Callback
		}
	}
	return self
}

// selfByName sums self time, in nanoseconds, and counts spans by name.
func selfByName(spans []span) (ns map[string]int64, n map[string]int) {
	ns, n = map[string]int64{}, map[string]int{}
	for i, self := range selfTimes(spans) {
		ns[spans[i].Name] += self
		n[spans[i].Name]++
	}
	return ns, n
}

// tracedSource is the store as the query and exploration layers see it
// (sparql.IDSource, sparql.UpdateStore, explore.Source), with a span around
// every scan, decode and write, so that they show up as children of
// whichever layer called them.
type tracedSource struct {
	*store.Store
	t *tracer
}

// callbackSample is how many calls of a scan callback go by for each one
// that is timed: a scan makes a call per triple, and two clock readings
// around every one would cost more than the work between them.
const callbackSample = 16

// timed wraps a scan callback so that the time spent in it is charged back
// to the caller: one call in callbackSample is timed and counted that many
// times over. The store holds its read lock across fn and forbids fn to scan
// again, so no span begins inside a callback.
func timed[T any](t *tracer, id int, fn func(T) bool) func(T) bool {
	if t == nil {
		return fn
	}
	calls := 0
	return func(v T) bool {
		calls++
		if calls%callbackSample != 0 {
			return fn(v)
		}
		start := time.Now()
		ok := fn(v)
		t.spans[id].Callback += callbackSample * int64(max(0, time.Since(start)-t.clock))
		return ok
	}
}

func (s tracedSource) ScanIDs(sub, p, o store.ID, lead store.Position) (store.IDRun, bool) {
	id := s.t.begin("store.scan")
	defer s.t.end(id)
	return s.Store.ScanIDs(sub, p, o, lead)
}

func (s tracedSource) ForEachID(sub, p, o store.ID, fn func(store.IDTriple) bool) {
	id := s.t.begin("store.scan")
	defer s.t.end(id)
	s.Store.ForEachID(sub, p, o, timed(s.t, id, fn))
}

func (s tracedSource) ForEachIDPage(sub, p, o store.ID, pos, n int, fn func(store.IDTriple) bool) (int, bool) {
	id := s.t.begin("store.scan")
	defer s.t.end(id)
	return s.Store.ForEachIDPage(sub, p, o, pos, n, timed(s.t, id, fn))
}

func (s tracedSource) ForEach(pat store.Pattern, fn func(rdf.Triple) bool) {
	id := s.t.begin("store.scan")
	defer s.t.end(id)
	s.Store.ForEach(pat, timed(s.t, id, fn))
}

func (s tracedSource) ForEachPage(pat store.Pattern, pos, n int, fn func(rdf.Triple) bool) (int, bool) {
	id := s.t.begin("store.scan")
	defer s.t.end(id)
	return s.Store.ForEachPage(pat, pos, n, timed(s.t, id, fn))
}

func (s tracedSource) ComputeStats() store.Stats {
	id := s.t.begin("store.scan")
	defer s.t.end(id)
	return s.Store.ComputeStats()
}

func (s tracedSource) Terms(ids []store.ID) []rdf.Term {
	id := s.t.begin("store.decode")
	defer s.t.end(id)
	return s.Store.Terms(ids)
}

func (s tracedSource) AddBatch(ts []rdf.Triple) (int, error) {
	id := s.t.begin("store.apply")
	defer s.t.end(id)
	return s.Store.AddBatch(ts)
}

func (s tracedSource) DeleteBatch(ts []rdf.Triple) (int, error) {
	id := s.t.begin("store.apply")
	defer s.t.end(id)
	return s.Store.DeleteBatch(ts)
}

// tracedWAL is the log as the store sees it (store.WALSink): appends and
// the wait for durability become children of the store.apply that made them.
type tracedWAL struct {
	log *wal.Log
	t   *tracer
}

func (w tracedWAL) AppendAdd(ts []rdf.Triple) (uint64, error) {
	id := w.t.begin("wal.append")
	defer w.t.end(id)
	return w.log.AppendAdd(ts)
}

func (w tracedWAL) AppendDelete(ts []rdf.Triple) (uint64, error) {
	id := w.t.begin("wal.append")
	defer w.t.end(id)
	return w.log.AppendDelete(ts)
}

func (w tracedWAL) Sync(seq uint64) error {
	id := w.t.begin("wal.sync")
	defer w.t.end(id)
	return w.log.Sync(seq)
}

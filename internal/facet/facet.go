// Package facet implements faceted browsing over RDF — the navigation
// paradigm of /facet, gFacet, Humboldt and Explorator (survey §3.1): facets
// are extracted from the dataset's predicates, values carry counts that
// refine as filters are applied conjunctively, and a pivot operation
// re-roots the browsing session on a related entity set.
//
// Since the progressive-exploration refactor the whole computation runs in
// dictionary-ID space over an store.Source: the entity set is a sorted
// []store.ID, filters intersect sorted permutation runs, and distributions
// come from either per-entity ID probes or one merged SPO walk — terms are
// decoded once, at emission. The previous per-entity term-space algorithm is
// preserved as ReferenceFacets for differential tests and benchmarks.
//
// Every session starts from the same base set, the typed subjects, and a
// server does not collect it per request: a TypedBase keeps it across
// requests, following the store's change log like the response cache and
// the hierarchy bases do, and hands every session the one immutable slice.
// Nothing a session reads is written — neither that base nor the store runs
// it intersects, which the store lends rather than copies when it can
// (store.IDRun is read-only) — so concurrent sessions share both freely.
package facet

import (
	"context"
	"slices"
	"sort"

	"github.com/lodviz/lodviz/internal/explore"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/sampling"
	"github.com/lodviz/lodviz/internal/store"
)

// DefaultMaxValues is the server-side default for MaxValuesPerFacet: enough
// values to render a facet widget, far fewer than an unfiltered predicate
// can hold. The package itself defaults to unlimited (0) for API
// compatibility; servers should cap.
const DefaultMaxValues = 25

// Value is one facet value with its count under the current filter.
type Value struct {
	Term  rdf.Term
	Count int
}

// Facet is one filterable dimension (a predicate) with its value
// distribution.
type Facet struct {
	Predicate rdf.IRI
	// Values are sorted by count descending (ties lexicographically).
	Values []Value
	// Total is the number of entities having the predicate.
	Total int
}

// Filter is a conjunctive predicate=value restriction.
type Filter struct {
	Predicate rdf.IRI
	Value     rdf.Term
}

// Session is a faceted-browsing session over a source: a current entity set
// (initially all subjects of rdf:type, or all subjects) plus active filters.
type Session struct {
	src store.Source
	// base is the sorted, distinct dictionary-ID entity set.
	base []store.ID
	// typeID is rdf:type's ID when base is exactly the typed subjects, 0
	// when it is anything else (all subjects, an explicit set).
	typeID store.ID
	// extra holds base terms missing from the dictionary (an explicit
	// NewSessionOver set may mention entities with no statements); they
	// match only while no filter is active, like the old term-space
	// Contains check behaved.
	extra   []rdf.Term
	filters []Filter
	// MaxValuesPerFacet caps the values listed per facet (0 = unlimited).
	MaxValuesPerFacet int
}

// NewSessionCtx starts a session over all entities with an rdf:type; when
// the dataset declares no types, all subjects become the base set. The base
// is collected from the store on every call, and kept by nobody: whoever
// opens sessions repeatedly keeps it in a TypedBase, which collects it the
// same way. The collection scan honors ctx; a cancelled context aborts with
// its error.
func NewSessionCtx(ctx context.Context, src store.Source) (*Session, error) {
	base, typeID, err := collectBase(ctx, src)
	if err != nil {
		return nil, err
	}
	return &Session{src: src, base: base, typeID: typeID}, nil
}

// collectBase is the one collection of a session's base: the typed subjects
// with rdf:type's ID, or, when no subject has a type, all subjects with 0.
func collectBase(ctx context.Context, src store.Source) ([]store.ID, store.ID, error) {
	if typeID, ok := src.LookupTermID(rdf.RDFType); ok {
		base, err := distinctSubjects(ctx, src, typeID)
		if err != nil || len(base) > 0 {
			return base, typeID, err
		}
	}
	base, err := distinctSubjects(ctx, src, 0)
	return base, 0, err
}

// Footprint returns what the session's counts and distributions read under
// its current filters. The entity set is "typed subjects carrying every
// filter pair", and the distributions are over all statements of those
// subjects — store.Footprint's Entities rule, with rdf:type (any class) and
// the filter pairs as masks. The whole store is returned when the base is
// not the typed subjects, or when a filter names a term the dictionary does
// not hold (nothing matches now; a write may change that, under an ID not
// yet assigned).
func (s *Session) Footprint() store.Footprint {
	if s.typeID == 0 {
		return store.Footprint{}
	}
	masks := []store.IDTriple{{P: s.typeID}}
	for _, f := range s.filters {
		pid, okP := s.src.LookupTermID(f.Predicate)
		vid, okV := s.src.LookupTermID(f.Value)
		if !okP || !okV {
			return store.Footprint{}
		}
		masks = append(masks, store.IDTriple{P: pid, O: vid})
	}
	return store.Footprint{Entities: masks}
}

// NewSession is NewSessionCtx without cancellation, for callers with no
// request scope (CLI, tests).
func NewSession(src store.Source) *Session {
	//lint:allow ctxflow compat wrapper: NewSessionCtx is the cancellable form
	s, _ := NewSessionCtx(context.Background(), src)
	return s
}

// NewSessionOver starts a session over an explicit entity set (the pivot
// path). Duplicate entities are collapsed.
func NewSessionOver(src store.Source, entities []rdf.Term) *Session {
	s := &Session{src: src}
	seen := map[store.ID]struct{}{}
	extraSeen := map[rdf.Term]struct{}{}
	for _, e := range entities {
		if id, ok := src.LookupTermID(e); ok {
			if _, dup := seen[id]; !dup {
				seen[id] = struct{}{}
				s.base = append(s.base, id)
			}
			continue
		}
		if _, dup := extraSeen[e]; !dup {
			extraSeen[e] = struct{}{}
			s.extra = append(s.extra, e)
		}
	}
	sort.Slice(s.base, func(i, j int) bool { return s.base[i] < s.base[j] })
	sortTerms(s.extra)
	return s
}

// distinctSubjects returns the ascending distinct subject IDs of statements
// with predicate pid (0 = any). Both the PSO run (pid bound) and the SPO run
// (unbound) yield subjects in ascending order, so deduplication is one
// consecutive comparison per statement. The slice is clipped: sessions share
// it, and an append must copy.
func distinctSubjects(ctx context.Context, src store.Source, pid store.ID) ([]store.ID, error) {
	lead := store.PosS
	if pid == 0 {
		lead = store.PosAny
	}
	run, ok := src.ScanIDs(0, pid, 0, lead)
	if !ok {
		return nil, nil
	}
	var out []store.ID
	var last store.ID
	scanned := 0
	var stop error
	run.ForEachSorted(func(t store.IDTriple) bool {
		if scanned++; scanned%4096 == 0 {
			if err := ctx.Err(); err != nil {
				stop = err
				return false
			}
		}
		if t.S != last || len(out) == 0 {
			out = append(out, t.S)
			last = t.S
		}
		return true
	})
	if stop != nil {
		return nil, stop
	}
	return slices.Clip(out), nil
}

func sortTerms(ts []rdf.Term) {
	sort.Slice(ts, func(i, j int) bool { return rdf.Compare(ts[i], ts[j]) < 0 })
}

// Apply adds a conjunctive filter.
func (s *Session) Apply(f Filter) {
	s.filters = append(s.filters, f)
}

// Remove drops the most recent filter matching the predicate; it reports
// whether one was removed.
func (s *Session) Remove(pred rdf.IRI) bool {
	for i := len(s.filters) - 1; i >= 0; i-- {
		if s.filters[i].Predicate == pred {
			s.filters = append(s.filters[:i], s.filters[i+1:]...)
			return true
		}
	}
	return false
}

// Reset clears all filters.
func (s *Session) Reset() { s.filters = nil }

// Filters returns the active filters.
func (s *Session) Filters() []Filter {
	return append([]Filter(nil), s.filters...)
}

// matchIDs intersects the base set with each filter's subject run: the
// subjects carrying (pred, value) come out of the POS permutation already
// sorted, so every conjunct is one two-pointer merge. A filter term absent
// from the dictionary matches nothing.
func (s *Session) matchIDs(ctx context.Context) ([]store.ID, error) {
	ids := s.base
	for _, f := range s.filters {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pid, okP := s.src.LookupTermID(f.Predicate)
		vid, okV := s.src.LookupTermID(f.Value)
		if !okP || !okV {
			return nil, nil
		}
		run, ok := s.src.ScanIDs(0, pid, vid, store.PosS)
		if !ok {
			return nil, nil
		}
		var next []store.ID
		i := 0
		run.ForEachSorted(func(t store.IDTriple) bool {
			for i < len(ids) && ids[i] < t.S {
				i++
			}
			if i == len(ids) {
				return false
			}
			if ids[i] == t.S {
				next = append(next, t.S)
				i++
			}
			return true
		})
		ids = next
		if len(ids) == 0 {
			break
		}
	}
	return ids, nil
}

// MatchesCtx returns the current entity set under all filters, sorted by
// term order.
func (s *Session) MatchesCtx(ctx context.Context) ([]rdf.Term, error) {
	ids, err := s.matchIDs(ctx)
	if err != nil {
		return nil, err
	}
	out := s.src.Terms(ids)
	if out == nil {
		out = []rdf.Term{}
	}
	if len(s.filters) == 0 {
		out = append(out, s.extra...)
	}
	sortTerms(out)
	return out, nil
}

// Matches returns the current entity set under all filters.
func (s *Session) Matches() []rdf.Term {
	//lint:allow ctxflow compat wrapper: MatchesCtx is the cancellable form
	m, _ := s.MatchesCtx(context.Background())
	return m
}

// CountCtx returns the size of the current entity set.
func (s *Session) CountCtx(ctx context.Context) (int, error) {
	ids, err := s.matchIDs(ctx)
	if err != nil {
		return 0, err
	}
	return s.count(ids), nil
}

// count is the size of the entity set whose dictionary IDs matchIDs
// returned: the explicit terms outside the dictionary match only while no
// filter is active.
func (s *Session) count(matches []store.ID) int {
	if len(s.filters) == 0 {
		return len(matches) + len(s.extra)
	}
	return len(matches)
}

// Count returns the size of the current entity set.
func (s *Session) Count() int {
	//lint:allow ctxflow compat wrapper: CountCtx is the cancellable form
	n, _ := s.CountCtx(context.Background())
	return n
}

// pagg accumulates one predicate's distribution in ID space.
type pagg struct {
	counts map[store.ID]int
	total  int
}

type distribution map[store.ID]*pagg

func (d distribution) get(p store.ID) *pagg {
	a := d[p]
	if a == nil {
		a = &pagg{counts: map[store.ID]int{}}
		d[p] = a
	}
	return a
}

// probeThreshold is how many dataset statements per matched entity it takes
// for probing to win; see probes.
const probeThreshold = 32

// probes is the one probe-or-walk rule, read by FacetsCtx and Stream alike.
// A match set small relative to the dataset (population statements) is
// aggregated by per-entity ID probes, which touch only its own statements:
// the exact answer then costs less than one page of estimates, so Stream
// returns it at once. A larger one is aggregated by a walk over the whole
// store — one merged SPO run with a two-pointer membership test, which beats
// O(matches) index lookups and, in Stream, yields estimates page by page.
func probes(matches, population int) bool {
	return matches*probeThreshold < population
}

// FacetsCtx computes the facet distributions over the current entity set —
// the counts shown beside each facet value, which refine after every click.
func (s *Session) FacetsCtx(ctx context.Context) ([]Facet, error) {
	_, fs, err := s.CountAndFacetsCtx(ctx)
	return fs, err
}

// CountAndFacetsCtx returns what CountCtx and FacetsCtx return, from one
// intersection of the filter runs.
func (s *Session) CountAndFacetsCtx(ctx context.Context) (int, []Facet, error) {
	matches, err := s.matchIDs(ctx)
	if err != nil {
		return 0, nil, err
	}
	return s.exact(ctx, matches, s.src.EstimateCountIDs(0, 0, 0))
}

// exact aggregates the distribution of the match set by the probe-or-walk
// rule and returns the entity count with the assembled facets.
func (s *Session) exact(ctx context.Context, matches []store.ID, population int) (int, []Facet, error) {
	per := distribution{}
	if len(matches) > 0 {
		var err error
		if probes(len(matches), population) {
			err = s.aggregateProbe(ctx, matches, per)
		} else {
			err = s.aggregateWalk(ctx, matches, per, 0, nil)
		}
		if err != nil {
			return 0, nil, err
		}
	}
	return s.count(matches), s.assemble(per), nil
}

// Facets computes the facet distributions over the current entity set.
func (s *Session) Facets() []Facet {
	//lint:allow ctxflow compat wrapper: FacetsCtx is the cancellable form
	f, _ := s.FacetsCtx(context.Background())
	return f
}

// aggregateProbe scans each matched entity's subject-bound run. The per-call
// stream interleaves the sorted base with unsorted delta entries, so the
// predicate-coverage total uses a small per-subject seen set instead of
// ordering assumptions.
func (s *Session) aggregateProbe(ctx context.Context, matches []store.ID, per distribution) error {
	seen := map[store.ID]bool{}
	for i, sid := range matches {
		if i%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		for p := range seen {
			delete(seen, p)
		}
		s.src.ForEachID(sid, 0, 0, func(t store.IDTriple) bool {
			a := per.get(t.P)
			a.counts[t.O]++
			if !seen[t.P] {
				seen[t.P] = true
				a.total++
			}
			return true
		})
	}
	return nil
}

// aggregateWalk merges one globally sorted SPO run against the sorted match
// set: subjects arrive grouped, so membership is a two-pointer advance and
// the coverage total increments exactly on (subject, predicate) group
// transitions — no per-triple term or map-of-sets work at all. It is the one
// walk, behind FacetsCtx and Stream alike. ctx is checked before the first
// statement and after every pageSize statements visited (pageSize <= 0
// selects explore.DefaultPageSize); page, if set, runs at those boundaries
// with the count visited so far, and returning false stops the walk with
// explore.ErrStopped. The run is lent or copied whole before the first
// statement, so page may do anything, writes to the store included.
func (s *Session) aggregateWalk(ctx context.Context, matches []store.ID, per distribution, pageSize int, page func(scanned int) bool) error {
	if pageSize <= 0 {
		pageSize = explore.DefaultPageSize
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	run, ok := s.src.ScanIDs(0, 0, 0, store.PosAny)
	if !ok {
		return nil
	}
	var err error
	mi := 0
	var lastS, lastP store.ID
	first := true
	scanned := 0
	run.ForEachSorted(func(t store.IDTriple) bool {
		for mi < len(matches) && matches[mi] < t.S {
			mi++
		}
		if mi == len(matches) {
			return false
		}
		if matches[mi] == t.S {
			a := per.get(t.P)
			a.counts[t.O]++
			if first || t.S != lastS || t.P != lastP {
				a.total++
			}
			lastS, lastP, first = t.S, t.P, false
		}
		if scanned++; scanned%pageSize != 0 {
			return true
		}
		if err = ctx.Err(); err == nil && page != nil && !page(scanned) {
			err = explore.ErrStopped
		}
		return err == nil
	})
	return err
}

// assemble decodes an ID-space distribution into the public Facet slice:
// one batch Terms call for every predicate and value, then the pinned
// deterministic ordering — values by count descending with rdf.Compare
// tie-breaks (the best MaxValuesPerFacet of them), facets by coverage
// descending with predicate tie-breaks.
func (s *Session) assemble(per distribution) []Facet {
	ids := make([]store.ID, 0, len(per))
	for pid, a := range per {
		ids = append(ids, pid)
		for oid := range a.counts {
			ids = append(ids, oid)
		}
	}
	terms := s.src.Terms(ids)
	decoded := make(map[store.ID]rdf.Term, len(ids))
	for i, id := range ids {
		decoded[id] = terms[i]
	}
	out := make([]Facet, 0, len(per))
	for pid, a := range per {
		p, ok := decoded[pid].(rdf.IRI)
		if !ok {
			continue
		}
		// A numeric facet can hold one value per entity, all tied on count;
		// selecting the cap's worth with a bounded heap keeps the
		// value-parsing rdf.Compare tie-breaks off everything that would be
		// truncated anyway.
		top := sampling.NewTopK(s.MaxValuesPerFacet, func(a, b Value) bool {
			if a.Count != b.Count {
				return a.Count > b.Count
			}
			return rdf.Compare(a.Term, b.Term) < 0
		})
		for oid, c := range a.counts {
			top.Offer(Value{Term: decoded[oid], Count: c})
		}
		out = append(out, Facet{Predicate: p, Total: a.total, Values: top.Sorted()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Predicate < out[j].Predicate
	})
	return out
}

// PivotCtx re-roots the session on the values of a predicate across the
// current matches — Visor/Humboldt's "connect points of interest" operation.
// E.g. from films filtered to comedies, pivot on "director" to browse
// directors. The PSO run delivers (match, object) pairs with one two-pointer
// merge; literal objects are filtered after a single batch decode. The merge
// scan honors ctx; a cancelled context aborts with its error.
func (s *Session) PivotCtx(ctx context.Context, pred rdf.IRI) (*Session, error) {
	next := &Session{src: s.src}
	matches, err := s.matchIDs(ctx)
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return next, nil
	}
	pid, ok := s.src.LookupTermID(pred)
	if !ok {
		return next, nil
	}
	run, ok := s.src.ScanIDs(0, pid, 0, store.PosS)
	if !ok {
		return next, nil
	}
	objSet := map[store.ID]struct{}{}
	var objs []store.ID
	mi := 0
	scanned := 0
	var stop error
	run.ForEachSorted(func(t store.IDTriple) bool {
		if scanned++; scanned%4096 == 0 {
			if err := ctx.Err(); err != nil {
				stop = err
				return false
			}
		}
		for mi < len(matches) && matches[mi] < t.S {
			mi++
		}
		if mi == len(matches) {
			return false
		}
		if matches[mi] != t.S {
			return true
		}
		if _, dup := objSet[t.O]; !dup {
			objSet[t.O] = struct{}{}
			objs = append(objs, t.O)
		}
		return true
	})
	if stop != nil {
		return nil, stop
	}
	terms := s.src.Terms(objs)
	for i, oid := range objs {
		if terms[i] != nil && terms[i].Kind() != rdf.KindLiteral {
			next.base = append(next.base, oid)
		}
	}
	sort.Slice(next.base, func(i, j int) bool { return next.base[i] < next.base[j] })
	return next, nil
}

// Pivot is PivotCtx without cancellation, for callers with no request scope.
func (s *Session) Pivot(pred rdf.IRI) *Session {
	//lint:allow ctxflow compat wrapper: PivotCtx is the cancellable form
	next, err := s.PivotCtx(context.Background(), pred)
	if err != nil {
		return &Session{src: s.src}
	}
	return next
}

package facet

import (
	"context"
	"sort"

	"github.com/lodviz/lodviz/internal/progressive"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// ValueEstimate is one facet value's mid-scan count estimate.
type ValueEstimate struct {
	Term  rdf.Term
	Count progressive.Estimate
}

// FacetEstimate is one predicate's mid-scan distribution estimate.
type FacetEstimate struct {
	Predicate rdf.IRI
	Total     progressive.Estimate
	Values    []ValueEstimate
}

// Batch is one refining approximate answer from Session.Stream, emitted only
// while it walks the store's one sorted run (a selection the probe rule
// leaves to the walk, such as the unfiltered view); a drilled-down selection
// is answered exactly with no Batch at all. Count is exact from the start
// (the match set is an index intersection, cheap to compute upfront); the
// distributions carry CLT-scaled estimates whose intervals shrink as
// Fraction grows, which it only does: the run never restarts.
type Batch struct {
	// Scanned is the number of statements visited so far.
	Scanned int
	// Fraction is Scanned over the dataset size.
	Fraction float64
	// Count is the exact size of the matched entity set.
	Count int
	// Facets are ordered by estimated coverage descending, predicate
	// ascending on ties; within a facet, values by estimated count
	// descending with dictionary-ID tie-breaks (term tie-breaks would
	// need decoding values that never get emitted).
	Facets []FacetEstimate
}

// Stream computes the facet distributions, progressively where that pays.
// The exact match set is intersected upfront. A selection the probe-or-walk
// rule probes is answered at once on FacetsCtx's probe path, with no Batch:
// estimates would cost more than the answer. Otherwise FacetsCtx's walk
// aggregates the distribution, and Stream emits an approximate Batch every
// batchPages pages of pageSize statements. Either way Stream returns the
// exact count and facets — what CountCtx and FacetsCtx return, because both
// run the same aggregation and assembler. The walk reads one store.ScanIDs
// run, taken before the first statement: lent from the index when the store
// holds no tombstones, copied whole before the first Batch when it does. A
// run holds still, so Fraction only grows, and a write made meanwhile — from
// emit, even — is not in the answer. emit returning false aborts with
// explore.ErrStopped. pageSize <= 0 selects explore.DefaultPageSize;
// batchPages < 1 is treated as 1.
func (s *Session) Stream(ctx context.Context, pageSize, batchPages int, emit func(Batch) bool) (int, []Facet, error) {
	if batchPages < 1 {
		batchPages = 1
	}
	matches, err := s.matchIDs(ctx)
	if err != nil {
		return 0, nil, err
	}
	population := s.src.EstimateCountIDs(0, 0, 0)
	if probes(len(matches), population) {
		return s.exact(ctx, matches, population)
	}
	count := s.count(matches)
	per := distribution{}
	pages := 0
	err = s.aggregateWalk(ctx, matches, per, pageSize, func(scanned int) bool {
		pages++
		return pages%batchPages != 0 || emit(s.batch(per, count, scanned, population))
	})
	if err != nil {
		return 0, nil, err
	}
	return count, s.assemble(per), nil
}

// batch freezes the aggregation into an approximate Batch: per-value counts
// are scaled to population estimates, the value list is capped before
// decoding so only emitted terms are ever materialized.
func (s *Session) batch(per distribution, count, scanned, population int) Batch {
	b := Batch{Scanned: scanned, Count: count}
	if population > 0 {
		b.Fraction = float64(scanned) / float64(population)
		if b.Fraction > 1 {
			b.Fraction = 1
		}
	} else {
		b.Fraction = 1
	}
	type valueID struct {
		id store.ID
		n  int
	}
	type facetID struct {
		pid    store.ID
		total  int
		values []valueID
	}
	fs := make([]facetID, 0, len(per))
	for pid, a := range per {
		f := facetID{pid: pid, total: a.total}
		for oid, c := range a.counts {
			f.values = append(f.values, valueID{id: oid, n: c})
		}
		sort.Slice(f.values, func(i, j int) bool {
			if f.values[i].n != f.values[j].n {
				return f.values[i].n > f.values[j].n
			}
			return f.values[i].id < f.values[j].id
		})
		if s.MaxValuesPerFacet > 0 && len(f.values) > s.MaxValuesPerFacet {
			f.values = f.values[:s.MaxValuesPerFacet]
		}
		fs = append(fs, f)
	}
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].total != fs[j].total {
			return fs[i].total > fs[j].total
		}
		return fs[i].pid < fs[j].pid
	})
	ids := make([]store.ID, 0, len(fs)*2)
	for _, f := range fs {
		ids = append(ids, f.pid)
		for _, v := range f.values {
			ids = append(ids, v.id)
		}
	}
	terms := s.src.Terms(ids)
	decoded := make(map[store.ID]rdf.Term, len(ids))
	for i, id := range ids {
		decoded[id] = terms[i]
	}
	for _, f := range fs {
		p, ok := decoded[f.pid].(rdf.IRI)
		if !ok {
			continue
		}
		fe := FacetEstimate{
			Predicate: p,
			Total:     progressive.CountEstimate(f.total, scanned, population),
		}
		for _, v := range f.values {
			fe.Values = append(fe.Values, ValueEstimate{
				Term:  decoded[v.id],
				Count: progressive.CountEstimate(v.n, scanned, population),
			})
		}
		b.Facets = append(b.Facets, fe)
	}
	return b
}

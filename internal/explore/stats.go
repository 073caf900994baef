package explore

import (
	"context"
	"errors"
	"sort"

	"github.com/lodviz/lodviz/internal/progressive"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// ErrStopped reports that the emit callback ended a stream before the exact
// answer was reached.
var ErrStopped = errors.New("explore: stream stopped by consumer")

// DefaultPageSize is how many statements a progressive stream visits
// between context checks and, every so many pages, estimates.
const DefaultPageSize = 1 << 14

// PredEstimate is one predicate's mid-scan summary: a CLT-bounded estimate
// of its statement count plus the distinct subject/object counts observed so
// far (observed counts only ever grow toward the exact value, so they are
// lower bounds, not estimates).
type PredEstimate struct {
	Predicate        rdf.IRI
	Triples          progressive.Estimate
	DistinctSubjects int
	DistinctObjects  int
}

// ClassEstimate is a mid-scan estimate of one rdf:type class's instance
// count.
type ClassEstimate struct {
	Class rdf.Term
	Count progressive.Estimate
}

// StatsBatch is one refining approximate answer from StreamStats. Fraction
// is the share of the dataset scanned; every estimate in the batch carries
// its own 95% interval that shrinks as Fraction approaches 1.
type StatsBatch struct {
	// Scanned is the number of live statements visited so far.
	Scanned int
	// Fraction is Scanned over the dataset size.
	Fraction float64
	// Predicates is ordered by estimated statement count (descending),
	// predicate IRI ascending on ties.
	Predicates []PredEstimate
	// Classes is ordered by estimated instance count (descending), class
	// term ascending on ties.
	Classes []ClassEstimate
}

// statsBatch freezes the tally into an approximate StatsBatch, decoding only
// the predicate and class terms (a handful) via one batch Terms call.
func statsBatch(a *store.StatsAccumulator, src store.Source, population int) StatsBatch {
	var (
		ids    []store.ID // predicates, then classes
		cards  []store.PredCardinality
		counts []int
	)
	a.Predicates(func(p store.ID, c store.PredCardinality) {
		ids = append(ids, p)
		cards = append(cards, c)
	})
	a.Classes(func(c store.ID, n int) {
		ids = append(ids, c)
		counts = append(counts, n)
	})
	terms := src.Terms(ids)

	scanned := a.Triples()
	b := StatsBatch{Scanned: scanned, Fraction: 1}
	if population > 0 {
		b.Fraction = min(1, float64(scanned)/float64(population))
	}
	for i, c := range cards {
		iri, ok := terms[i].(rdf.IRI)
		if !ok {
			continue
		}
		b.Predicates = append(b.Predicates, PredEstimate{
			Predicate:        iri,
			Triples:          progressive.CountEstimate(c.Triples, scanned, population),
			DistinctSubjects: c.DistinctSubjects,
			DistinctObjects:  c.DistinctObjects,
		})
	}
	sort.Slice(b.Predicates, func(i, j int) bool {
		if b.Predicates[i].Triples.Value != b.Predicates[j].Triples.Value {
			return b.Predicates[i].Triples.Value > b.Predicates[j].Triples.Value
		}
		return b.Predicates[i].Predicate < b.Predicates[j].Predicate
	})
	for i, n := range counts {
		b.Classes = append(b.Classes, ClassEstimate{
			Class: terms[len(cards)+i],
			Count: progressive.CountEstimate(n, scanned, population),
		})
	}
	sort.Slice(b.Classes, func(i, j int) bool {
		if b.Classes[i].Count.Value != b.Classes[j].Count.Value {
			return b.Classes[i].Count.Value > b.Classes[j].Count.Value
		}
		return rdf.Compare(b.Classes[i].Class, b.Classes[j].Class) < 0
	})
	return b
}

// StreamStats computes dataset statistics progressively: it reads one
// store.ScanIDs run over the whole store in pages of pageSize statements
// and, every batchPages pages, emits an approximate StatsBatch whose counts
// are CLT-scaled population estimates. When the run is exhausted it returns
// the exact store.Stats assembled from a store.StatsAccumulator, the type
// the store keeps its own tally in, so it equals ComputeStats as of the run.
// The run is taken before the first statement — lent from the index, with
// the tombstones in its range listed beside it — and holds still, so
// Fraction only grows and a write made meanwhile (from emit, even) is not
// counted. ctx is checked before the run is taken
// and at every page boundary; cancellation aborts with the context error,
// emit returning false with ErrStopped. pageSize <= 0 selects
// DefaultPageSize; batchPages < 1 is treated as 1.
func StreamStats(ctx context.Context, src store.Source, pageSize, batchPages int, emit func(StatsBatch) bool) (store.Stats, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	if batchPages < 1 {
		batchPages = 1
	}
	if err := ctx.Err(); err != nil {
		return store.Stats{}, err
	}
	typeID, _ := src.LookupTermID(rdf.RDFType)
	population := src.EstimateCountIDs(0, 0, 0)
	run, _ := src.ScanIDs(0, 0, 0, store.PosAny)
	numTerms := src.NumTerms()
	agg := store.NewStatsAccumulator(typeID)
	// Whether an object is a literal needs its term, so statements are
	// counted a page at a time, with the page's objects decoded in one batch.
	var page []store.IDTriple
	var objs []store.ID
	count := func() {
		objs = objs[:0]
		for _, t := range page {
			objs = append(objs, t.O)
		}
		for i, o := range src.Terms(objs) {
			agg.Add(page[i], o.Kind() == rdf.KindLiteral)
		}
		page = page[:0]
	}
	pages := 0
	var err error
	run.ForEachSorted(func(t store.IDTriple) bool {
		if page = append(page, t); len(page) < pageSize {
			return true
		}
		count()
		if err = ctx.Err(); err != nil {
			return false
		}
		if pages++; pages%batchPages == 0 && !emit(statsBatch(agg, src, population)) {
			err = ErrStopped
		}
		return err == nil
	})
	if err != nil {
		return store.Stats{}, err
	}
	count()
	// Stats resolves only the predicates and classes, a handful of IDs.
	return agg.Stats(numTerms, func(id store.ID) rdf.Term { return src.Terms([]store.ID{id})[0] }), nil
}

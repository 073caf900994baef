package facet

import (
	"context"
	"sort"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// ReferenceFacets is the pre-refactor term-space facet algorithm: filter the
// entity set with per-entity Contains probes, then re-scan every matched
// entity's statements hashing interface-valued terms. It is the differential
// oracle for the ID-space Session.
func ReferenceFacets(st *store.Store, entities []rdf.Term, filters []Filter, maxValues int) []Facet {
	matches := make([]rdf.Term, 0, len(entities))
	for _, e := range entities {
		ok := true
		for _, f := range filters {
			if !st.Contains(rdf.Triple{S: e, P: f.Predicate, O: f.Value}) {
				ok = false
				break
			}
		}
		if ok {
			matches = append(matches, e)
		}
	}
	type agg struct {
		counts map[rdf.Term]int
		total  int
	}
	per := map[rdf.IRI]*agg{}
	for _, e := range matches {
		seenPred := map[rdf.IRI]bool{}
		st.ForEach(store.Pattern{S: e}, func(t rdf.Triple) bool {
			a := per[t.P]
			if a == nil {
				a = &agg{counts: map[rdf.Term]int{}}
				per[t.P] = a
			}
			a.counts[t.O]++
			if !seenPred[t.P] {
				seenPred[t.P] = true
				a.total++
			}
			return true
		})
	}
	out := make([]Facet, 0, len(per))
	for p, a := range per {
		f := Facet{Predicate: p, Total: a.total}
		for term, c := range a.counts {
			f.Values = append(f.Values, Value{Term: term, Count: c})
		}
		sort.Slice(f.Values, func(i, j int) bool {
			if f.Values[i].Count != f.Values[j].Count {
				return f.Values[i].Count > f.Values[j].Count
			}
			return rdf.Compare(f.Values[i].Term, f.Values[j].Term) < 0
		})
		if maxValues > 0 && len(f.Values) > maxValues {
			f.Values = f.Values[:maxValues]
		}
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Predicate < out[j].Predicate
	})
	return out
}

// BaseEntities exposes the session's current base set as terms, so callers
// can hand the same entity set to ReferenceFacets.
func (s *Session) BaseEntities() []rdf.Term {
	out := s.src.Terms(s.base)
	if out == nil {
		out = []rdf.Term{}
	}
	out = append(out, s.extra...)
	sortTerms(out)
	return out
}

// newSession opens a session over every typed entity of src.
func newSession(t testing.TB, src store.Source) *Session {
	t.Helper()
	s, err := NewSessionCtx(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

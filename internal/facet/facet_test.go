package facet

import (
	"context"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
	"github.com/lodviz/lodviz/internal/turtle"
)

const movies = `
@prefix ex: <http://example.org/> .
ex:film1 a ex:Film ; ex:genre "comedy" ; ex:year 1995 ; ex:director ex:allen .
ex:film2 a ex:Film ; ex:genre "comedy" ; ex:year 2001 ; ex:director ex:allen .
ex:film3 a ex:Film ; ex:genre "drama"  ; ex:year 1995 ; ex:director ex:lee .
ex:film4 a ex:Film ; ex:genre "drama"  ; ex:year 2001 ; ex:director ex:kubrick .
ex:film5 a ex:Film ; ex:genre "horror" ; ex:year 2001 ; ex:director ex:lee .
ex:allen a ex:Director ; ex:country "US" .
ex:lee a ex:Director ; ex:country "US" .
ex:kubrick a ex:Director ; ex:country "UK" .
`

func movieStore(t *testing.T) *store.Store {
	t.Helper()
	ts, err := turtle.ParseString(movies)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Load(ts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func ex(s string) rdf.IRI { return rdf.IRI("http://example.org/" + s) }

func count(t *testing.T, s *Session) int {
	t.Helper()
	n, err := s.CountCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func facets(t *testing.T, s *Session) []Facet {
	t.Helper()
	fs, err := s.FacetsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func matches(t *testing.T, s *Session) []rdf.Term {
	t.Helper()
	m, err := s.MatchesCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func pivot(t *testing.T, s *Session, pred rdf.IRI) *Session {
	t.Helper()
	next, err := s.PivotCtx(context.Background(), pred)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

func TestSessionBaseSet(t *testing.T) {
	st := movieStore(t)
	s := newSession(t, st)
	if count(t, s) != 8 { // 5 films + 3 directors have rdf:type
		t.Errorf("base count = %d, want 8", count(t, s))
	}
}

func TestApplyFilterRefinesCounts(t *testing.T) {
	st := movieStore(t)
	s := newSession(t, st)
	s.Apply(Filter{Predicate: rdf.RDFType, Value: ex("Film")})
	if count(t, s) != 5 {
		t.Fatalf("films = %d, want 5", count(t, s))
	}
	s.Apply(Filter{Predicate: ex("genre"), Value: rdf.NewLiteral("comedy")})
	if count(t, s) != 2 {
		t.Errorf("comedies = %d, want 2", count(t, s))
	}
	// Facet counts must reflect the filtered set.
	for _, f := range facets(t, s) {
		if f.Predicate == ex("director") {
			if len(f.Values) != 1 || f.Values[0].Term != ex("allen") || f.Values[0].Count != 2 {
				t.Errorf("director facet under comedy = %+v", f.Values)
			}
		}
	}
}

func TestConjunctiveFilters(t *testing.T) {
	st := movieStore(t)
	s := newSession(t, st)
	s.Apply(Filter{Predicate: ex("genre"), Value: rdf.NewLiteral("drama")})
	s.Apply(Filter{Predicate: ex("year"), Value: rdf.NewTypedLiteral("2001", rdf.XSDInteger)})
	m := matches(t, s)
	if len(m) != 1 || m[0] != ex("film4") {
		t.Errorf("matches = %v, want film4", m)
	}
}

func TestRemoveAndReset(t *testing.T) {
	st := movieStore(t)
	s := newSession(t, st)
	s.Apply(Filter{Predicate: ex("genre"), Value: rdf.NewLiteral("comedy")})
	s.Apply(Filter{Predicate: ex("year"), Value: rdf.NewTypedLiteral("1995", rdf.XSDInteger)})
	if !s.Remove(ex("year")) {
		t.Error("Remove returned false")
	}
	if len(s.Filters()) != 1 {
		t.Errorf("filters = %d", len(s.Filters()))
	}
	if s.Remove(ex("nope")) {
		t.Error("Remove invented a filter")
	}
	s.Reset()
	if len(s.Filters()) != 0 || count(t, s) != 8 {
		t.Error("Reset did not restore base")
	}
}

func TestFacetsSortedByCoverage(t *testing.T) {
	st := movieStore(t)
	s := newSession(t, st)
	fs := facets(t, s)
	if len(fs) == 0 {
		t.Fatal("no facets")
	}
	// rdf:type covers all 8 entities and must come first.
	if fs[0].Predicate != rdf.RDFType || fs[0].Total != 8 {
		t.Errorf("top facet = %+v", fs[0])
	}
	for i := 1; i < len(fs); i++ {
		if fs[i].Total > fs[i-1].Total {
			t.Error("facets not sorted by coverage")
		}
	}
}

func TestMaxValuesPerFacet(t *testing.T) {
	st := movieStore(t)
	s := newSession(t, st)
	s.MaxValuesPerFacet = 1
	for _, f := range facets(t, s) {
		if len(f.Values) > 1 {
			t.Errorf("facet %v has %d values", f.Predicate, len(f.Values))
		}
	}
}

func TestPivot(t *testing.T) {
	st := movieStore(t)
	s := newSession(t, st)
	s.Apply(Filter{Predicate: ex("genre"), Value: rdf.NewLiteral("drama")})
	// Pivot from drama films to their directors.
	directors := pivot(t, s, ex("director"))
	if count(t, directors) != 2 { // lee, kubrick
		t.Fatalf("pivoted count = %d, want 2", count(t, directors))
	}
	// Facets on the pivoted set work.
	directors.Apply(Filter{Predicate: ex("country"), Value: rdf.NewLiteral("UK")})
	m := matches(t, directors)
	if len(m) != 1 || m[0] != ex("kubrick") {
		t.Errorf("UK drama directors = %v", m)
	}
}

func TestPivotSkipsLiterals(t *testing.T) {
	st := movieStore(t)
	s := newSession(t, st)
	genres := pivot(t, s, ex("genre")) // all objects are literals
	if count(t, genres) != 0 {
		t.Errorf("literal pivot count = %d, want 0", count(t, genres))
	}
}

func TestSessionOverEmptyDataset(t *testing.T) {
	st := store.New()
	s := newSession(t, st)
	if count(t, s) != 0 || len(facets(t, s)) != 0 {
		t.Error("empty dataset should have empty session")
	}
}

func TestUntypedDatasetFallsBackToSubjects(t *testing.T) {
	st := store.New()
	st.Add(rdf.T(ex("a"), ex("p"), ex("b")))
	s := newSession(t, st)
	if count(t, s) != 1 {
		t.Errorf("untyped base = %d, want 1 subject", count(t, s))
	}
}

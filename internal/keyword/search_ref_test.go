package keyword

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/sampling"
	"github.com/lodviz/lodviz/internal/store"
)

// searchReference is Search as a plain merge: every document any query
// token holds is scored, by stepping through the tokens' ID orders
// together, and offered to the top-k selector. It reads no impact order,
// so Search must equal it hit for hit, score for score.
func searchReference(idx *Index, query string, limit int) []Hit {
	if limit <= 0 {
		limit = 10
	}
	var lists [][]posting
	var idfs []float64
	n := float64(len(idx.docs))
	for _, tok := range Tokenize(query) {
		if pl := idx.postings[tok]; pl != nil {
			lists = append(lists, pl.byID)
			idfs = append(idfs, math.Log(1+n/float64(len(pl.byID))))
		}
	}
	top := sampling.NewTopK(limit, before)
	for {
		var next *doc
		for _, list := range lists {
			if len(list) > 0 && (next == nil || list[0].doc.id < next.id) {
				next = list[0].doc
			}
		}
		if next == nil {
			break
		}
		score := 0.0
		for i, list := range lists {
			if len(list) > 0 && list[0].doc == next {
				score += float64(list[0].tf) / float64(next.length) * idfs[i]
				lists[i] = list[1:]
			}
		}
		top.Offer(scored{next, score})
	}
	best := top.Sorted()
	if len(best) == 0 {
		return nil
	}
	hits := make([]Hit, len(best))
	for i, s := range best {
		hits[i] = Hit{Entity: s.doc.entity, Score: s.score, Snippet: s.doc.text}
	}
	return hits
}

// checkOrders reports a token whose impact order is not its ID order's
// postings sorted by impactOrder.
func checkOrders(idx *Index) error {
	for tok, pl := range idx.postings {
		want := slices.Clone(pl.byID)
		slices.SortFunc(want, impactOrder)
		if !slices.Equal(pl.byImpact, want) {
			return fmt.Errorf("token %q: impact order %v, want %v", tok, pl.byImpact, want)
		}
	}
	return nil
}

// fuzzWords is the vocabulary of FuzzSearch's literals: with four words
// and two of them a literal, most documents share most tokens.
var fuzzWords = []string{"red", "green", "blue", "gold"}

// fuzzQueries covers one common token, pairs in both orders (a score is a
// float sum in query-token order), a repeated token, a local name beside a
// common word, and a token nothing holds.
var fuzzQueries = []string{
	"red", "gold", "red green", "green red", "red red", "red green blue gold",
	"s3", "s3 red", "red s3", "s11 gold blue", "teal",
}

// fuzzTriples reads data two bytes a statement: the first picks one of 16
// subjects (every fourth a blank node), the second a predicate and a
// literal of two words. Every literal has the same length, so documents
// with the same number of statements tie on impact.
func fuzzTriples(data []byte) []rdf.Triple {
	var ts []rdf.Triple
	for ; len(data) >= 2; data = data[2:] {
		var s rdf.Term = ex(fmt.Sprintf("s%d", data[0]%16))
		if data[0]%4 == 0 {
			s = rdf.BlankNode(fmt.Sprintf("b%d", data[0]%16))
		}
		w := data[1]
		lit := fuzzWords[w%4] + " " + fuzzWords[w/4%4]
		ts = append(ts, rdf.T(s, ex(fmt.Sprintf("p%d", w/16%3)), rdf.NewLiteral(lit)))
	}
	return ts
}

// FuzzSearch holds Search to searchReference on an index built from the
// fuzz input, and on one that followed the input's second half as a write
// (re-indexing the subjects it touched), which must also equal a fresh
// build.
func FuzzSearch(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 3, 0, 4, 0, 5, 5})
	f.Add([]byte{0, 1, 1, 1, 2, 1, 3, 1, 5, 2, 6, 2, 7, 7, 8, 16, 9, 17, 10, 33})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ts := fuzzTriples(data)
		half := len(ts) / 2
		st := store.New()
		st.AddAll(ts[:half])
		maintained := BuildIndex(st)
		st.AddAll(ts[half:])
		var touched []store.ID
		for _, tr := range ts[half:] {
			id, _ := st.LookupTermID(tr.S)
			touched = append(touched, id)
		}
		slices.Sort(touched)
		maintained.reindex(st, slices.Compact(touched))
		fresh := BuildIndex(st)
		for _, idx := range []*Index{fresh, maintained} {
			if err := checkOrders(idx); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range fuzzQueries {
			for _, limit := range []int{1, 3, 10, 100} {
				got, want := fresh.Search(q, limit), searchReference(fresh, q, limit)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Search(%q, %d)\ngot  %+v\nwant %+v", q, limit, got, want)
				}
				if kept := maintained.Search(q, limit); !reflect.DeepEqual(kept, want) {
					t.Fatalf("maintained Search(%q, %d)\ngot  %+v\nwant %+v", q, limit, kept, want)
				}
			}
		}
	})
}

// TestWalkImpactTieRules pins the walk's tie rules, which a TF-IDF corpus
// rarely reaches: an entry that ties the worst kept and sorts before it
// displaces it, and one that ties and sorts after it ends its group.
func TestWalkImpactTieRules(t *testing.T) {
	mk := func(name string) *doc { return &doc{entity: ex(name), length: 2} }
	a, b, c := mk("a"), mk("b"), mk("c")
	top := sampling.NewTopK(1, before)
	top.Offer(scored{b, 0.5})
	lists := []*postingList{{byImpact: []posting{{a, 1, 1}, {c, 3, 1}}}}
	if read := walkImpact(lists, []float64{1}, 0, top); read != 3 {
		t.Errorf("read %d postings, want 3 (a, c, and one probe past c's group)", read)
	}
	if got := top.Sorted(); len(got) != 1 || got[0].doc != a {
		t.Errorf("kept %v, want a, which ties b and sorts first", got)
	}
}

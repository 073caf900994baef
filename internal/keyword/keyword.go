// Package keyword implements the keyword-search capability of Table 2
// (VisiNav, RDF graph visualizer, Gephi, ...): an inverted index over the
// literals and local names of a dataset, with TF-IDF ranking and prefix
// completion — the "find a starting node" primitive of node-centric WoD
// exploration.
//
// The index holds one document per subject: the humanized local name of an
// IRI subject followed by the lexical forms of its literal objects in
// (predicate ID, object ID) order. That order is a function of the
// subject's live statements alone, so a document indexed while following
// the store's change log (Lazy) is byte-equal to the one a fresh BuildIndex
// would produce, and so are the scores and snippets Search returns.
// Documents and postings are keyed by the subject's store.ID; terms are
// decoded once per document, when it is (re)indexed.
package keyword

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"
	"unicode"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/sampling"
	"github.com/lodviz/lodviz/internal/store"
)

// Hit is one search result.
type Hit struct {
	// Entity is the matched resource.
	Entity rdf.Term
	// Score is the TF-IDF relevance.
	Score float64
	// Snippet is the text that matched.
	Snippet string
}

// Index is an inverted index from tokens to entities. It is not safe for
// concurrent use on its own; Lazy adds the locking.
type Index struct {
	// docs holds the live documents; its size is the N of the IDF term.
	docs map[store.ID]*doc
	// postings maps a token to the documents containing it, ascending by
	// subject ID. A token's entry is dropped with its last posting, so the
	// key set is exactly the live vocabulary Complete enumerates.
	postings map[string][]posting
}

type doc struct {
	id     store.ID
	entity rdf.Term
	text   string
	length int // token count
}

type posting struct {
	doc *doc
	tf  int
}

// BuildIndex indexes every subject of the store: its literal objects plus,
// for an IRI subject, its local name. The store's read lock is held only
// while the statements are copied out, not while they are tokenized.
func BuildIndex(st *store.Store) *Index {
	idx := &Index{docs: map[store.ID]*doc{}, postings: map[string][]posting{}}
	// Literals recur across subjects (categories, units, small numbers):
	// each distinct one is tokenized once per build.
	idx.addAll(st, st.Statements(), map[store.ID][]string{})
	return idx
}

// reindex replaces the documents of the given subjects with ones built from
// the statements the store holds for them now; a subject left without
// statements leaves the index.
func (idx *Index) reindex(st *store.Store, subjects []store.ID) {
	for _, s := range subjects {
		idx.remove(s)
	}
	idx.addAll(st, st.Statements(subjects...), nil)
}

// addAll indexes the subjects of stmts, which store.Statements sorted by
// (S, P, O): one run per subject, and within it the canonical order of the
// document's text.
func (idx *Index) addAll(st *store.Store, stmts []store.IDTriple, tokens map[store.ID][]string) {
	for len(stmts) > 0 {
		n := 1
		for n < len(stmts) && stmts[n].S == stmts[0].S {
			n++
		}
		idx.add(st, stmts[:n], tokens)
		stmts = stmts[n:]
	}
}

// add indexes one subject from its statements, in (P, O) order. The subject
// must not be indexed already. tokens, when non-nil, caches the tokens of
// literal objects across calls. A blank-node subject without literals has
// no text and gets no document.
func (idx *Index) add(st *store.Store, stmts []store.IDTriple, tokens map[store.ID][]string) {
	ids := make([]store.ID, 1, 1+len(stmts))
	ids[0] = stmts[0].S
	for _, t := range stmts {
		ids = append(ids, t.O)
	}
	terms := st.Terms(ids)
	d := &doc{id: ids[0], entity: terms[0]}
	var text strings.Builder
	var toks []string
	part := func(s string, ts []string) {
		if s != "" && text.Len() > 0 {
			text.WriteByte(' ')
		}
		text.WriteString(s)
		toks = append(toks, ts...)
	}
	textual := false
	if iri, ok := d.entity.(rdf.IRI); ok {
		textual = true
		name := humanize(iri.LocalName())
		part(name, Tokenize(name))
	}
	for i, t := range terms[1:] {
		l, ok := t.(rdf.Literal)
		if !ok {
			continue
		}
		textual = true
		ts, cached := tokens[ids[1+i]]
		if !cached {
			ts = Tokenize(l.Lexical)
			if tokens != nil {
				tokens[ids[1+i]] = ts
			}
		}
		part(l.Lexical, ts)
	}
	if !textual {
		return
	}
	d.text, d.length = text.String(), len(toks)
	idx.docs[d.id] = d
	sort.Strings(toks)
	for len(toks) > 0 {
		tf := 1
		for tf < len(toks) && toks[tf] == toks[0] {
			tf++
		}
		idx.postings[toks[0]] = insertPosting(idx.postings[toks[0]], posting{d, tf})
		toks = toks[tf:]
	}
}

// remove drops the document of subject s, if there is one, and its
// postings. The document's text tokenizes to exactly the tokens it was
// indexed under (parts are joined by a separator), so no per-document token
// list is kept.
func (idx *Index) remove(s store.ID) {
	d := idx.docs[s]
	if d == nil {
		return
	}
	delete(idx.docs, s)
	for _, tok := range Tokenize(d.text) {
		list := idx.postings[tok]
		i, found := findPosting(list, s)
		if !found {
			continue // a repeated token, already removed
		}
		if len(list) == 1 {
			delete(idx.postings, tok)
		} else {
			idx.postings[tok] = slices.Delete(list, i, i+1)
		}
	}
}

func findPosting(list []posting, s store.ID) (int, bool) {
	return slices.BinarySearchFunc(list, s, func(p posting, s store.ID) int { return cmp.Compare(p.doc.id, s) })
}

// insertPosting keeps list ascending by subject ID. A full build adds
// subjects in ascending order, so it always takes the append path.
func insertPosting(list []posting, p posting) []posting {
	if n := len(list); n == 0 || list[n-1].doc.id < p.doc.id {
		return append(list, p)
	}
	i, _ := findPosting(list, p.doc.id)
	return slices.Insert(list, i, p)
}

// humanize splits camelCase and underscores into words.
func humanize(s string) string {
	var b strings.Builder
	for i, r := range s {
		if i > 0 && unicode.IsUpper(r) {
			b.WriteByte(' ')
		}
		if r == '_' || r == '-' {
			b.WriteByte(' ')
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

// Len returns the number of indexed entities.
func (idx *Index) Len() int { return len(idx.docs) }

// Tokenize lowercases and splits text on non-alphanumeric runes.
func Tokenize(text string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, strings.ToLower(cur.String()))
			cur.Reset()
		}
	}
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			cur.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return out
}

// Search ranks entities by TF-IDF over the query tokens, returning at most
// limit hits: score descending, ties by rdf.Compare on the entity.
func (idx *Index) Search(query string, limit int) []Hit {
	if limit <= 0 {
		limit = 10
	}
	// One cursor per query token (a repeated token counts twice, as it
	// would in a document) over posting lists that share one subject order:
	// merging them scores each matching document once, with no score table.
	var lists [][]posting
	var idfs []float64
	n := float64(len(idx.docs))
	for _, tok := range Tokenize(query) {
		if list := idx.postings[tok]; len(list) > 0 {
			lists = append(lists, list)
			idfs = append(idfs, math.Log(1+n/float64(len(list))))
		}
	}
	type scored struct {
		doc   *doc
		score float64
	}
	// A common token matches most of the dataset; only limit of the matches
	// are wanted, so the rest never reach a sort or become a Hit.
	top := sampling.NewTopK(limit, func(a, b scored) bool {
		if a.score != b.score {
			return a.score > b.score
		}
		return rdf.Compare(a.doc.entity, b.doc.entity) < 0
	})
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

// Complete returns up to limit indexed tokens beginning with prefix — the
// type-ahead primitive.
func (idx *Index) Complete(prefix string, limit int) []string {
	if limit <= 0 {
		limit = 10
	}
	prefix = strings.ToLower(prefix)
	var out []string
	for tok := range idx.postings {
		if strings.HasPrefix(tok, prefix) {
			out = append(out, tok)
		}
	}
	sort.Strings(out)
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

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
//
// Each token keeps its postings in two orders. The ID order lets Search
// merge the query tokens' lists, scoring each document once, and lets a
// removal find a document. The impact order (tf/length descending, ties by
// rdf.Compare on the entity) ranks the documents that hold no other query
// token exactly as Search ranks its hits, so Search walks the longest list
// in that order and stops once the limit kept so far cannot be beaten.
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
	// postings maps a token to the documents containing it. A token's entry
	// is dropped with its last posting, so the key set is exactly the live
	// vocabulary Complete enumerates.
	postings map[string]*postingList
}

// postingList holds one token's postings in both of the orders Search
// reads: byID ascending by subject ID, byImpact in impactOrder.
type postingList struct {
	byID, byImpact []posting
}

type doc struct {
	id store.ID
	// rank is the document's position by rdf.Compare among those one
	// BuildIndex indexed: the tie-break sortImpacts sorts by. A document
	// added later has none, and is placed by comparing entities instead.
	rank   int32
	entity rdf.Term
	text   string
	length int // token count
}

// posting is one document holding a token tf times. It repeats the
// document's ID so that galloping and bisecting a list by ID never leave it.
type posting struct {
	doc *doc
	id  store.ID
	tf  int32
}

// impact is the posting's share of its document, and the score the document
// gets from the token alone divided by the token's IDF.
func (p posting) impact() float64 { return float64(p.tf) / float64(p.doc.length) }

// impactOrder is the order of postingList.byImpact: impact descending, ties
// by rdf.Compare on the entity.
func impactOrder(a, b posting) int {
	if c := cmp.Compare(b.impact(), a.impact()); c != 0 {
		return c
	}
	return rdf.Compare(a.doc.entity, b.doc.entity)
}

// BuildIndex indexes every subject of the store: its literal objects plus,
// for an IRI subject, its local name. The store's read lock is held only
// while the statements are copied out, not while they are tokenized.
func BuildIndex(st *store.Store) *Index {
	idx := &Index{docs: map[store.ID]*doc{}, postings: map[string]*postingList{}}
	idx.addAll(st, st.Statements(), &build{tokens: map[store.ID][]string{}})
	idx.sortImpacts()
	return idx
}

// build is what BuildIndex shares across the subjects it adds.
type build struct {
	// tokens holds the tokens of each literal object seen so far: literals
	// recur across subjects (categories, units, small numbers), and each
	// distinct one is tokenized once per build.
	tokens map[store.ID][]string
}

// sortImpacts fills every token's impact order from its ID order. The
// documents are ranked by rdf.Compare once, so sorting a list compares
// impacts and ranks, never entities. The orders are cut from one allocation,
// each capped at its own length so that an insert copies it out; the part it
// leaves keeps its postings, and their documents, until the next build.
func (idx *Index) sortImpacts() {
	ranked := make([]*doc, 0, len(idx.docs))
	for _, d := range idx.docs {
		ranked = append(ranked, d)
	}
	slices.SortFunc(ranked, func(a, b *doc) int { return rdf.Compare(a.entity, b.entity) })
	for i, d := range ranked {
		d.rank = int32(i)
	}
	type key struct {
		impact float64
		rank   int32
		at     int32 // the posting's position in byID
	}
	total := 0
	for _, pl := range idx.postings {
		total += len(pl.byID)
	}
	all := make([]posting, total)
	var keys []key
	for _, pl := range idx.postings {
		keys = keys[:0]
		for i, p := range pl.byID {
			keys = append(keys, key{p.impact(), p.doc.rank, int32(i)})
		}
		slices.SortFunc(keys, func(a, b key) int {
			if c := cmp.Compare(b.impact, a.impact); c != 0 {
				return c
			}
			return cmp.Compare(a.rank, b.rank)
		})
		pl.byImpact, all = all[:len(keys):len(keys)], all[len(keys):]
		for i, k := range keys {
			pl.byImpact[i] = pl.byID[k.at]
		}
	}
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
func (idx *Index) addAll(st *store.Store, stmts []store.IDTriple, b *build) {
	for len(stmts) > 0 {
		n := 1
		for n < len(stmts) && stmts[n].S == stmts[0].S {
			n++
		}
		idx.add(st, stmts[:n], b)
		stmts = stmts[n:]
	}
}

// add indexes one subject from its statements, in (P, O) order. The subject
// must not be indexed already. Outside a build (b nil) each posting is
// inserted into its token's impact order too; a build leaves that order to
// sortImpacts. A blank-node subject without literals has no text and gets
// no document.
func (idx *Index) add(st *store.Store, stmts []store.IDTriple, b *build) {
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
		var ts []string
		cached := false
		if b != nil {
			ts, cached = b.tokens[ids[1+i]]
		}
		if !cached {
			ts = Tokenize(l.Lexical)
			if b != nil {
				b.tokens[ids[1+i]] = ts
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
		p, pl := posting{d, d.id, int32(tf)}, idx.postings[toks[0]]
		if pl == nil {
			pl = &postingList{}
			// A token is a slice of the text it came from; a copy keeps the
			// key from holding the rest.
			idx.postings[strings.Clone(toks[0])] = pl
		}
		pl.byID = insertPosting(pl.byID, p)
		if b == nil {
			// O(log n) entity comparisons at most: only an impact tie compares two.
			i, _ := slices.BinarySearchFunc(pl.byImpact, p, impactOrder)
			pl.byImpact = slices.Insert(pl.byImpact, i, p)
		}
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
		pl := idx.postings[tok]
		if pl == nil {
			continue // a repeated token, dropped with its last posting
		}
		i, found := findPosting(pl.byID, s)
		if !found {
			continue // a repeated token, already removed
		}
		if len(pl.byID) == 1 {
			delete(idx.postings, tok)
			continue
		}
		j, _ := slices.BinarySearchFunc(pl.byImpact, pl.byID[i], impactOrder)
		pl.byID = slices.Delete(pl.byID, i, i+1)
		pl.byImpact = slices.Delete(pl.byImpact, j, j+1)
	}
}

func findPosting(list []posting, s store.ID) (int, bool) {
	return slices.BinarySearchFunc(list, s, func(p posting, s store.ID) int { return cmp.Compare(p.id, s) })
}

// insertPosting keeps list ascending by subject ID. A full build adds
// subjects in ascending order, so it always takes the append path.
func insertPosting(list []posting, p posting) []posting {
	if n := len(list); n == 0 || list[n-1].id < p.id {
		return append(list, p)
	}
	i, _ := findPosting(list, p.id)
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
	start := -1 // the current token's first byte, or -1 between tokens
	for i, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			out = append(out, strings.ToLower(text[start:i]))
			start = -1
		}
	}
	if start >= 0 {
		out = append(out, strings.ToLower(text[start:]))
	}
	return out
}

// Search ranks entities by TF-IDF over the query tokens, returning at most
// limit hits: score descending, ties by rdf.Compare on the entity.
//
// A document's score adds its tokens' contributions in query-token order.
// Every document the shorter lists hold is scored by merging those lists by
// subject ID, reading the longest list's term frequency by galloping its ID
// order forward. A document only the longest list holds scores that list's
// impact (tf/length) times its IDF, so its impact order ranks those
// documents exactly as the hits are ranked: the walk down it stops at the
// first entry that cannot beat the worst of the limit kept so far, and
// skips the rest of an impact group once one of them ties that worst on
// score but sorts after it. When the longest list is no longer than the
// others together, every list is merged by ID and nothing is walked.
func (idx *Index) Search(query string, limit int) []Hit {
	hits, _ := idx.search(query, limit)
	return hits
}

// scored is a document and its score, ordered best first by before.
type scored struct {
	doc   *doc
	score float64
}

func before(a, b scored) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return rdf.Compare(a.doc.entity, b.doc.entity) < 0
}

// search is Search, also reporting how many postings it read: merged,
// galloped and walked.
func (idx *Index) search(query string, limit int) ([]Hit, int) {
	if limit <= 0 {
		limit = 10
	}
	// One list per query token (a repeated token counts twice, as it would
	// in a document).
	var lists []*postingList
	var idfs []float64
	n := float64(len(idx.docs))
	long, total := -1, 0
	for _, tok := range Tokenize(query) {
		if pl := idx.postings[tok]; pl != nil {
			if long < 0 || len(pl.byID) > len(lists[long].byID) {
				long = len(lists)
			}
			total += len(pl.byID)
			lists = append(lists, pl)
			idfs = append(idfs, math.Log(1+n/float64(len(pl.byID))))
		}
	}
	if long >= 0 && 2*len(lists[long].byID) <= total {
		long = -1 // the others would gallop it as often as a merge steps through it
	}
	top := sampling.NewTopK(limit, before)
	heads := make([][]posting, len(lists))
	for i, pl := range lists {
		heads[i] = pl.byID
	}
	read := total + merge(heads, idfs, long, top) // every posting of a merged list is read once
	if long >= 0 {
		// The galloped list was probed, not read through.
		read += walkImpact(lists, idfs, long, top) - len(lists[long].byID)
	}
	best := top.Sorted()
	if len(best) == 0 {
		return nil, read
	}
	hits := make([]Hit, len(best))
	for i, s := range best {
		hits[i] = Hit{Entity: s.doc.entity, Score: s.score, Snippet: s.doc.text}
	}
	return hits, read
}

// merge offers every document the lists hold but for lists[long], stepping
// through them by subject ID together so that each document is scored once,
// with no score table. It reads a document's tf in lists[long] by galloping
// that list forward, and returns the number of postings the gallops probed;
// long < 0 gallops no list and merges them all.
func merge(lists [][]posting, idfs []float64, long int, top *sampling.TopK[scored]) int {
	probes := 0
	for {
		var next *doc
		var nextID store.ID
		for i, l := range lists {
			if i != long && len(l) > 0 && (next == nil || l[0].id < nextID) {
				next, nextID = l[0].doc, l[0].id
			}
		}
		if next == nil {
			return probes
		}
		if long >= 0 {
			var n int
			lists[long], n = gallop(lists[long], nextID)
			probes += n
		}
		score, length := 0.0, float64(next.length)
		for i, l := range lists {
			if len(l) > 0 && l[0].doc == next {
				score += float64(l[0].tf) / length * idfs[i]
				lists[i] = l[1:]
			}
		}
		// Most documents score below the worst kept: skip the call that
		// would reject them.
		if worst, full := top.Worst(); !full || score >= worst.score {
			top.Offer(scored{next, score})
		}
	}
}

// walkImpact offers the documents only lists[long] holds, best impact first:
// each scores impact*idf there, and no later entry scores more. It stops at
// the first entry that scores below the worst kept, skips the rest of an
// impact group once an entry ties the worst but sorts after it, and passes
// over a document another list holds, which the merge has scored. It
// returns the number of postings it read.
func walkImpact(lists []*postingList, idfs []float64, long int, top *sampling.TopK[scored]) int {
	walk, idf, read := lists[long].byImpact, idfs[long], 0
	for len(walk) > 0 {
		p := walk[0]
		read++
		impact := p.impact()
		score := impact * idf
		if worst, full := top.Worst(); full {
			if score < worst.score {
				break
			}
			if score == worst.score && rdf.Compare(p.doc.entity, worst.doc.entity) > 0 {
				walk = walk[sort.Search(len(walk), func(i int) bool {
					read++
					return walk[i].impact() < impact
				}):]
				continue
			}
		}
		walk = walk[1:]
		if !heldByOthers(lists, long, p.id) {
			top.Offer(scored{p.doc, score})
		}
	}
	return read
}

// heldByOthers reports whether a list other than lists[long] holds subject
// s.
func heldByOthers(lists []*postingList, long int, s store.ID) bool {
	for i, pl := range lists {
		if i != long {
			if _, found := findPosting(pl.byID, s); found {
				return true
			}
		}
	}
	return false
}

// gallop advances list, ascending by subject ID, to its first posting at or
// after subject s, probing 1, 2, 4, ... postings ahead and bisecting the
// last step; it also returns the number of postings it probed.
func gallop(list []posting, s store.ID) ([]posting, int) {
	probes, hi := 0, 1
	for hi <= len(list) && list[hi-1].id < s {
		probes++
		hi *= 2
	}
	lo := hi / 2
	hi = min(hi, len(list))
	i := lo + sort.Search(hi-lo, func(j int) bool {
		probes++
		return list[lo+j].id >= s
	})
	return list[i:], probes
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

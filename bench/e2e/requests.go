package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"strings"
)

type reqKind uint8

const (
	kStats reqKind = iota
	kFacets
	kFacetsStream
	kStatsStream
	kHETree
	kSearch
	kNeighborhood
	kSparql
	kSparqlStream
	kAsk
	kHealthz
	kUpdate // INSERT DATA or DELETE DATA on POST /sparql
	kIngest // POST /triples
)

// request is one HTTP request of a workload: what is sent, the parameters it
// was built from (the in-process replay calls the layers with them), and
// what the reference model says the answer must be.
type request struct {
	kind   reqKind
	method string
	target string
	ctype  string
	body   string
	wire   []byte // the complete HTTP/1.1 request

	sel    selection // kFacets, kFacetsStream
	prop   int       // kHETree: the numeric property
	budget int       // kHETree
	node   int       // kSearch, kNeighborhood: the entity
	hops   int       // kNeighborhood
	sample int       // kNeighborhood: statements expanded a node, 0 for all
	seed   int64     // kNeighborhood: of the sample
	text   string    // the query, or the words searched for

	// want is the facet count, the row count, the number of hierarchy
	// items, the triple count of /stats and /healthz, 0 or 1 for ASK, or
	// the number of triples a write must report; -1 leaves it unchecked.
	want    int
	deletes bool  // kUpdate: want is compared with "deleted"
	targets []int // kNeighborhood: entities that must be among the nodes

	// verified is set by a warm-up that checked the response in full; the
	// timed phase of session_warm then compares against it.
	verified *digest
	// acked, on a write, records that the server acknowledged it.
	acked func()
}

// digest identifies a response that was checked in full.
type digest struct {
	length int
	etag   string
}

func (r *request) isWrite() bool { return r.kind >= kUpdate }

// progressive reports whether the response is a stream of refining
// estimates, for which the time to the first estimate is measured.
func (r *request) progressive() bool { return r.kind == kFacetsStream || r.kind == kStatsStream }

func (r *request) finish() *request {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: lodvizd\r\n", r.method, r.target)
	if r.method == "POST" {
		fmt.Fprintf(&b, "Content-Type: %s\r\nContent-Length: %d\r\n", r.ctype, len(r.body))
	}
	b.WriteString("\r\n")
	b.WriteString(r.body)
	r.wire = []byte(b.String())
	return r
}

func get(kind reqKind, path string, q url.Values) *request {
	r := &request{kind: kind, method: "GET", target: path, want: -1}
	if len(q) > 0 {
		r.target += "?" + q.Encode()
	}
	return r
}

func statsReq(stream bool, triples int) *request {
	kind, path := kStats, "/stats"
	if stream {
		kind, path = kStatsStream, "/stats/stream"
	}
	r := get(kind, path, nil)
	r.want = triples
	return r.finish()
}

// facetsReq asks for the facets of a selection. Filters go out in the order
// the server sorts them in, so that a view has one spelling.
func facetsReq(d *dataset, sel selection, stream bool) *request {
	var filters []string
	if sel.class >= 0 {
		filters = append(filters, "<"+rdfType+">=<"+classIRI(sel.class)+">")
	}
	cats := append([]catFilter(nil), sel.cats...)
	if len(cats) == 2 && cats[0].prop > cats[1].prop {
		cats[0], cats[1] = cats[1], cats[0]
	}
	for _, f := range cats {
		filters = append(filters, catIRI(f.prop)+"="+catValue(f.val))
	}
	kind, path := kFacets, "/facets"
	if stream {
		kind, path = kFacetsStream, "/facets/stream"
	}
	r := get(kind, path, url.Values{"filter": filters})
	r.sel = sel
	r.want = d.count(sel)
	return r.finish()
}

func hetreeReq(d *dataset, prop, budget int) *request {
	r := get(kHETree, "/hetree", url.Values{"prop": {numIRI(prop)}, "budget": {strconv.Itoa(budget)}})
	r.prop, r.budget = prop, budget
	r.want = d.entities()
	return r.finish()
}

// searchReq looks an entity up by its label. A small number is also the
// number of a class or a category, or the whole part of many numeric values,
// and finds those first; node is moved into the upper half of the entities,
// whose numbers only their own name and label hold.
func searchReq(d *dataset, node int) *request {
	half := d.entities() / 2
	node = half + node%half
	text := "Entity " + strconv.Itoa(node)
	r := get(kSearch, "/search", url.Values{"q": {text}})
	r.node, r.text = node, text
	return r.finish()
}

// neighborhoodReq expands the neighbourhood of an entity, with at most
// sample statements a node, or all of them when sample is 0.
func neighborhoodReq(d *dataset, node, hops, sample int, seed int64) *request {
	q := url.Values{"node": {entityIRI(node)}, "hops": {strconv.Itoa(hops)}}
	if sample > 0 {
		q["sample"], q["seed"] = []string{strconv.Itoa(sample)}, []string{strconv.FormatInt(seed, 10)}
	}
	r := get(kNeighborhood, "/graph/neighborhood", q)
	r.node, r.hops, r.sample, r.seed = node, hops, sample, seed
	// A start node with no more statements than the sample keeps every
	// one of them, so its link targets must come back.
	if sample == 0 || d.degree(node) <= sample {
		for p := range d.rel {
			r.targets = append(r.targets, int(d.rel[p][node]))
		}
	}
	return r.finish()
}

func sparqlReq(kind reqKind, path, query string, want int) *request {
	r := get(kind, path, url.Values{"query": {query}})
	r.text, r.want = query, want
	return r.finish()
}

func askReq(pattern string, want bool) *request {
	r := sparqlReq(kAsk, "/sparql", "ASK { "+pattern+" }", 0)
	if want {
		r.want = 1
	}
	return r
}

func healthzReq(triples int) *request {
	r := get(kHealthz, "/healthz", nil)
	r.want = triples
	return r.finish()
}

func updateReq(op string, lines []string, deletes bool) *request {
	text := op + " DATA {\n" + strings.Join(lines, "\n") + "\n}"
	r := &request{kind: kUpdate, method: "POST", target: "/sparql", ctype: "application/sparql-update",
		body: text, want: len(lines), deletes: deletes}
	return r.finish()
}

func ingestReq(lines []string) *request {
	text := strings.Join(lines, "\n") + "\n"
	r := &request{kind: kIngest, method: "POST", target: "/triples", ctype: "application/n-triples",
		body: text, want: len(lines)}
	return r.finish()
}

// rowLimit is the LIMIT of every buffered SPARQL template.
const rowLimit = 100

// lookupReq is the point lookup: every statement of one entity.
func lookupReq(node int) *request {
	q := fmt.Sprintf("SELECT ?p ?o WHERE { <%s> ?p ?o } LIMIT %d", entityIRI(node), rowLimit)
	return sparqlReq(kSparql, "/sparql", q, triplesPerEntity)
}

// deck deals the numbers below its size in a seeded order without repeating
// one before all are dealt. The clients of a workload share the order and
// take alternate cards, so their constants do not repeat each other's.
type deck struct {
	order       []int
	pos, stride int
}

func newDecks(rng *rand.Rand, size, clients int) []*deck {
	order := rng.Perm(size)
	ds := make([]*deck, clients)
	for c := range ds {
		ds[c] = &deck{order: order, pos: c, stride: clients}
	}
	return ds
}

func (k *deck) draw() int {
	v := k.order[k.pos%len(k.order)]
	k.pos += k.stride
	return v
}

// Sizes of the constant spaces the decks deal from.
const (
	drillSpace  = classes * catProps * categories * (catProps - 1) * categories
	budgetSpace = 1000
	thresholds  = 100
	joinSpace   = classes * catProps * categories * numProps * thresholds
	groupSpace  = classes * catProps * categories * (catProps - 1)
)

// sessionLen is the number of requests in one exploration session. It is
// odd on purpose: the steps differ in cost by orders of magnitude, and with
// an even number of them the median read would sit on the border between two
// steps and jump from one to the other between runs.
const sessionLen = 13

// sessionGen generates exploration sessions for one client.
type sessionGen struct {
	d   *dataset
	rng *rand.Rand
	// buffered replaces the two streamed steps by their buffered twins,
	// which the response cache can serve.
	buffered bool
	// static says that nothing writes, so /stats is checked to the triple.
	static bool

	drill, hetree, search, node, lookup, link, join, group *deck
}

// newSessionGens builds one generator per client over shared decks.
func newSessionGens(d *dataset, seed int64, clients int, buffered, static bool) []*sessionGen {
	rng := rand.New(rand.NewSource(seed))
	n := d.entities()
	decks := [][]*deck{
		newDecks(rng, drillSpace, clients), newDecks(rng, numProps*budgetSpace, clients),
		newDecks(rng, n, clients), newDecks(rng, n, clients), newDecks(rng, n, clients),
		newDecks(rng, n*linkProps, clients), newDecks(rng, joinSpace, clients), newDecks(rng, groupSpace, clients),
	}
	gens := make([]*sessionGen, clients)
	for c := range gens {
		gens[c] = &sessionGen{
			d: d, rng: rand.New(rand.NewSource(seed*1000 + int64(c) + 1)), buffered: buffered, static: static,
			drill: decks[0][c], hetree: decks[1][c], search: decks[2][c], node: decks[3][c],
			lookup: decks[4][c], link: decks[5][c], join: decks[6][c], group: decks[7][c],
		}
	}
	return gens
}

// next builds one session: overview, facet drill-down and zoom-out, a
// progressive read, a numeric hierarchy, a keyword lookup, a sampled
// neighbourhood expansion and the full expansion of one neighbour, and two
// SPARQL queries.
func (g *sessionGen) next() []*request {
	d := g.d
	// The drill-down: a class, then a first and a second categorical filter.
	v := g.drill.draw()
	vb := v % categories
	v /= categories
	b := v % (catProps - 1)
	v /= catProps - 1
	va := v % categories
	v /= categories
	a := v % catProps
	class := v / catProps
	if b >= a {
		b++
	}
	one := selection{class: class}
	two := selection{class: class, cats: []catFilter{{a, va}}}
	three := selection{class: class, cats: []catFilter{{a, va}, {b, vb}}}
	// The progressive read is on the other two categorical properties.
	var other []catFilter
	for p := 0; p < catProps; p++ {
		if p != a && p != b {
			other = append(other, catFilter{p, g.rng.Intn(categories)})
		}
	}
	h := g.hetree.draw()
	node := g.node.draw()
	triples := -1
	if g.static {
		triples = d.triples()
	}
	return []*request{
		statsReq(false, triples),
		facetsReq(d, selection{class: -1}, false),
		facetsReq(d, one, false),
		facetsReq(d, two, false),
		facetsReq(d, three, false),
		facetsReq(d, two, false), // zoom-out: the last filter is dropped
		facetsReq(d, selection{class: -1, cats: other}, !g.buffered),
		hetreeReq(d, h%numProps, 16+h/numProps),
		searchReq(d, g.search.draw()),
		neighborhoodReq(d, node, 2, 25, g.rng.Int63n(1<<30)),
		neighborhoodReq(d, int(d.rel[0][node]), 1, 0, 0),
		g.sparql(),
		g.sparqlStream(),
	}
}

// sparql draws one of the five buffered query templates.
func (g *sessionGen) sparql() *request {
	d := g.d
	switch g.rng.Intn(5) {
	case 0: // point lookup
		return lookupReq(g.lookup.draw())
	case 1: // 2-pattern join: the label of what an entity links to
		v := g.link.draw()
		q := fmt.Sprintf("SELECT ?o ?l WHERE { <%s> <%s> ?o . ?o <%s> ?l } LIMIT %d",
			entityIRI(v/linkProps), relIRI(v%linkProps), rdfsLabel, rowLimit)
		return sparqlReq(kSparql, "/sparql", q, 1)
	case 2: // 3-pattern join with FILTER and ORDER BY
		v := g.join.draw()
		x := v % thresholds
		v /= thresholds
		p := v % numProps
		v /= numProps
		sel := selection{class: v / (catProps * categories), cats: []catFilter{{v / categories % catProps, v % categories}}}
		bound := float64((x + 1) * 5 * (p + 1))
		q := fmt.Sprintf("SELECT ?s ?v WHERE { ?s <%s> <%s> . ?s <%s> \"%s\" . ?s <%s> ?v . FILTER(?v > %g) } ORDER BY DESC(?v) LIMIT %d",
			rdfType, classIRI(sel.class), catIRI(sel.cats[0].prop), catValue(sel.cats[0].val), numIRI(p), bound, rowLimit)
		return sparqlReq(kSparql, "/sparql", q, min(rowLimit, d.countAbove(sel, p, bound)))
	case 3: // GROUP BY count
		v := g.group.draw()
		by := v % (catProps - 1)
		v /= catProps - 1
		sel := selection{class: v / (catProps * categories), cats: []catFilter{{v / categories % catProps, v % categories}}}
		if by >= sel.cats[0].prop {
			by++
		}
		q := fmt.Sprintf("SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s <%s> \"%s\" . ?s <%s> <%s> . ?s <%s> ?c } GROUP BY ?c LIMIT %d",
			catIRI(sel.cats[0].prop), catValue(sel.cats[0].val), rdfType, classIRI(sel.class), catIRI(by), rowLimit)
		return sparqlReq(kSparql, "/sparql", q, d.distinctCat(sel, by))
	default: // inverse-link lookup
		v := g.link.draw()
		node, p := v/linkProps, v%linkProps
		q := fmt.Sprintf("SELECT ?s WHERE { ?s <%s> <%s> } LIMIT %d", relIRI(p), entityIRI(node), rowLimit)
		return sparqlReq(kSparql, "/sparql", q, min(rowLimit, int(d.inDeg[p][node])))
	}
}

// sparqlStream is a 2-pattern join read to completion.
func (g *sessionGen) sparqlStream() *request {
	f := catFilter{g.rng.Intn(catProps), g.rng.Intn(categories)}
	q := fmt.Sprintf("SELECT ?s ?v WHERE { ?s <%s> \"%s\" . ?s <%s> ?v }",
		catIRI(f.prop), catValue(f.val), numIRI(g.rng.Intn(numProps)))
	want := g.d.count(selection{class: -1, cats: []catFilter{f}})
	if g.buffered {
		return sparqlReq(kSparql, "/sparql", q, want)
	}
	return sparqlReq(kSparqlStream, "/sparql/stream", q, want)
}

// batch is a set of triples written together.
type batch struct {
	lines []string
	live  bool // acknowledged as inserted and not since deleted
}

func (b *batch) pattern() string {
	if len(b.lines) > 8 {
		return b.lines[0] + " " + b.lines[len(b.lines)-1]
	}
	return strings.Join(b.lines, " ")
}

// writer generates the writes of one client. The triples it writes are about
// subjects of their own, with a predicate of their own, so that what the
// reference model says about the generated entities stays true.
type writer struct {
	tag     string
	n       int      // writes generated so far
	posted  int      // large batches posted so far
	pending []*batch // inserted and due to be deleted, oldest first
	// What the server has acknowledged: the net number of triples written,
	// and in every batch whether it must be there.
	net     int
	batches []*batch
}

func (w *writer) newBatch(size int) *batch {
	b := &batch{lines: make([]string, size)}
	id := len(w.batches)
	for i := range b.lines {
		b.lines[i] = fmt.Sprintf("<%singest/%s/%d/%d> <%sprop/ingested> \"%sb%dt%d\" .", ns, w.tag, id, i, ns, w.tag, id, i)
	}
	w.batches = append(w.batches, b)
	return b
}

// write attaches to a write of batch b what its acknowledgement means.
func (w *writer) write(r *request, b *batch) *request {
	r.acked = func() {
		if r.deletes {
			w.net -= r.want
		} else {
			w.net += r.want
		}
		b.live = !r.deletes
	}
	return r
}

// Sizes of the writes of mixed_rw, and how long an inserted batch lives.
const (
	smallInsert = 5
	smallIngest = 50
	deleteLag   = 20
	bulkBatch   = 2000
	bulkCycle   = 32
)

// nextMixed rotates INSERT DATA, DELETE DATA of the batch inserted about
// twenty writes earlier, and POST /triples.
func (w *writer) nextMixed() *request {
	op := w.n % 3
	w.n++
	switch {
	case op == 1 && len(w.pending) > deleteLag/3:
		b := w.pending[0]
		w.pending = w.pending[1:]
		return w.write(updateReq("DELETE", b.lines, true), b)
	case op == 2:
		b := w.newBatch(smallIngest)
		return w.write(ingestReq(b.lines), b)
	default:
		b := w.newBatch(smallInsert)
		w.pending = append(w.pending, b)
		return w.write(updateReq("INSERT", b.lines, false), b)
	}
}

// nextBulk alternates POST /triples of a large batch with DELETE DATA of the
// batch posted twenty batches earlier, once there is one. After bulkCycle
// batches it posts the first again, deleted long since: the terms the server
// has to know stay bounded however many batches a run gets through.
func (w *writer) nextBulk() *request {
	w.n++
	if w.n%2 == 0 && len(w.pending) > deleteLag {
		b := w.pending[0]
		w.pending = w.pending[1:]
		return w.write(updateReq("DELETE", b.lines, true), b)
	}
	if len(w.batches) < bulkCycle {
		w.newBatch(bulkBatch)
	}
	b := w.batches[w.posted%bulkCycle]
	w.posted++
	w.pending = append(w.pending, b)
	return w.write(ingestReq(b.lines), b)
}

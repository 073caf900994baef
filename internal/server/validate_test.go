package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/lodviz/lodviz/internal/facet"
	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/hetree"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// serve runs one GET through a server's handler in process and returns the
// status, X-Cache and body.
func serve(s *Server, target string) (int, string, string) {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec.Code, rec.Header().Get("X-Cache"), rec.Body.String()
}

func sparqlTarget(q string) string { return "/sparql?query=" + url.QueryEscape(q) }

// midBuildSource wraps the store on the source seam and, when armed, runs
// a hook right after the next scan a build makes has returned — while the
// build is still going, with no store lock held.
type midBuildSource struct {
	*store.Store
	hook atomic.Pointer[func()]
}

func (m *midBuildSource) fire() {
	if h := m.hook.Swap(nil); h != nil {
		(*h)()
	}
}

func (m *midBuildSource) ScanIDs(s, p, o store.ID, lead store.Position) (store.IDRun, bool) {
	run, ok := m.Store.ScanIDs(s, p, o, lead)
	m.fire()
	return run, ok
}

func (m *midBuildSource) ForEachID(s, p, o store.ID, fn func(store.IDTriple) bool) {
	m.Store.ForEachID(s, p, o, fn)
	m.fire()
}

func (m *midBuildSource) ForEachIDPage(s, p, o store.ID, pos, max int, fn func(store.IDTriple) bool) (int, bool) {
	next, done := m.Store.ForEachIDPage(s, p, o, pos, max, fn)
	m.fire()
	return next, done
}

// TestWriteDuringBuildIsFoundOut pins what replaces the old "orphan until
// the next write": a write that touches a view's footprint while the view
// is being built. The build may or may not have seen it, and the entry is
// filed all the same — under the generation read before the build, so the
// write is in the span the next lookup checks, and that lookup is a MISS
// that serves the new data. Filed under a generation read after the build,
// the stale entry would be served from then on.
func TestWriteDuringBuildIsFoundOut(t *testing.T) {
	typ := rdf.RDFType
	for _, tc := range []struct {
		name, target string
		write        rdf.Triple
	}{
		{"sparql", sparqlTarget("SELECT ?s WHERE { ?s a <" + exNS + "City> }"),
			rdf.T(rdf.IRI(exNS+"sparta"), typ, rdf.IRI(exNS+"City"))},
		{"facets", "/facets",
			rdf.T(rdf.IRI(exNS+"sparta"), typ, rdf.IRI(exNS+"City"))},
		{"facets filtered", "/facets?filter=" + url.QueryEscape(exNS+"country=<"+exNS+"greece>"),
			rdf.T(rdf.IRI(exNS+"athens"), rdf.IRI(exNS+"twin"), rdf.IRI(exNS+"paris"))},
		{"neighborhood", "/graph/neighborhood?node=" + url.QueryEscape("<"+exNS+"athens>"),
			rdf.T(rdf.IRI(exNS+"jean"), rdf.IRI(exNS+"visited"), rdf.IRI(exNS+"athens"))},
		// The base kept under the responses is filed the same way: were its
		// generation read after the build, the second request would rebuild
		// the response over a base that passes for current without the write.
		{"hetree", "/hetree?budget=4&prop=" + url.QueryEscape(exNS+"population"),
			rdf.T(rdf.IRI(exNS+"sparta"), rdf.IRI(exNS+"population"), rdf.NewInteger(35259))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := gen.MiniLODStore()
			src := &midBuildSource{Store: st}
			on := New(st, Config{Logger: discardLogger(), source: src})
			off := New(st, Config{Logger: discardLogger(), CacheCapacity: -1})

			wrote := false
			write := func() {
				if n, err := st.AddBatch([]rdf.Triple{tc.write}); err != nil || n != 1 {
					t.Errorf("mid-build write: added %d, err %v", n, err)
				}
				wrote = true
			}
			src.hook.Store(&write)
			if code, xc, body := serve(on, tc.target); code != 200 || xc != "MISS" {
				t.Fatalf("first request: status %d, X-Cache %q: %s", code, xc, body)
			}
			if !wrote {
				t.Fatal("the build made no scan through the seam")
			}
			_, _, want := serve(off, tc.target)
			code, xc, body := serve(on, tc.target)
			if code != 200 || xc != "MISS" {
				t.Fatalf("lookup after a mid-build write: status %d, X-Cache %q, want a MISS", code, xc)
			}
			if body != want {
				t.Fatalf("after a mid-build write the cache serves\n%s\nwant\n%s", body, want)
			}
			if _, xc, body := serve(on, tc.target); xc != "HIT" || body != want {
				t.Fatalf("third request: X-Cache %q, fresh body %v; want a HIT of the rebuilt view", xc, body == want)
			}
		})
	}
}

// TestConcurrentRequestsShareOneBuild: requests for one uncached view while
// it is being built wait for that build instead of starting their own.
func TestConcurrentRequestsShareOneBuild(t *testing.T) {
	st := gen.MiniLODStore()
	src := &midBuildSource{Store: st}
	s := New(st, Config{Logger: discardLogger(), source: src})
	started, release := make(chan struct{}), make(chan struct{})
	hold := func() { close(started); <-release }
	src.hook.Store(&hold)

	const followers = 4
	var wg sync.WaitGroup
	results := make([]string, followers+1)
	get := func(i int) {
		defer wg.Done()
		_, xc, _ := serve(s, "/facets")
		results[i] = xc
	}
	wg.Add(1)
	go get(0)
	<-started
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go get(i)
	}
	// The followers can only be waiting: the one build is held mid-scan.
	// Let each reach its lookup (a miss) before the build is released.
	for s.cache.Stats().Misses < followers+1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	sort.Strings(results)
	if got := strings.Join(results, ","); got != "HIT,HIT,HIT,HIT,MISS" {
		t.Fatalf("dispositions = %s, want one MISS (the builder) and the rest served its entry", got)
	}
}

// diffData is a small entity dataset in the shape bench/e2e generates:
// typed entities with a label, two categorical values, a numeric value that
// no two entities share, and a link to another entity.
type diffData struct{ n int }

const diffNS = "http://lodviz.example.org/d/"

func (d diffData) entity(i int) rdf.IRI { return rdf.IRI(fmt.Sprintf("%sentity/%d", diffNS, i)) }
func dClass(c int) rdf.IRI              { return rdf.IRI(fmt.Sprintf("%sclass/%d", diffNS, c)) }
func dProp(name string) rdf.IRI         { return rdf.IRI(diffNS + "prop/" + name) }
func dCat(v int) rdf.Literal            { return rdf.NewLiteral(fmt.Sprintf("v%d", v)) }

// ref spells an IRI as query text does (rdf.IRI's own String adds the
// brackets, which %s would then double).
func ref(i rdf.IRI) string { return "<" + string(i) + ">" }

func (d diffData) triples() []rdf.Triple {
	var ts []rdf.Triple
	for i := 0; i < d.n; i++ {
		e := d.entity(i)
		ts = append(ts,
			rdf.T(e, rdf.RDFType, dClass(i%3)),
			rdf.T(e, rdf.RDFSLabel, rdf.NewLiteral(fmt.Sprintf("Entity %d", i))),
			rdf.T(e, dProp("cat0"), dCat(i%4)),
			rdf.T(e, dProp("cat1"), dCat((i/4)%3)),
			rdf.T(e, dProp("num0"), rdf.NewDouble(float64(i)*1.5+1)),
			rdf.T(e, dProp("rel0"), d.entity((i*7+3)%d.n)),
		)
	}
	return ts
}

// diffRequest is one entry of the fixed vocabulary the differential replays.
type diffRequest struct {
	name, target string
	// unordered: the query leaves row order open, and a write replans it,
	// so the two servers are compared by row set. limit > 0 on top: the
	// rows kept are open too, so each side is checked against the matches
	// of the query without its LIMIT.
	unordered bool
	limit     int
	// perGeneration: reads the whole store, so never survives a write.
	perGeneration bool
	// sampleOf, on a sampled neighbourhood, is the same request without the
	// sample. Which statements a reservoir keeps depends on the order the
	// store scans them in, which a compaction changes while the content —
	// and so the generation, and so the entry — stays: either side's
	// sample is a legal one, and each is checked to be a part of the full
	// neighbourhood instead.
	sampleOf string
}

func (d diffData) vocabulary() []diffRequest {
	q := func(name, query string) diffRequest { return diffRequest{name: name, target: sparqlTarget(query)} }
	unordered := func(r diffRequest) diffRequest { r.unordered = true; return r }
	e5, e9 := d.entity(5), d.entity(9)
	facets := func(filters ...string) string {
		v := url.Values{}
		for _, f := range filters {
			v.Add("filter", f)
		}
		if len(v) == 0 {
			return "/facets"
		}
		return "/facets?" + v.Encode()
	}
	classFilter := "<" + string(rdf.RDFType) + ">=<" + string(dClass(1)) + ">"
	typ, label := ref(rdf.RDFType), ref(rdf.RDFSLabel)
	cat0, cat1, num0, rel0, note := ref(dProp("cat0")), ref(dProp("cat1")), ref(dProp("num0")), ref(dProp("rel0")), ref(dProp("note"))
	return []diffRequest{
		// The five buffered templates of bench/e2e.
		unordered(q("lookup", fmt.Sprintf("SELECT ?p ?o WHERE { %s ?p ?o } LIMIT 100", ref(e5)))),
		unordered(q("link label", fmt.Sprintf("SELECT ?o ?l WHERE { %s %s ?o . ?o %s ?l } LIMIT 100", ref(e5), rel0, label))),
		q("filter order", fmt.Sprintf("SELECT ?s ?v WHERE { ?s %s %s . ?s %s \"v1\" . ?s %s ?v . FILTER(?v > 10) } ORDER BY DESC(?v) LIMIT 100",
			typ, ref(dClass(1)), cat0, num0)),
		unordered(q("group count", fmt.Sprintf("SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s %s \"v2\" . ?s %s %s . ?s %s ?c } GROUP BY ?c LIMIT 100",
			cat0, typ, ref(dClass(2)), cat1))),
		unordered(q("inverse link", fmt.Sprintf("SELECT ?s WHERE { ?s %s %s } LIMIT 100", rel0, ref(e9)))),
		// Other group shapes the footprint walker descends into.
		unordered(q("optional", fmt.Sprintf("SELECT ?s ?n WHERE { ?s %s \"v0\" . OPTIONAL { ?s %s ?n } }", cat1, note))),
		unordered(q("union", fmt.Sprintf("SELECT ?s WHERE { { ?s %s \"v3\" } UNION { ?s %s \"w\" } }", cat0, note))),
		unordered(q("values", fmt.Sprintf("SELECT ?s ?v WHERE { VALUES ?s { %s %s } ?s %s ?v }", ref(e5), ref(e9), num0))),
		q("ask", fmt.Sprintf("ASK { %s %s %s }", ref(e9), typ, ref(dClass(0)))),
		q("count all of a class", fmt.Sprintf("SELECT (COUNT(?s) AS ?n) WHERE { ?s a %s }", ref(dClass(0)))),
		// A constant the dictionary does not hold until a schedule adds it.
		unordered(q("absent constant", fmt.Sprintf("SELECT ?s WHERE { ?s %s <%sclass/late> }", typ, diffNS))),
		// LIMIT below the match count, no ORDER BY: any 3 will do.
		{name: "open limit", target: sparqlTarget(fmt.Sprintf("SELECT ?s WHERE { ?s a %s } LIMIT 3", ref(dClass(0)))), unordered: true, limit: 3},

		{name: "facets", target: facets()},
		{name: "facets class", target: facets(classFilter)},
		{name: "facets class+cat", target: facets(classFilter, string(dProp("cat0"))+"=v1")},
		{name: "facets absent value", target: facets(string(dProp("cat0")) + "=nowhere")},
		{name: "hetree", target: hetreeTarget(8)},
		// The same property at another budget: another response, the same base.
		{name: "hetree wide", target: hetreeTarget(20)},
		{name: "neighborhood sampled", target: "/graph/neighborhood?hops=2&sample=3&seed=7&node=" + url.QueryEscape(string(e5)),
			sampleOf: "/graph/neighborhood?hops=2&node=" + url.QueryEscape(string(e5))},
		{name: "neighborhood full", target: "/graph/neighborhood?hops=1&node=" + url.QueryEscape(string(e9))},

		{name: "stats", target: "/stats", perGeneration: true},
		{name: "search", target: "/search?q=" + url.QueryEscape("Entity 5"), perGeneration: true},
		{name: "complete", target: "/complete?prefix=ent", perGeneration: true},
	}
}

func hetreeTarget(budget int) string {
	return fmt.Sprintf("/hetree?prop=%s&budget=%d", url.QueryEscape(string(dProp("num0"))), budget)
}

// rowSet decodes a SPARQL JSON body into its sorted rows.
func rowSet(t *testing.T, body string) []string {
	t.Helper()
	var doc struct {
		Results struct {
			Bindings []json.RawMessage `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	rows := make([]string, len(doc.Results.Bindings))
	for i, b := range doc.Results.Bindings {
		rows[i] = string(b)
	}
	sort.Strings(rows)
	return rows
}

// neighbourhoodParts decodes a /graph/neighborhood body into its node terms
// and its edges spelled by their end terms.
func neighbourhoodParts(t *testing.T, body string) (nodes, edges map[string]bool) {
	t.Helper()
	var nb neighborhoodResponse
	if err := json.Unmarshal([]byte(body), &nb); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	nodes, edges = map[string]bool{}, map[string]bool{}
	for _, n := range nb.Nodes {
		nodes[n.Value] = true
	}
	for _, e := range nb.Edges {
		edges[nb.Nodes[e.From].Value+" "+e.Label+" "+nb.Nodes[e.To].Value] = true
	}
	return nodes, edges
}

// differential is two servers over one store, one caching and one not.
type differential struct {
	t       *testing.T
	st      *store.Store
	on, off *Server
	vocab   []diffRequest
}

func newDifferential(t *testing.T, st *store.Store, vocab []diffRequest) *differential {
	return &differential{
		t: t, st: st, vocab: vocab,
		on:  New(st, Config{Logger: discardLogger(), FacetWarming: true}),
		off: New(st, Config{Logger: discardLogger(), CacheCapacity: -1}),
	}
}

// reference serves target from the store as it is now: the non-caching
// server, with the sorted values it keeps under /hetree and the facet base
// thrown away too.
func (d *differential) reference(target string) (int, string) {
	d.off.bases = hetree.NewBases(d.st, d.st)
	d.off.typed = facet.NewTypedBase(d.st, d.st)
	code, _, body := serve(d.off, target)
	return code, body
}

// check replays the vocabulary on both servers and compares. It returns
// the caching server's dispositions by request name.
func (d *differential) check(step string) map[string]string {
	d.t.Helper()
	disp := map[string]string{}
	for _, r := range d.vocab {
		codeOff, want := d.reference(r.target)
		codeOn, xc, got := serve(d.on, r.target)
		disp[r.name] = xc
		if codeOn != http.StatusOK || codeOff != http.StatusOK {
			d.t.Fatalf("%s: %s: status %d with the cache (%s), %d without (%s)", step, r.name, codeOn, got, codeOff, want)
		}
		switch {
		case r.sampleOf != "":
			_, _, full := serve(d.off, r.sampleOf)
			nodes, edges := neighbourhoodParts(d.t, full)
			for side, body := range map[string]string{"with": got, "without": want} {
				ns, es := neighbourhoodParts(d.t, body)
				for n := range ns {
					if !nodes[n] {
						d.t.Fatalf("%s: %s %s the cache (X-Cache %s): node %s is not in the full neighbourhood", step, r.name, side, xc, n)
					}
				}
				for e := range es {
					if !edges[e] {
						d.t.Fatalf("%s: %s %s the cache (X-Cache %s): edge %s is not in the full neighbourhood", step, r.name, side, xc, e)
					}
				}
			}
		case r.limit > 0:
			_, _, all := serve(d.off, strings.TrimSuffix(r.target, url.QueryEscape(fmt.Sprintf(" LIMIT %d", r.limit))))
			matches := rowSet(d.t, all)
			for side, body := range map[string]string{"with": got, "without": want} {
				rows := rowSet(d.t, body)
				if len(rows) != min(r.limit, len(matches)) {
					d.t.Fatalf("%s: %s %s the cache: %d rows, want %d", step, r.name, side, len(rows), min(r.limit, len(matches)))
				}
				for _, row := range rows {
					if i := sort.SearchStrings(matches, row); i == len(matches) || matches[i] != row {
						d.t.Fatalf("%s: %s %s the cache: row %s is no match of the pattern (X-Cache %s)", step, r.name, side, row, xc)
					}
				}
			}
		case r.unordered:
			if a, b := rowSet(d.t, got), rowSet(d.t, want); strings.Join(a, "\n") != strings.Join(b, "\n") {
				d.t.Fatalf("%s: %s (X-Cache %s): rows with the cache\n%s\nwithout\n%s", step, r.name, xc, a, b)
			}
		case got != want:
			d.t.Fatalf("%s: %s (X-Cache %s): body with the cache\n%s\nwithout\n%s", step, r.name, xc, got, want)
		}
	}
	return disp
}

// expect asserts the caching server's dispositions after a step: with a
// write since the last check, the named requests and everything that reads
// the whole store MISS; all others HIT.
func (d *differential) expect(step string, disp map[string]string, wrote bool, missed ...string) {
	d.t.Helper()
	want := map[string]string{}
	for _, r := range d.vocab {
		want[r.name] = "HIT"
		if r.perGeneration && wrote {
			want[r.name] = "MISS"
		}
	}
	for _, name := range missed {
		if _, known := want[name]; !known {
			d.t.Fatalf("%s: no request named %q", step, name)
		}
		want[name] = "MISS"
	}
	for _, r := range d.vocab {
		if disp[r.name] != want[r.name] {
			d.t.Errorf("%s: %s was a %s, want %s", step, r.name, disp[r.name], want[r.name])
		}
	}
}

func (d *differential) add(ts ...rdf.Triple) {
	d.t.Helper()
	if n, err := d.st.AddBatch(ts); err != nil || n != len(ts) {
		d.t.Fatalf("AddBatch: added %d of %d, err %v", n, len(ts), err)
	}
}

// bases asserts how often the caching server has collected a /hetree base
// from the store and how often it has cut a kept one.
func (d *differential) bases(step string, built, reused uint64) {
	d.t.Helper()
	if s := d.on.bases.Stats(); s.Built != built || s.Reused != reused {
		d.t.Errorf("%s: hetree bases built %d, reused %d; want %d, %d", step, s.Built, s.Reused, built, reused)
	}
}

// freshBudget asks the caching server for the hierarchy at a budget no
// request has used, so that the response is a MISS and the base under it
// is what answers, and compares it with the reference.
func (d *differential) freshBudget(step string, budget int) {
	d.t.Helper()
	_, want := d.reference(hetreeTarget(budget))
	if code, xc, got := serve(d.on, hetreeTarget(budget)); code != http.StatusOK || xc != "MISS" || got != want {
		d.t.Fatalf("%s: budget %d: status %d, X-Cache %s, body\n%s\nwant a MISS with\n%s", step, budget, code, xc, got, want)
	}
}

func (d *differential) del(ts ...rdf.Triple) {
	d.t.Helper()
	if n, err := d.st.DeleteBatch(ts); err != nil || n != len(ts) {
		d.t.Fatalf("DeleteBatch: deleted %d of %d, err %v", n, len(ts), err)
	}
}

// TestCacheDifferentialScenarios walks the writes each footprint rule has
// to get right, one at a time, asserting after each both that the caching
// server answers as the non-caching one does and which views survived.
func TestCacheDifferentialScenarios(t *testing.T) {
	data := diffData{n: 48}
	note, typ := dProp("note"), rdf.RDFType
	// Two notes from the start, so that the queries naming the predicate
	// and the literal "w" have every constant in the dictionary.
	st, err := store.Load(append(data.triples(),
		rdf.T(data.entity(20), note, rdf.NewLiteral("w")), rdf.T(data.entity(21), note, rdf.NewLiteral("n"))))
	if err != nil {
		t.Fatal(err)
	}
	d := newDifferential(t, st, data.vocabulary())
	d.check("cold")
	d.bases("cold", 1, 1) // two budgets, one base
	d.expect("warm", d.check("warm"), false)
	d.bases("warm", 1, 1)

	// Two requests name a term the dictionary lacks and so read the whole
	// store until it arrives.
	absent := []string{"absent constant", "facets absent value"}
	with := func(names ...string) []string { return append(names, absent...) }
	loose := rdf.IRI(diffNS + "loose/0")
	e9, e13 := data.entity(9), data.entity(13)

	// An untyped fresh subject under a predicate of its own, as the writes
	// of bench/e2e's mixed_rw are: nothing but the whole-store views moves.
	d.add(rdf.T(loose, dProp("ingested"), rdf.NewLiteral("x")))
	d.expect("fresh untyped subject", d.check("fresh untyped subject"), true, with()...)
	// …the base under /hetree included: a new budget after the write cuts
	// the run collected before it.
	d.freshBudget("fresh untyped subject", 5)
	d.bases("fresh untyped subject", 1, 2)

	// …and taking it away again, which is its last triple.
	d.del(rdf.T(loose, dProp("ingested"), rdf.NewLiteral("x")))
	d.expect("last triple of a subject", d.check("last triple of a subject"), true, with()...)

	// A triple on a subject every facet view matched (e13 is of class 1
	// with cat0 = v1), under a predicate one query has a pattern for.
	d.add(rdf.T(e13, note, rdf.NewLiteral("n13")))
	d.expect("triple on a matched subject", d.check("triple on a matched subject"), true,
		with("optional", "facets", "facets class", "facets class+cat")...)

	// A new rdf:type: every facet view, the queries with a type pattern of
	// that class, and the neighbourhood that reached the class node.
	fresh := rdf.IRI(diffNS + "entity/fresh")
	d.add(rdf.T(fresh, typ, dClass(0)))
	d.expect("new rdf:type", d.check("new rdf:type"), true,
		with("facets", "facets class", "facets class+cat", "count all of a class", "open limit", "neighborhood full")...)

	// A new filter-pair triple on an untyped subject: only the view
	// filtered by that pair, and the query matching it.
	d.add(rdf.T(loose, dProp("cat0"), dCat(1)))
	d.expect("new filter pair", d.check("new filter pair"), true, with("facets class+cat", "filter order")...)

	// A value of the hierarchy's property.
	d.add(rdf.T(loose, dProp("num0"), rdf.NewDouble(0.25)))
	d.expect("hetree property value", d.check("hetree property value"), true, with("hetree", "hetree wide", "filter order", "values")...)
	d.bases("hetree property value", 2, 3) // collected again for the first budget, kept for the second

	// A triple pointing at a reached node, from a subject nothing reached.
	d.add(rdf.T(loose, dProp("seeAlso"), e9))
	d.expect("triple at a reached node", d.check("triple at a reached node"), true, with("neighborhood full")...)

	// The term a cached query's absent constant names arrives — in a
	// triple the query does not match, but the entry has the whole store
	// for a footprint. Rebuilt, it has a pattern like any other.
	// (By now loose is one of e9's neighbours; these come from elsewhere.)
	late, other := rdf.IRI(diffNS+"class/late"), rdf.IRI(diffNS+"loose/1")
	d.add(rdf.T(other, dProp("seeAlso"), late))
	d.expect("absent constant's term arrives", d.check("absent constant's term arrives"), true, with()...)
	absent = absent[1:]
	d.add(rdf.T(other, dProp("ingested"), rdf.NewLiteral("y")))
	d.expect("write beside the late constant", d.check("write beside the late constant"), true, with()...)
	d.add(rdf.T(fresh, typ, late))
	d.expect("late class gets a member", d.check("late class gets a member"), true,
		with("absent constant", "facets", "facets class", "facets class+cat")...)

	// Compaction changes the layout, not the content.
	st.Compact()
	d.expect("compact", d.check("compact"), false)

	// A batch the change log does not retain: every entry misses once, and
	// for want of a log, not for its footprint.
	big := make([]rdf.Triple, 70_000)
	for i := range big {
		big[i] = rdf.T(rdf.IRI(fmt.Sprintf("%sbulk/%d", diffNS, i)), dProp("ingested"), rdf.NewLiteral("b"))
	}
	d.add(big...)
	all := make([]string, 0, len(d.vocab))
	for _, r := range d.vocab {
		all = append(all, r.name)
	}
	d.expect("log overrun", d.check("log overrun"), true, all...)
	d.bases("log overrun", 3, 4) // no log to vouch for the base either
	_, _, metrics := serve(d.on, "/metrics")
	if strings.Contains(metrics, `lodviz_cache_invalidated_total{cause="log"} 0`) {
		t.Error("no invalidation was attributed to the log after a batch it does not retain")
	}
	d.expect("after the overrun", d.check("after the overrun"), false)
	d.freshBudget("after the overrun", 6)
	d.bases("after the overrun", 3, 5)
}

// TestHETreeBudgetsShareOneBase: requests for one property at budgets that
// never repeat are all response-cache misses, served side by side over one
// base, while a writer that never names the property moves the store on
// under them — the base is carried across every generation, not rebuilt.
// Run under -race.
func TestHETreeBudgetsShareOneBase(t *testing.T) {
	data := diffData{n: 200}
	st, err := store.Load(data.triples())
	if err != nil {
		t.Fatal(err)
	}
	s := New(st, Config{Logger: discardLogger()})
	const readers, each = 4, 40
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				code, xc, body := serve(s, hetreeTarget(1+r*each+i))
				var resp hetreeResponse
				if err := json.Unmarshal([]byte(body), &resp); code != http.StatusOK || xc != "MISS" || err != nil {
					t.Errorf("budget %d: status %d, X-Cache %s, decoding: %v", 1+r*each+i, code, xc, err)
					return
				}
				total := 0
				for _, n := range resp.Nodes {
					total += n.Count
				}
				if resp.Items != data.n || total != data.n || len(resp.Nodes) > 1+r*each+i {
					t.Errorf("budget %d: %d nodes covering %d of %d items", 1+r*each+i, len(resp.Nodes), total, resp.Items)
					return
				}
			}
		}(r)
	}
	for i := 0; i < 50; i++ {
		if err := st.Add(rdf.T(rdf.IRI(fmt.Sprintf("%sloose/%d", diffNS, i)), dProp("ingested"), rdf.NewLiteral("x"))); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if bs := s.bases.Stats(); bs.Built != 1 || bs.Reused != readers*each-1 {
		t.Fatalf("hetree bases built %d, reused %d; want 1, %d", bs.Built, bs.Reused, readers*each-1)
	}
}

// TestCacheDifferentialNoTypedSubject: with no typed subject the facet
// entity set is every subject, and the footprint the whole store — until a
// type appears, and again once the last one is gone.
func TestCacheDifferentialNoTypedSubject(t *testing.T) {
	st := store.New()
	a, b := rdf.IRI(diffNS+"a"), rdf.IRI(diffNS+"b")
	vocab := []diffRequest{
		{name: "facets", target: "/facets"},
		{name: "facets filtered", target: "/facets?filter=" + url.QueryEscape(string(dProp("cat0"))+"=v1")},
	}
	d := newDifferential(t, st, vocab)
	d.add(rdf.T(a, dProp("cat0"), dCat(1)), rdf.T(b, dProp("cat0"), dCat(2)))
	d.check("cold")
	d.expect("warm", d.check("warm"), false)

	// rdf:type is not even in the dictionary: any write is a miss.
	d.add(rdf.T(rdf.IRI(diffNS+"elsewhere"), dProp("ingested"), rdf.NewLiteral("x")))
	d.expect("fallback, unrelated write", d.check("fallback, unrelated write"), true, "facets", "facets filtered")

	// The first type moves the entity set from everything to {a}.
	d.add(rdf.T(a, rdf.RDFType, dClass(0)))
	d.expect("first type", d.check("first type"), true, "facets", "facets filtered")
	d.add(rdf.T(b, dProp("ingested"), rdf.NewLiteral("y")))
	d.expect("typed, write on an untyped subject", d.check("typed, write on an untyped subject"), true)

	// The last type goes: back to every subject — rdf:type now in the
	// dictionary, with no live statement.
	d.del(rdf.T(a, rdf.RDFType, dClass(0)))
	d.expect("last type gone", d.check("last type gone"), true, "facets", "facets filtered")
	d.add(rdf.T(b, dProp("ingested"), rdf.NewLiteral("z")))
	d.expect("fallback again", d.check("fallback again"), true, "facets", "facets filtered")
}

// TestCacheDifferentialRandomSchedules replays seeded random schedules of
// AddBatch / DeleteBatch / Compact, checking the whole vocabulary after
// every step, while readers keep the caching server busy with the same
// requests — under -race this is the test of everything validate.go shares.
func TestCacheDifferentialRandomSchedules(t *testing.T) {
	const steps = 60
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			data := diffData{n: 48}
			st, err := store.Load(data.triples())
			if err != nil {
				t.Fatal(err)
			}
			d := newDifferential(t, st, data.vocabulary())
			rng := rand.New(rand.NewSource(seed))

			stop := make(chan struct{})
			var readers sync.WaitGroup
			for r := 0; r < 3; r++ {
				readers.Add(1)
				go func(seed int64) {
					defer readers.Done()
					rng := rand.New(rand.NewSource(seed))
					for {
						select {
						case <-stop:
							return
						default:
						}
						req := d.vocab[rng.Intn(len(d.vocab))]
						if code, _, body := serve(d.on, req.target); code != http.StatusOK {
							t.Errorf("reader: %s: status %d: %s", req.name, code, body)
							return
						}
					}
				}(seed*100 + int64(r))
			}
			defer func() { close(stop); readers.Wait() }()

			// The pool a schedule draws its triples from: statements about
			// the entities and about subjects of its own, under the
			// dataset's predicates and two of its own, so that every
			// footprint rule is hit from both sides.
			subjects := []rdf.IRI{data.entity(5), data.entity(9), data.entity(20), data.entity(33),
				rdf.IRI(diffNS + "loose/0"), rdf.IRI(diffNS + "loose/1"), rdf.IRI(diffNS + "class/late")}
			random := func() rdf.Triple {
				s := subjects[rng.Intn(len(subjects))]
				switch rng.Intn(7) {
				case 0:
					return rdf.T(s, rdf.RDFType, []rdf.IRI{dClass(0), dClass(1), dClass(2), rdf.IRI(diffNS + "class/late")}[rng.Intn(4)])
				case 1:
					return rdf.T(s, dProp("cat0"), dCat(rng.Intn(4)))
				case 2:
					return rdf.T(s, dProp("num0"), rdf.NewDouble(1000+float64(rng.Intn(1000))+0.125))
				case 3:
					return rdf.T(s, dProp("rel0"), subjects[rng.Intn(len(subjects))])
				case 4:
					return rdf.T(s, dProp("note"), rdf.NewLiteral([]string{"w", "n"}[rng.Intn(2)]))
				case 5:
					return rdf.T(s, rdf.RDFSLabel, rdf.NewLiteral(fmt.Sprintf("Entity %d", rng.Intn(60))))
				default:
					return rdf.T(s, dProp("ingested"), rdf.NewLiteral(fmt.Sprint("i", rng.Intn(5))))
				}
			}
			var written []rdf.Triple
			d.check("cold")
			for i := 0; i < steps; i++ {
				var step string
				switch op := rng.Intn(10); {
				case op < 5:
					batch := make([]rdf.Triple, 1+rng.Intn(4))
					for j := range batch {
						batch[j] = random()
					}
					if _, err := st.AddBatch(batch); err != nil {
						t.Fatal(err)
					}
					written = append(written, batch...)
					step = fmt.Sprintf("step %d: add %v", i, batch)
				case op < 8 && len(written) > 0:
					j := rng.Intn(len(written))
					batch := []rdf.Triple{written[j]}
					if rng.Intn(3) == 0 { // sometimes a statement of the dataset itself
						batch = append(batch, data.triples()[rng.Intn(6*data.n)])
					}
					if _, err := st.DeleteBatch(batch); err != nil {
						t.Fatal(err)
					}
					step = fmt.Sprintf("step %d: delete %v", i, batch)
				case op == 8:
					st.Compact()
					step = fmt.Sprintf("step %d: compact", i)
				default:
					// Mostly a no-op batch: no generation, nothing to validate.
					if _, err := st.AddBatch([]rdf.Triple{data.triples()[0]}); err != nil {
						t.Fatal(err)
					}
					step = fmt.Sprintf("step %d: re-add a dataset triple", i)
				}
				d.check(step)
			}
		})
	}
}

// TestHETreeFollowsItsProperty: the /hetree entry and the base under it are
// validated against one footprint, (*, prop, *). A write under another
// property leaves both — the entry is a HIT, the base is not collected again;
// a write under the property drops the entry (cause "footprint") and
// collects the base again, once.
func TestHETreeFollowsItsProperty(t *testing.T) {
	data := diffData{n: 48}
	st, err := store.Load(data.triples())
	if err != nil {
		t.Fatal(err)
	}
	s := New(st, Config{Logger: discardLogger()})
	off := New(st, Config{Logger: discardLogger(), CacheCapacity: -1})
	step := func(name, wantXC string, built, byFootprint uint64) {
		t.Helper()
		_, _, want := serve(off, hetreeTarget(8))
		if code, xc, got := serve(s, hetreeTarget(8)); code != http.StatusOK || xc != wantXC || got != want {
			t.Fatalf("%s: status %d, X-Cache %s (want %s), body\n%s\nwant\n%s", name, code, xc, wantXC, got, want)
		}
		if b, f := s.bases.Stats().Built, s.met.cacheByFootprint.Value(); b != built || f != byFootprint {
			t.Fatalf("%s: bases built %d, entries dropped by footprint %d; want %d, %d", name, b, f, built, byFootprint)
		}
	}
	step("cold", "MISS", 1, 0)
	for i, p := range []string{"cat0", "rel0", "ingested"} {
		if err := st.Add(rdf.T(data.entity(i), dProp(p), rdf.NewLiteral("x"))); err != nil {
			t.Fatal(err)
		}
		step("write under "+p, "HIT", 1, 0)
	}
	if err := st.Add(rdf.T(data.entity(3), dProp("num0"), rdf.NewDouble(-1))); err != nil {
		t.Fatal(err)
	}
	step("write under num0", "MISS", 2, 1)
	step("again", "HIT", 2, 1)
}

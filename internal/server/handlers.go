package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/lodviz/lodviz/internal/explain"
	"github.com/lodviz/lodviz/internal/explore"
	"github.com/lodviz/lodviz/internal/facet"
	"github.com/lodviz/lodviz/internal/federation"
	"github.com/lodviz/lodviz/internal/hetree"
	"github.com/lodviz/lodviz/internal/ntriples"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/sparql"
	"github.com/lodviz/lodviz/internal/store"
)

// maxQueryBytes bounds a POSTed SPARQL query body.
const maxQueryBytes = 1 << 20

// maxIngestBytes bounds one POST /triples body.
const maxIngestBytes = 64 << 20

// handleSPARQL implements the SPARQL 1.1 Protocol query and update
// operations on one endpoint. A query arrives as ?query= on GET, as a form
// field on an urlencoded POST, or as the raw body with Content-Type
// application/sparql-query; results are SPARQL JSON, written by
// Stream.JSON: the query driver /sparql/stream runs, so a query takes the
// same source on both routes, and its rows go into one body as the column
// vectors the driver emits, never as Bindings. An update arrives only
// by POST — as an `update` form field or a raw application/sparql-update
// body — and is dispatched to handleUpdate. Query responses are cached
// under the whitespace/comment-normalized query text, with the query's
// triple patterns as their footprint — except queries with a SERVICE
// clause, whose results depend on remote data no local change log can see;
// those bypass the response cache and rely on the federation layer's
// TTL-bounded remote-result cache instead.
func (s *Server) handleSPARQL(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	q, isUpdate, errStatus, errMsg := sparqlRequestText(r, params)
	if errStatus != 0 {
		writeError(w, errStatus, errMsg)
		return
	}
	if isUpdate {
		s.handleUpdate(w, r, q)
		return
	}
	// ?explain=1 attaches the per-query execution trace to the response.
	// Explained responses always bypass the cache: the trace describes the
	// evaluation that just ran, and a cached body would carry none.
	explainReq := params.Get("explain") == "1"
	norm := NormalizeQuery(q)
	// The query is parsed here, on a miss, rather than inside the engine:
	// the syntax tree is also what names the entry's footprint.
	build := func() result {
		ctx, cancel := s.queryCtx(r)
		defer cancel()
		var tr *explain.Trace
		if explainReq || s.cfg.SlowQueryThreshold > 0 {
			tr = explain.NewTrace()
		}
		start := time.Now()
		parsed, err := sparql.Parse(q)
		if tr != nil {
			tr.Add(nil, "parse").Set("", "", 0, 0, start)
		}
		var body []byte
		rows := 0
		if err == nil {
			body, rows, err = sparql.PrepareStreamQuery(ctx, s.source(), parsed, sparql.Options{
				Parallelism: s.cfg.Parallelism, Service: s.mesh,
				Metrics: s.engineMet, Trace: tr,
			}).JSON()
		}
		tr.Finish()
		s.noteSlowQuery(q, time.Since(start), rows, tr)
		if err != nil {
			return errorResult(queryError(err))
		}
		if explainReq {
			tb, err := tr.MarshalJSON()
			if err != nil {
				return errorResult(http.StatusInternalServerError, "encoding trace: "+err.Error())
			}
			// The member goes before the document's closing brace.
			body = append(append(append(body[:len(body)-1], `,"explain":`...), tb...), '}')
		}
		return result{body: body, contentType: sparql.JSONContentType, status: http.StatusOK, reads: parsed.Footprint(s.st)}
	}
	if explainReq || queryUsesService(norm, q) {
		s.serveUncached(w, r, build)
		return
	}
	s.serveCached(w, r, "sparql|"+norm, build)
}

// noteSlowQuery counts and logs a query at or over the slow-query
// threshold, with the execution-plan summary from its trace.
func (s *Server) noteSlowQuery(q string, dur time.Duration, rows int, tr *explain.Trace) {
	if s.cfg.SlowQueryThreshold <= 0 || dur < s.cfg.SlowQueryThreshold {
		return
	}
	s.met.slowQueries.Inc()
	if len(q) > 400 {
		q = q[:400] + "…"
	}
	s.cfg.Logger.Warn("slow query",
		"dur", dur.Round(time.Microsecond).String(),
		"rows", rows,
		"query", q,
		"plan", tr.Summary(),
	)
}

// queryUsesService detects a SERVICE clause exactly. The substring check
// is a pre-filter keeping the common cached path parse-free (a SERVICE
// clause cannot exist without the literal keyword; comments are already
// stripped from norm); only queries containing the word pay one extra
// parse, so an IRI or literal that merely mentions "service" keeps its
// cacheability. Unparseable queries return true — the 400 they produce is
// not cacheable anyway.
func queryUsesService(norm, raw string) bool {
	if !strings.Contains(strings.ToUpper(norm), "SERVICE") {
		return false
	}
	parsed, err := sparql.Parse(raw)
	if err != nil {
		return true
	}
	return sparql.HasService(parsed.Where)
}

// sparqlRequestText extracts the query or update string per the SPARQL
// Protocol; params are the request's URL query parameters, parsed once by
// the caller. A non-zero status signals a client error. Updates ride only
// on POST — the protocol has no GET binding for updates, so ?update= on a
// GET is just an absent query.
func sparqlRequestText(r *http.Request, params url.Values) (q string, isUpdate bool, errStatus int, errMsg string) {
	switch r.Method {
	case http.MethodGet:
		q = params.Get("query")
	case http.MethodPost:
		ct := r.Header.Get("Content-Type")
		if i := strings.IndexByte(ct, ';'); i >= 0 {
			ct = ct[:i]
		}
		ct = strings.TrimSpace(ct)
		switch ct {
		case "application/x-www-form-urlencoded", "":
			r.Body = http.MaxBytesReader(nil, r.Body, maxQueryBytes)
			if err := r.ParseForm(); err != nil {
				return "", false, http.StatusBadRequest, "parsing form body: " + err.Error()
			}
			q = r.PostForm.Get("query")
			if u := r.PostForm.Get("update"); u != "" {
				if q != "" {
					return "", false, http.StatusBadRequest, "request carries both query and update"
				}
				return u, true, 0, ""
			}
		case "application/sparql-query", "application/sparql-update":
			body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxQueryBytes))
			if err != nil {
				return "", false, http.StatusBadRequest, "reading query body: " + err.Error()
			}
			q = string(body)
			if ct == "application/sparql-update" {
				if strings.TrimSpace(q) == "" {
					return "", false, http.StatusBadRequest, "missing update body"
				}
				return q, true, 0, ""
			}
		default:
			return "", false, http.StatusUnsupportedMediaType, "unsupported Content-Type " + ct +
				" (use application/x-www-form-urlencoded, application/sparql-query, or application/sparql-update)"
		}
	}
	if strings.TrimSpace(q) == "" {
		return "", false, http.StatusBadRequest, "missing query parameter"
	}
	return q, false, 0, ""
}

// updateResponse is the JSON shape of a successful SPARQL update.
type updateResponse struct {
	Inserted   int    `json:"inserted"`
	Deleted    int    `json:"deleted"`
	Ops        int    `json:"ops"`
	Generation uint64 `json:"generation"`
}

// handleUpdate executes a SPARQL update request. Updates share /sparql's
// route (the protocol says the update operation may live on the query
// endpoint), and that route is CORS-enabled for browser exploration UIs —
// so its preflight would approve a cross-origin POST that this
// unauthenticated server must not honor for writes. Mirroring writeRoute's
// policy on POST /triples, any update bearing an Origin header is refused
// before execution: browser UIs read cross-origin, writes stay same-origin
// (or non-browser). Nothing is done about the response cache here: an
// effective update advances the store generation and is logged, and each
// cached entry is checked against the log when it is next asked for.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request, text string) {
	if r.Header.Get("Origin") != "" {
		writeError(w, http.StatusForbidden, "cross-origin SPARQL updates are not allowed")
		return
	}
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	res, err := sparql.ExecUpdateCtx(ctx, s.st, text, sparql.Options{Parallelism: s.cfg.Parallelism, Metrics: s.engineMet})
	if err != nil {
		status, msg := queryError(err)
		writeError(w, status, msg)
		return
	}
	writeJSON(w, http.StatusOK, updateResponse{
		Inserted:   res.Inserted,
		Deleted:    res.Deleted,
		Ops:        res.Ops,
		Generation: s.st.Generation(),
	})
}

// handleLedgerRoot serves the mutation ledger's current root and coverage.
// 404 when the server runs without a WAL-backed ledger. Never cached: the
// root must reflect the instant it is asked.
func (s *Server) handleLedgerRoot(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Ledger == nil {
		writeError(w, http.StatusNotFound, "no mutation ledger configured (start with -wal)")
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Ledger.Root())
}

// handleLedgerProof serves an inclusion proof for one WAL sequence
// (?seq=N) against the current ledger root.
func (s *Server) handleLedgerProof(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Ledger == nil {
		writeError(w, http.StatusNotFound, "no mutation ledger configured (start with -wal)")
		return
	}
	seq, err := strconv.ParseUint(r.URL.Query().Get("seq"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "seq must be a non-negative integer")
		return
	}
	proof, err := s.cfg.Ledger.Proof(seq)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, proof)
}

// facetsResponse is the /facets JSON shape.
type facetsResponse struct {
	Count  int         `json:"count"`
	Facets []facetJSON `json:"facets"`
}

type facetJSON struct {
	Predicate string           `json:"predicate"`
	Total     int              `json:"total"`
	Values    []facetValueJSON `json:"values"`
}

type facetValueJSON struct {
	Term  sparql.JSONTerm `json:"term"`
	Count int             `json:"count"`
}

// facetParams validates the /facets and /facets/stream parameters:
// conjunctive restrictions arrive as repeated filter=<predicate>=<value>
// parameters (rawFilters keeps their wire form for canonical cache keys);
// max=<n> caps values listed per facet.
func (s *Server) facetParams(params url.Values) (max int, filters []facet.Filter, rawFilters []string, errStatus int, errMsg string) {
	max = s.cfg.MaxFacetValues
	if v := params.Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return 0, nil, nil, http.StatusBadRequest, "max must be a positive integer"
		}
		max = n
	}
	rawFilters = append(rawFilters, params["filter"]...)
	sort.Strings(rawFilters)
	for _, f := range rawFilters {
		// A bracketed predicate IRI may itself hold '=' (a query string):
		// it ends at the '>' before the separator, not at the first '='.
		pred, val, ok := strings.Cut(f, "=")
		if strings.HasPrefix(f, "<") {
			if _, val, ok = strings.Cut(f, ">="); ok {
				pred = f[:len(f)-len(val)-1]
			}
		}
		if !ok {
			return 0, nil, nil, http.StatusBadRequest, "filter must be <predicate>=<value>: " + f
		}
		term, err := parseTermParam(val)
		if err != nil {
			return 0, nil, nil, http.StatusBadRequest, "filter value: " + err.Error()
		}
		predicate, err := parseIRIParam(pred)
		if err != nil {
			return 0, nil, nil, http.StatusBadRequest, "filter predicate: " + err.Error()
		}
		filters = append(filters, facet.Filter{Predicate: predicate, Value: term})
	}
	return max, filters, rawFilters, 0, ""
}

// facetsKey is the canonical facet cache key: defaulted max and sorted
// filters, so /facets, /facets?max=<default>, and a completed
// /facets/stream all land on the same entry.
func (s *Server) facetsKey(max int, rawFilters []string) string {
	return "facets|m" + strconv.Itoa(max) + "|" + strings.Join(rawFilters, "\x00")
}

// facetSession opens a facet session over the kept typed-subject base with
// the request's cap and filters.
func (s *Server) facetSession(ctx context.Context, max int, filters []facet.Filter) (*facet.Session, error) {
	sess, err := s.typed.Session(ctx)
	if err != nil {
		return nil, err
	}
	sess.MaxValuesPerFacet = max
	for _, f := range filters {
		sess.Apply(f)
	}
	return sess, nil
}

// buildFacets runs the ID-space facet computation; shared by the buffered
// handler and warm jobs (the streaming handler's exact final batch goes
// through the same encoder), so all three produce byte-identical JSON.
func (s *Server) buildFacets(ctx context.Context, max int, filters []facet.Filter) result {
	sess, err := s.facetSession(ctx, max, filters)
	if err != nil {
		return errorResult(queryError(err))
	}
	count, fs, err := sess.CountAndFacetsCtx(ctx)
	if err != nil {
		return errorResult(queryError(err))
	}
	return jsonResult(encodeFacetsResponse(count, fs), sess.Footprint())
}

func encodeFacetsResponse(count int, fs []facet.Facet) facetsResponse {
	resp := facetsResponse{Count: count, Facets: []facetJSON{}}
	for _, f := range fs {
		fj := facetJSON{Predicate: string(f.Predicate), Total: f.Total, Values: []facetValueJSON{}}
		for _, v := range f.Values {
			fj.Values = append(fj.Values, facetValueJSON{Term: sparql.EncodeTerm(v.Term), Count: v.Count})
		}
		resp.Facets = append(resp.Facets, fj)
	}
	return resp
}

// handleFacets computes facet distributions over the dataset's entity set —
// in dictionary-ID space, with the request context (bounded by the query
// timeout) threaded into the scans. Serving a filtered view schedules
// background warming of its ancestor views when Config.FacetWarming is on.
func (s *Server) handleFacets(w http.ResponseWriter, r *http.Request) {
	max, filters, rawFilters, errStatus, errMsg := s.facetParams(r.URL.Query())
	if errStatus != 0 {
		writeError(w, errStatus, errMsg)
		return
	}
	s.serveCached(w, r, s.facetsKey(max, rawFilters), func() result {
		ctx, cancel := s.queryCtx(r)
		defer cancel()
		return s.buildFacets(ctx, max, filters)
	})
	s.warmFacetAncestors(max, filters, rawFilters)
}

// warmFacetAncestors schedules background builds of the filter-prefix views
// of a just-served facet request: a browsing session that drilled down is
// one click from zooming back out, so those responses are built off the
// request path and put in the response cache. A view that is cached and
// still valid is left alone — which, entries surviving unrelated writes, is
// the usual case — as is one whose job is already queued or running. Jobs
// are bounded by a small semaphore and take their turn on the key like any
// request, so a view is never built twice at once.
func (s *Server) warmFacetAncestors(max int, filters []facet.Filter, rawFilters []string) {
	if s.warmSem == nil || len(filters) == 0 {
		return
	}
	gen := s.st.Generation()
	for i := len(filters) - 1; i >= 0; i-- {
		key := s.facetsKey(max, rawFilters[:i])
		if s.cache.Holds(key, gen, s.unchanged) {
			continue
		}
		if _, first := s.warming.join(key); !first {
			continue
		}
		prefix := filters[:i]
		go func() {
			defer s.warming.leave(key)
			s.warmSem <- struct{}{}
			defer func() { <-s.warmSem }()
			gen := s.st.Generation()
			if s.cache.Holds(key, gen, s.unchanged) {
				return
			}
			if _, leader := s.builds.join(key); !leader {
				return // a request is building it
			}
			e := s.buildAndCache(key, gen, func() result {
				// Warm jobs deliberately outlive the request that spawned
				// them; their lifetime is the query timeout, not the request.
				//lint:allow ctxflow detached cache-warm job: bounded by QueryTimeout, must survive the originating request
				ctx, cancel := context.WithTimeout(context.Background(), s.cfg.QueryTimeout)
				defer cancel()
				return s.buildFacets(ctx, max, prefix)
			})
			if e.Status == http.StatusOK && s.warmHook != nil {
				s.warmHook(key)
			}
		}()
	}
}

// neighborhoodResponse is the /graph/neighborhood JSON shape: nodes carries
// the induced vertex set (the start node first), edges refers to nodes by
// index. sampled and coverage appear when a sample= request truncated a
// huge-fanout node: coverage is the worst per-node fraction of adjacent
// statements actually expanded.
type neighborhoodResponse struct {
	Node     string            `json:"node"`
	Hops     int               `json:"hops"`
	Nodes    []sparql.JSONTerm `json:"nodes"`
	Edges    []edgeJSON        `json:"edges"`
	Sampled  bool              `json:"sampled,omitempty"`
	Coverage float64           `json:"coverage,omitempty"`
}

type edgeJSON struct {
	From  int    `json:"from"`
	To    int    `json:"to"`
	Label string `json:"label"`
}

// handleNeighborhood returns the k-hop neighborhood subgraph of one resource
// (node=<IRI>, hops=<n>, default 1) — the incremental-exploration primitive
// graph front-ends issue on every node expansion. The traversal runs
// directly over the store's ID permutations (the old implementation rebuilt
// the entire materialized graph per request), so the cost is proportional
// to the neighborhood. sample=<k> bounds the expanded statements per node
// through seed-deterministic reservoirs (seed=<n>, default 0) for
// huge-fanout nodes; the response then reports sampled and coverage.
func (s *Server) handleNeighborhood(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	nodeParam := params.Get("node")
	if nodeParam == "" {
		writeError(w, http.StatusBadRequest, "missing node parameter")
		return
	}
	term, err := parseTermParam(nodeParam)
	if err != nil {
		writeError(w, http.StatusBadRequest, "node: "+err.Error())
		return
	}
	hops := 1
	if v := params.Get("hops"); v != "" {
		hops, err = strconv.Atoi(v)
		if err != nil || hops < 1 || hops > 8 {
			writeError(w, http.StatusBadRequest, "hops must be an integer in [1,8]")
			return
		}
	}
	sample := 0
	if v := params.Get("sample"); v != "" {
		sample, err = strconv.Atoi(v)
		if err != nil || sample < 1 {
			writeError(w, http.StatusBadRequest, "sample must be a positive integer")
			return
		}
	}
	var seed int64
	if v := params.Get("seed"); v != "" {
		seed, err = strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "seed must be an integer")
			return
		}
	}
	s.serveCached(w, r, cacheKey(r.URL.Path, params), func() result {
		ctx, cancel := s.queryCtx(r)
		defer cancel()
		nb, err := explore.FindNeighborhood(ctx, s.source(), term, explore.NeighborhoodOptions{
			Hops: hops, Sample: sample, Seed: seed,
		})
		if errors.Is(err, explore.ErrNodeNotFound) {
			return errorResult(http.StatusNotFound, "node not found: "+term.String())
		}
		if err != nil {
			return errorResult(queryError(err))
		}
		resp := neighborhoodResponse{
			Node: term.String(), Hops: hops, Edges: []edgeJSON{},
			Sampled: nb.Sampled, Coverage: nb.Coverage,
		}
		if !nb.Sampled {
			resp.Coverage = 0 // omitted from JSON; implied 1 for exact results
		}
		for _, n := range nb.Nodes {
			resp.Nodes = append(resp.Nodes, sparql.EncodeTerm(n))
		}
		for _, e := range nb.Edges {
			resp.Edges = append(resp.Edges, edgeJSON{From: e.From, To: e.To, Label: string(e.Pred)})
		}
		return jsonResult(resp, nb.Footprint())
	})
}

// hetreeResponse is the /hetree JSON shape: the budget-bounded level cut of
// the hierarchical aggregation tree over one numeric property.
type hetreeResponse struct {
	Property string           `json:"property"`
	Mode     string           `json:"mode"`
	Height   int              `json:"height"`
	Items    int              `json:"items"`
	Nodes    []hetreeNodeJSON `json:"nodes"`
}

type hetreeNodeJSON struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Depth int     `json:"depth"`
	Leaf  bool    `json:"leaf"`
}

// handleHETree serves the multilevel numeric overview (prop=<IRI>,
// budget=<maxNodes>, default 64): the widest tree level that fits the budget.
// The tree is cut from the statements of prop and nothing else, which is
// the entry's footprint — and that of the base kept under it (s.bases), so a
// miss at a new budget materializes its nodes over values already sorted.
func (s *Server) handleHETree(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	propParam := params.Get("prop")
	if propParam == "" {
		writeError(w, http.StatusBadRequest, "missing prop parameter")
		return
	}
	budget := 64
	if v := params.Get("budget"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "budget must be a positive integer")
			return
		}
		budget = n
	}
	prop, err := parseIRIParam(propParam)
	if err != nil {
		writeError(w, http.StatusBadRequest, "prop: "+err.Error())
		return
	}
	s.serveCached(w, r, cacheKey(r.URL.Path, params), func() result {
		ctx, cancel := s.queryCtx(r)
		defer cancel()
		tree, err := s.bases.Tree(ctx, prop, hetree.DefaultOptions())
		if errors.Is(err, hetree.ErrNoValues) {
			return errorResult(http.StatusNotFound, fmt.Sprintf("property %s has no numeric or temporal values", prop))
		}
		if err != nil {
			return errorResult(queryError(err))
		}
		resp := hetreeResponse{
			Property: string(prop),
			Mode:     tree.Mode().String(),
			Height:   tree.Height(),
			Items:    tree.Len(),
			Nodes:    []hetreeNodeJSON{},
		}
		for _, n := range tree.LevelFor(budget) {
			resp.Nodes = append(resp.Nodes, hetreeNodeJSON{
				Lo: n.Lo, Hi: n.Hi, Count: n.Count, Mean: n.Mean(),
				Min: n.Min, Max: n.Max, Depth: n.Depth, Leaf: n.IsLeaf(),
			})
		}
		var reads store.Footprint
		if pid, ok := s.st.LookupTermID(prop); ok {
			reads.Patterns = []store.IDTriple{{P: pid}}
		}
		return jsonResult(resp, reads)
	})
}

// statsResponse is the /stats JSON shape.
type statsResponse struct {
	Triples    int             `json:"triples"`
	Terms      int             `json:"terms"`
	Predicates []predStatJSON  `json:"predicates"`
	Classes    []classStatJSON `json:"classes"`
}

type predStatJSON struct {
	Predicate        string `json:"predicate"`
	Triples          int    `json:"triples"`
	DistinctSubjects int    `json:"distinctSubjects"`
	DistinctObjects  int    `json:"distinctObjects"`
	LiteralObjects   int    `json:"literalObjects"`
}

type classStatJSON struct {
	Class sparql.JSONTerm `json:"class"`
	Count int             `json:"count"`
}

// statsKey is the canonical /stats cache key; the completed streaming
// endpoint fills the same entry.
const statsKey = "stats"

// wholeStore is the footprint of a response that any write may change: the
// totals of /stats, and the rankings of /search and /complete, whose weights
// move with every document. Such an entry lasts one generation.
var wholeStore = store.Footprint{}

// encodeStatsResponse converts store.Stats to the /stats JSON shape; shared
// by the buffered handler and the streaming handler's exact final batch so
// both produce byte-identical JSON.
func encodeStatsResponse(stats store.Stats) statsResponse {
	resp := statsResponse{
		Triples:    stats.Triples,
		Terms:      stats.Terms,
		Predicates: []predStatJSON{},
		Classes:    []classStatJSON{},
	}
	for _, p := range stats.Predicates {
		resp.Predicates = append(resp.Predicates, predStatJSON{
			Predicate:        string(p.Predicate),
			Triples:          p.Triples,
			DistinctSubjects: p.DistinctSubjects,
			DistinctObjects:  p.DistinctObjects,
			LiteralObjects:   p.LiteralObjects,
		})
	}
	// Classes by count, then in term order: two classes may share a count
	// and a lexical form ("a"@en and "a"@de, an IRI and a literal), and the
	// body and its ETag must not depend on map order.
	classes := make([]rdf.Term, 0, len(stats.Classes))
	for cls := range stats.Classes {
		classes = append(classes, cls)
	}
	sort.Slice(classes, func(i, j int) bool {
		if ni, nj := stats.Classes[classes[i]], stats.Classes[classes[j]]; ni != nj {
			return ni > nj
		}
		return rdf.Compare(classes[i], classes[j]) < 0
	})
	for _, cls := range classes {
		resp.Classes = append(resp.Classes, classStatJSON{Class: sparql.EncodeTerm(cls), Count: stats.Classes[cls]})
	}
	return resp
}

// handleStats serves the dataset summary (LODeX-style source statistics).
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.serveCached(w, r, statsKey, func() result {
		return jsonResult(encodeStatsResponse(s.st.ComputeStats()), wholeStore)
	})
}

// ingestResponse is the POST /triples JSON shape. Added counts the triples
// that actually changed the store (duplicates of existing triples count
// zero), so clients can tell a no-op ingest from a mutating one.
type ingestResponse struct {
	Added      int    `json:"added"`
	Received   int    `json:"received"`
	Triples    int    `json:"triples"`
	Generation uint64 `json:"generation"`
}

// handleIngest applies an N-Triples batch from the request body — the
// dynamic-data path. The whole batch is decoded and validated before the
// store is touched and then applied in one atomic AddBatch, so a 400
// response (malformed syntax or an invalid triple anywhere in the body)
// guarantees the store is exactly as it was: no partial writes, no spurious
// generation bump, no cache invalidation. A batch that does change the store
// advances the generation exactly once.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	// The full batch must be in hand before the store is touched (that is
	// what makes the write atomic), so decode with ReadAll; the wire bytes
	// still stream through the reader's fixed line buffer.
	triples, err := ntriples.ReadAll(http.MaxBytesReader(w, r.Body, maxIngestBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	added, err := s.st.AddBatch(triples)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ingestResponse{
		Added:      added,
		Received:   len(triples),
		Triples:    s.st.Len(),
		Generation: s.st.Generation(),
	})
}

// limitParam reads a positive ?limit= capped at 100 (default def).
func limitParam(params url.Values, def int) (int, error) {
	v := params.Get("limit")
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("limit must be a positive integer")
	}
	if n > 100 {
		n = 100
	}
	return n, nil
}

// searchResponse is the /search JSON shape.
type searchResponse struct {
	Query string          `json:"query"`
	Hits  []searchHitJSON `json:"hits"`
}

type searchHitJSON struct {
	Entity  sparql.JSONTerm `json:"entity"`
	Score   float64         `json:"score"`
	Snippet string          `json:"snippet"`
}

// handleSearch serves TF-IDF ranked keyword search over the dataset's
// literals and local names (q=<text>, limit=<n> default 10) — the "find a
// starting node" primitive of node-centric exploration, now reachable over
// HTTP.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	q := params.Get("q")
	if strings.TrimSpace(q) == "" {
		writeError(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	limit, err := limitParam(params, 10)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.serveCached(w, r, cacheKey(r.URL.Path, params), func() result {
		resp := searchResponse{Query: q, Hits: []searchHitJSON{}}
		for _, h := range s.kw.Search(q, limit) {
			resp.Hits = append(resp.Hits, searchHitJSON{
				Entity:  sparql.EncodeTerm(h.Entity),
				Score:   h.Score,
				Snippet: h.Snippet,
			})
		}
		return jsonResult(resp, wholeStore)
	})
}

// completeResponse is the /complete JSON shape.
type completeResponse struct {
	Prefix      string   `json:"prefix"`
	Completions []string `json:"completions"`
}

// handleComplete serves prefix completion over the indexed tokens
// (prefix=<text>, limit=<n> default 10) — the type-ahead primitive.
func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	prefix := params.Get("prefix")
	if strings.TrimSpace(prefix) == "" {
		writeError(w, http.StatusBadRequest, "missing prefix parameter")
		return
	}
	limit, err := limitParam(params, 10)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.serveCached(w, r, cacheKey(r.URL.Path, params), func() result {
		comps := s.kw.Complete(prefix, limit)
		if comps == nil {
			comps = []string{}
		}
		return jsonResult(completeResponse{Prefix: prefix, Completions: comps}, wholeStore)
	})
}

// federationResponse is the /federation JSON shape.
type federationResponse struct {
	Endpoints []federation.EndpointStatus `json:"endpoints"`
	Cache     federation.CacheStats       `json:"cache"`
}

// handleFederation reports the health of every remote endpoint this node
// federates with — circuit state, latency EWMA, failure counts — plus the
// remote-result cache counters. Never cached: it is the
// operator's live view of the mesh.
func (s *Server) handleFederation(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, federationResponse{Endpoints: s.mesh.Status(), Cache: s.mesh.CacheStats()})
}

// healthzResponse is the /healthz JSON shape: liveness plus the store,
// cache, durability, and ledger state an operator checks first.
type healthzResponse struct {
	Status        string           `json:"status"`
	UptimeSeconds float64          `json:"uptimeSeconds"`
	Triples       int              `json:"triples"`
	Terms         int              `json:"terms"`
	Generation    uint64           `json:"generation"`
	LayoutEpoch   uint64           `json:"layoutEpoch"`
	DeltaTriples  int              `json:"deltaTriples"`
	Tombstones    int              `json:"tombstones"`
	Cache         *cacheHealth     `json:"cache,omitempty"`
	WAL           *walHealth       `json:"wal,omitempty"`
	Snapshot      *snapshotHealth  `json:"snapshot,omitempty"`
	Ledger        *ledgerRootBrief `json:"ledger,omitempty"`
}

type cacheHealth struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
}

type walHealth struct {
	// FrontierSeq is the highest sequence written (not necessarily
	// fsynced); SyncPolicy describes when writes become durable.
	FrontierSeq uint64 `json:"frontierSeq"`
	SyncPolicy  string `json:"syncPolicy,omitempty"`
}

type snapshotHealth struct {
	// SavedAt is the last successful snapshot write in RFC 3339;
	// AgeSeconds is how stale it is now. Both absent until the first save.
	SavedAt    string  `json:"savedAt,omitempty"`
	AgeSeconds float64 `json:"ageSeconds,omitempty"`
}

type ledgerRootBrief struct {
	Root    string `json:"root"`
	Leaves  uint64 `json:"leaves"`
	LastSeq uint64 `json:"lastSeq,omitempty"`
}

// handleHealthz reports liveness plus the serving counters operators watch.
// Never cached: it must reflect the instant it is asked.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ob := s.st.Observe()
	resp := healthzResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.started).Seconds(),
		Triples:       ob.Triples,
		Terms:         ob.Terms,
		Generation:    ob.Generation,
		LayoutEpoch:   ob.LayoutEpoch,
		DeltaTriples:  ob.Delta,
		Tombstones:    ob.Tombstones,
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		resp.Cache = &cacheHealth{
			Hits: cs.Hits, Misses: cs.Misses, Evictions: cs.Evictions,
			Entries: cs.Entries, Capacity: cs.Capacity,
		}
	}
	if s.cfg.WAL != nil {
		resp.WAL = &walHealth{FrontierSeq: s.cfg.WAL.LastSeq(), SyncPolicy: s.cfg.WALSyncDesc}
	}
	if s.cfg.SnapshotSavedAt != nil {
		sh := &snapshotHealth{}
		if at := s.cfg.SnapshotSavedAt(); !at.IsZero() {
			sh.SavedAt = at.UTC().Format(time.RFC3339)
			sh.AgeSeconds = time.Since(at).Seconds()
		}
		resp.Snapshot = sh
	}
	if s.cfg.Ledger != nil {
		info := s.cfg.Ledger.Root()
		resp.Ledger = &ledgerRootBrief{Root: info.Root, Leaves: info.Count, LastSeq: info.LastSeq}
	}
	writeJSON(w, http.StatusOK, resp)
}

// parseTermParam reads an RDF term from a query parameter, in the syntax
// data files and queries use (rdf.ParseTerm): <iri>, _:label, or "lexical"
// with its escapes and an optional @lang or ^^<datatype>. Two bare spellings
// stay for URLs typed by hand: a value holding ':' is an IRI, any other a
// plain string literal.
func parseTermParam(s string) (rdf.Term, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "":
		return nil, errors.New("empty term")
	case s[0] == '<' || s[0] == '"' || strings.HasPrefix(s, "_:"):
		return rdf.ParseTerm(s)
	case strings.Contains(s, ":"):
		return rdf.IRI(s), nil
	default:
		return rdf.NewLiteral(s), nil
	}
}

// parseIRIParam reads a parameter that names a property: <iri> or the bare
// IRI.
func parseIRIParam(s string) (rdf.IRI, error) {
	t, err := parseTermParam(s)
	if err != nil {
		return "", err
	}
	iri, ok := t.(rdf.IRI)
	if !ok {
		return "", fmt.Errorf("%s is not an IRI", t)
	}
	return iri, nil
}

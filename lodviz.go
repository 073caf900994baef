// Package lodviz is an exploration server for the Web of (Big) Linked Data.
//
// It implements the serving core argued for in "Exploration and
// Visualization in the Web of Big Linked Data: A Survey of the State of the
// Art" (Bikakis & Sellis, LWDM/EDBT 2016): interactive response at scale,
// computing only what the current view needs. The stack is an RDF substrate
// (data model, N-Triples/Turtle parsers, a dictionary-encoded triple store
// with four permutation indexes, a SPARQL engine with streaming delivery and
// federation) and, on top of it, faceted browsing, HETree numeric
// hierarchies, keyword search, bounded graph neighbourhoods and progressive
// NDJSON streams, served over HTTP with a response cache and a write-ahead
// log.
//
// The root package is the curated façade; the implementation lives in
// internal/ subpackages. Start with:
//
//	ds, err := lodviz.LoadTurtle(src)
//	res, err := ds.QueryCtx(ctx, `SELECT ?s WHERE { ?s a <http://...> }`, lodviz.QueryOptions{})
//	sess, err := ds.Facets(ctx)
//	err = ds.Serve(ctx, ":8080", lodviz.ServerConfig{})
package lodviz

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"

	"github.com/lodviz/lodviz/internal/explore"
	"github.com/lodviz/lodviz/internal/facet"
	"github.com/lodviz/lodviz/internal/federation"
	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/keyword"
	"github.com/lodviz/lodviz/internal/progressive"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/server"
	"github.com/lodviz/lodviz/internal/sparql"
	"github.com/lodviz/lodviz/internal/store"
	"github.com/lodviz/lodviz/internal/turtle"
)

// Re-exported core types. These aliases form the public vocabulary of the
// API; the implementations live in internal packages.
type (
	// Term is an RDF term (IRI, blank node, or literal).
	Term = rdf.Term
	// IRI is an RDF IRI.
	IRI = rdf.IRI
	// Literal is an RDF literal.
	Literal = rdf.Literal
	// BlankNode is an RDF blank node.
	BlankNode = rdf.BlankNode
	// Triple is an RDF statement.
	Triple = rdf.Triple
	// Results holds SPARQL query results.
	Results = sparql.Results
	// Binding is one SPARQL solution row.
	Binding = sparql.Binding
	// FacetSession is a faceted-browsing session.
	FacetSession = facet.Session
	// FacetFilter is one conjunctive facet restriction.
	FacetFilter = facet.Filter
	// FacetBatch is one approximate snapshot of a progressive facet scan.
	FacetBatch = facet.Batch
	// FacetEstimate is one facet's progressive distribution estimate.
	FacetEstimate = facet.FacetEstimate
	// FacetValueEstimate is one facet value's progressive count estimate.
	FacetValueEstimate = facet.ValueEstimate
	// Estimate is a CLT-bounded progressive estimate (value ± CI95).
	Estimate = progressive.Estimate
	// Neighborhood is a bounded graph neighborhood around an entity.
	Neighborhood = explore.Neighborhood
	// NeighborEdge is one edge of a Neighborhood.
	NeighborEdge = explore.NeighborEdge
	// NeighborhoodOptions bounds a neighborhood expansion.
	NeighborhoodOptions = explore.NeighborhoodOptions
	// StatsBatch is one approximate snapshot of a progressive stats scan.
	StatsBatch = explore.StatsBatch
	// DatasetStats summarizes a dataset (per-predicate and class counts).
	DatasetStats = store.Stats
	// SearchHit is one keyword-search result.
	SearchHit = keyword.Hit
	// FederationEndpoint is one remote endpoint's health snapshot.
	FederationEndpoint = federation.EndpointStatus
)

// NewLiteral returns a plain string literal.
func NewLiteral(lexical string) Literal { return rdf.NewLiteral(lexical) }

// NewInteger returns an xsd:integer literal.
func NewInteger(v int64) Literal { return rdf.NewInteger(v) }

// NewDouble returns an xsd:double literal.
func NewDouble(v float64) Literal { return rdf.NewDouble(v) }

// Dataset is a loaded RDF dataset ready for querying and exploration.
type Dataset struct {
	st *store.Store

	// fedMu guards the lazily created federation mesh.
	fedMu sync.Mutex
	mesh  *federation.Mesh

	// kwMu guards the lazily created shared keyword index.
	kwMu sync.Mutex
	kw   *keyword.Lazy
}

// LoadTurtle parses a Turtle document into a dataset.
func LoadTurtle(src string) (*Dataset, error) {
	triples, err := turtle.ParseString(src)
	if err != nil {
		return nil, fmt.Errorf("lodviz: %w", err)
	}
	st, err := store.Load(triples)
	if err != nil {
		return nil, fmt.Errorf("lodviz: %w", err)
	}
	return &Dataset{st: st}, nil
}

// LoadNTriples streams an N-Triples document into a dataset in bounded
// chunks: the input is decoded and batch-inserted incrementally, so inputs
// far larger than memory-resident slices load without materializing the
// whole parse at once.
func LoadNTriples(r io.Reader) (*Dataset, error) {
	st, err := store.LoadNTriples(r)
	if err != nil {
		return nil, fmt.Errorf("lodviz: %w", err)
	}
	return &Dataset{st: st}, nil
}

// FromTriples builds a dataset from in-memory triples.
func FromTriples(triples []Triple) (*Dataset, error) {
	st, err := store.Load(triples)
	if err != nil {
		return nil, fmt.Errorf("lodviz: %w", err)
	}
	return &Dataset{st: st}, nil
}

// MiniLOD returns the embedded demonstration dataset (cities, countries,
// people, and a tiny ontology).
func MiniLOD() *Dataset { return &Dataset{st: gen.MiniLODStore()} }

// Len returns the number of triples in the dataset.
func (d *Dataset) Len() int { return d.st.Len() }

// Add inserts a triple (the dynamic-data path: no reload required).
func (d *Dataset) Add(t Triple) error { return d.st.Add(t) }

// AddBatch inserts a batch of triples atomically under one lock
// acquisition, returning how many changed the live triple set. The whole
// batch is validated before anything is applied — on error the dataset is
// untouched — and an effective batch advances the generation exactly once.
// This is the bulk-ingestion path: at scale it is an order of magnitude
// faster than looping over Add.
func (d *Dataset) AddBatch(triples []Triple) (int, error) { return d.st.AddBatch(triples) }

// WriteSnapshot serializes the dataset to w in the versioned, checksummed
// lodviz snapshot format — a consistent point-in-time image that
// ReadSnapshot restores to an identically answering dataset.
func (d *Dataset) WriteSnapshot(w io.Writer) error { return d.st.WriteSnapshot(w) }

// ReadSnapshot restores a dataset previously serialized with WriteSnapshot,
// verifying the embedded checksum.
func ReadSnapshot(r io.Reader) (*Dataset, error) {
	st, err := store.ReadSnapshot(r)
	if err != nil {
		return nil, fmt.Errorf("lodviz: %w", err)
	}
	return &Dataset{st: st}, nil
}

// QueryOptions configure SPARQL evaluation.
type QueryOptions struct {
	// Parallelism is the worker count for basic-graph-pattern evaluation.
	// 0 (the default) selects runtime.NumCPU(); 1 forces sequential
	// evaluation. Every setting returns identical results in identical
	// order — parallelism only changes how fast they arrive.
	Parallelism int
	// Endpoints registers additional remote SPARQL endpoints with the
	// dataset's federation mesh before the query runs, so a SERVICE
	// clause naming them starts with tracked health state. SERVICE works
	// without this — unlisted endpoints are tracked from first use.
	Endpoints []string
}

// QueryCtx runs a SPARQL SELECT or ASK query under a context: triple
// patterns are cost-reordered using the store's cardinality statistics and
// evaluated by a worker pool sized by opt.Parallelism; SERVICE clauses are
// answered by the dataset's federation mesh (see Federate). Evaluation
// stops promptly when ctx is cancelled or its deadline expires, returning an
// error that matches both ErrQueryEval and the context error under
// errors.Is.
//
//	res, err := ds.QueryCtx(ctx, q, lodviz.QueryOptions{})               // NumCPU workers
//	res, err := ds.QueryCtx(ctx, q, lodviz.QueryOptions{Parallelism: 1}) // sequential
func (d *Dataset) QueryCtx(ctx context.Context, q string, opt QueryOptions) (*Results, error) {
	return sparql.ExecCtx(ctx, d.st, q, d.sparqlOptions(opt))
}

// QueryStreamResult summarizes a completed QueryStream evaluation.
type QueryStreamResult struct {
	// Vars are the projected column names (nil for ASK).
	Vars []string
	// Rows counts the rows delivered to the callback.
	Rows int
	// Ask is the answer of an ASK query.
	Ask bool
	// Incremental reports whether rows were delivered while evaluation was
	// still in progress — the paged source without ORDER BY, where a LIMIT
	// also stops the scan as soon as enough rows are out. False means the
	// query's shape (ORDER BY, DISTINCT, grouping, UNION, SERVICE) forced
	// full evaluation before the first row.
	Incremental bool
}

// QueryStream runs a SPARQL query and delivers result rows through fn as
// they are produced, in the same order Query returns them; every call
// receives the projected column names, and fn returns false to stop
// evaluation early. Plain LIMIT/OFFSET queries short-circuit — the first
// rows arrive while the scan is still running and work scales with the
// limit, not the dataset — making this the progressive-delivery primitive
// the survey asks of big-data exploration: a first screenful immediately,
// refinement later. ASK answers land in the summary with no fn calls.
func (d *Dataset) QueryStream(ctx context.Context, q string, opt QueryOptions, fn func(vars []string, row Binding) bool) (*QueryStreamResult, error) {
	stm, err := sparql.PrepareStream(ctx, d.st, q, d.sparqlOptions(opt))
	if err != nil {
		return nil, err
	}
	out := &QueryStreamResult{Vars: stm.Vars(), Incremental: stm.Incremental()}
	if stm.Form() == sparql.FormAsk {
		ans, err := stm.Ask()
		if err != nil {
			return nil, err
		}
		out.Ask = ans
		return out, nil
	}
	if err := stm.Run(func(row Binding) bool {
		out.Rows++
		return fn(out.Vars, row)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// sparqlOptions lowers façade options to engine options, wiring the
// federation mesh in as the SERVICE evaluator.
func (d *Dataset) sparqlOptions(opt QueryOptions) sparql.Options {
	m := d.federation()
	for _, ep := range opt.Endpoints {
		m.AddPeer(ep)
	}
	return sparql.Options{Parallelism: opt.Parallelism, Service: m}
}

// federation returns the dataset's mesh, creating it with defaults on
// first use.
func (d *Dataset) federation() *federation.Mesh {
	d.fedMu.Lock()
	defer d.fedMu.Unlock()
	if d.mesh == nil {
		d.mesh = federation.NewMesh(federation.Options{})
	}
	return d.mesh
}

// Federate registers remote SPARQL endpoints (other lodvizd instances, or
// any SPARQL 1.1 endpoint speaking JSON results) with the dataset's
// federation mesh. Queries may then span datasets with
// SERVICE <endpoint> { ... } clauses; failing endpoints are circuit-broken
// and probed back in, and SERVICE SILENT degrades to the local partial
// result when an endpoint is down.
func (d *Dataset) Federate(endpoints ...string) {
	m := d.federation()
	for _, ep := range endpoints {
		m.AddPeer(ep)
	}
}

// FederationStatus snapshots the health of every remote endpoint the
// dataset federates with.
func (d *Dataset) FederationStatus() []FederationEndpoint {
	return d.federation().Status()
}

// Search ranks entities matching the keyword query by TF-IDF over the
// dataset's literals and IRI local names, returning at most limit hits
// (limit <= 0 selects 10). The underlying inverted index is built on first
// use and then follows writes, re-indexing only the entities they touch.
func (d *Dataset) Search(query string, limit int) []SearchHit {
	return d.lazyKeyword().Search(query, limit)
}

// Complete returns up to limit indexed tokens beginning with prefix — the
// type-ahead primitive (limit <= 0 selects 10).
func (d *Dataset) Complete(prefix string, limit int) []string {
	return d.lazyKeyword().Complete(prefix, limit)
}

// lazyKeyword returns the dataset's shared lazy keyword index, creating it
// on first use. The HTTP server is handed the same instance (see
// serverConfig), so a dataset serving HTTP keeps one index copy.
func (d *Dataset) lazyKeyword() *keyword.Lazy {
	d.kwMu.Lock()
	defer d.kwMu.Unlock()
	if d.kw == nil {
		d.kw = keyword.NewLazy(d.st)
	}
	return d.kw
}

// Query error classes: every error returned by QueryCtx/QueryStream
// matches exactly one of these under errors.Is, so callers can distinguish a
// malformed query (the caller's fault) from an evaluation failure without
// string matching.
var (
	// ErrQueryParse classifies SPARQL syntax errors.
	ErrQueryParse = sparql.ErrParse
	// ErrQueryEval classifies evaluation failures, including cancellation
	// and deadline expiry (the context error stays in the Unwrap chain).
	ErrQueryEval = sparql.ErrEval
)

// Generation returns the dataset's content generation — a counter that
// advances on every mutation of the triple set. Results computed between two
// identical Generation readings are still valid; the HTTP server's response
// cache is keyed on it.
func (d *Dataset) Generation() uint64 { return d.st.Generation() }

// Facets starts a faceted-browsing session over the dataset's typed
// entities (all subjects when nothing is typed). The session computes
// distributions in ID space over the store's permutation indexes; use its
// Stream method for progressive, refining estimates on large datasets.
// Collecting the base set honors ctx.
func (d *Dataset) Facets(ctx context.Context) (*FacetSession, error) {
	return facet.NewSessionCtx(ctx, d.st)
}

// ErrNodeNotFound reports that a neighborhood start term does not occur as a
// graph node in the dataset.
var ErrNodeNotFound = explore.ErrNodeNotFound

// Neighborhood expands the bounded graph neighborhood around start directly
// over the ID-space indexes. With opt.Sample > 0 each node's incident edges
// are reservoir-sampled (deterministically per opt.Seed) and the result
// reports the coverage fraction; with Sample == 0 the expansion is exhaustive
// and includes the induced subgraph between reached nodes.
func (d *Dataset) Neighborhood(ctx context.Context, start Term, opt NeighborhoodOptions) (*Neighborhood, error) {
	return explore.FindNeighborhood(ctx, d.st, start, opt)
}

// Stats returns the exact dataset summary (per-predicate triple counts and
// distinct-subject/object counts, class histogram), read from the
// statistics the store maintains as writes arrive; the first call builds
// them in one ID-space pass.
func (d *Dataset) Stats() DatasetStats { return d.st.ComputeStats() }

// StreamStats computes the dataset summary progressively, by a walk of the
// store: fn receives CLT-bounded approximate batches while the scan runs
// (return false to stop), and the returned stats are exact — identical to
// Stats when no write lands during the scan — when it completes.
func (d *Dataset) StreamStats(ctx context.Context, fn func(StatsBatch) bool) (DatasetStats, error) {
	return explore.StreamStats(ctx, d.st, 0, 1, fn)
}

// Store exposes the underlying triple store for advanced use (the internal
// API surface; subject to change).
func (d *Dataset) Store() *store.Store { return d.st }

// ServerConfig tunes the HTTP exploration server; see the internal/server
// package docs. The zero value is production-usable.
type ServerConfig = server.Config

// Handler returns an http.Handler serving this dataset: the SPARQL Protocol
// endpoint (/sparql, SERVICE clauses included), its chunked NDJSON twin
// (/sparql/stream, first rows before evaluation finishes), the exploration
// endpoints (/facets, /graph/neighborhood, /hetree, /stats) with NDJSON
// twins (/facets/stream: approximate batches that converge to the exact
// answer, or, for a drilled-down view that per-entity probes answer more
// cheaply than a walk, the exact answer in one line; /stats/stream: the
// exact answer in one line, read from the
// statistics the store maintains), keyword search
// (/search, /complete), federation health (/federation), N-Triples
// ingestion (POST /triples), and /healthz. Responses are cached in a sharded LRU keyed by
// the normalized request and the dataset generation, so writes invalidate
// cached results automatically; permissive CORS headers let browser UIs
// call every endpoint cross-origin. The server shares the dataset's
// federation mesh, so peers registered with Federate apply to HTTP queries
// too.
func (d *Dataset) Handler(cfg ServerConfig) http.Handler {
	return server.New(d.st, d.serverConfig(cfg)).Handler()
}

// Serve runs the exploration server on addr until ctx is cancelled, then
// shuts down gracefully. It returns nil on a clean shutdown.
func (d *Dataset) Serve(ctx context.Context, addr string, cfg ServerConfig) error {
	return server.New(d.st, d.serverConfig(cfg)).ListenAndServe(ctx, addr)
}

// ServeListener is Serve over an existing listener (useful when the caller
// needs the bound port before serving starts).
func (d *Dataset) ServeListener(ctx context.Context, ln net.Listener, cfg ServerConfig) error {
	return server.New(d.st, d.serverConfig(cfg)).Serve(ctx, ln)
}

// serverConfig defaults the server onto the dataset's federation mesh and
// keyword index, so façade-level Federate registrations, HTTP SERVICE
// evaluation, and /search all share one set of state.
func (d *Dataset) serverConfig(cfg ServerConfig) ServerConfig {
	if cfg.Mesh == nil {
		cfg.Mesh = d.federation()
	}
	if cfg.Keyword == nil {
		cfg.Keyword = d.lazyKeyword()
	}
	return cfg
}

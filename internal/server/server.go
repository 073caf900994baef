// Package server exposes a lodviz dataset over HTTP: a SPARQL 1.1 Protocol
// endpoint plus the exploration endpoints (facets, graph neighborhoods,
// HETree hierarchies, dataset statistics) that front-ends in the survey's
// system catalogue ship — one process, JSON in and out, built for repeated,
// overlapping exploration queries.
//
// The serving architecture, in request order:
//
//   - structured access logging (method, path, status, bytes, duration,
//     cache disposition) on every request;
//   - per-endpoint concurrency limits: each route has a fixed budget of
//     in-flight requests and sheds the excess with 429 + Retry-After, so one
//     expensive endpoint cannot starve the others;
//   - a sharded LRU response cache keyed by the normalized request, whose
//     entries are validated views of the store: each records the store
//     generation read before it was computed and the footprint of what the
//     computation read (the query's triple patterns, a facet view's entity
//     set, a hierarchy's property, a neighborhood's reached nodes). A write
//     does not touch the cache. The next request for an entry older than
//     the store checks the footprint against the store's change log
//     (validate.go): untouched, the entry moves up to the current
//     generation and is a HIT; touched, or the log no longer covers the
//     span, it is dropped and rebuilt. So a write costs the readers only
//     the views it could have changed — exploration is read-heavy bursts
//     over a slowly changing dataset, and most writes are about something
//     else than what is on screen. /stats, /search and /complete read the
//     whole store and so last one generation. Concurrent requests for one
//     uncached view share a single build;
//   - strong ETags on cacheable responses with If-None-Match/304 handling,
//     so clients and proxies revalidate for free;
//   - per-request timeouts threaded as context cancellation into the SPARQL
//     engine, which aborts index scans mid-flight.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/lodviz/lodviz/internal/facet"
	"github.com/lodviz/lodviz/internal/federation"
	"github.com/lodviz/lodviz/internal/hetree"
	"github.com/lodviz/lodviz/internal/keyword"
	"github.com/lodviz/lodviz/internal/ledger"
	"github.com/lodviz/lodviz/internal/obs"
	"github.com/lodviz/lodviz/internal/server/cache"
	"github.com/lodviz/lodviz/internal/sparql"
	"github.com/lodviz/lodviz/internal/store"
	"github.com/lodviz/lodviz/internal/wal"
)

// Config tunes a Server. The zero value is production-usable: NumCPU query
// parallelism, a 4096-entry cache, 64 in-flight requests per endpoint, and a
// 30-second query timeout.
type Config struct {
	// Parallelism is the SPARQL engine worker count (0 = NumCPU).
	Parallelism int
	// CacheCapacity is the response cache size in entries; 0 selects
	// cache.DefaultCapacity and negative values disable caching.
	CacheCapacity int
	// MaxInFlight caps concurrently served requests per endpoint; excess
	// requests are shed with 429. Non-positive values select 64.
	MaxInFlight int
	// QueryTimeout bounds one request's evaluation; non-positive values
	// select 30s.
	QueryTimeout time.Duration
	// MaxFacetValues caps values listed per facet on /facets
	// (non-positive = 25).
	MaxFacetValues int
	// Logger receives structured access and lifecycle logs (nil = stderr).
	Logger *slog.Logger
	// Mesh is the federation runtime answering SERVICE clauses; nil builds
	// a default mesh, so federated queries work out of the box.
	Mesh *federation.Mesh
	// Peers pre-registers remote SPARQL endpoints with the mesh (the
	// -peer flags of lodvizd).
	Peers []string
	// Keyword is the shared lazy keyword index backing /search and
	// /complete; nil builds one. The façade passes its own so a dataset
	// serving HTTP keeps a single index copy.
	Keyword *keyword.Lazy
	// Ledger, when set, is the Merkle mutation ledger over the WAL; it
	// enables /ledger/root and /ledger/proof. Nil (no WAL configured)
	// leaves those endpoints answering 404.
	Ledger *ledger.Ledger
	// Metrics is the registry /metrics exposes; nil builds a private one,
	// so the endpoint always works. lodvizd shares one registry between
	// the server and the WAL.
	Metrics *obs.Registry
	// WAL, when set, feeds the WAL frontier metric and /healthz's wal
	// section; WALSyncDesc describes the fsync policy there ("always" or
	// "none").
	WAL         *wal.Log
	WALSyncDesc string
	// SnapshotSavedAt, when set, reports the last successful snapshot
	// write (zero time = none yet); /healthz derives the snapshot age
	// from it.
	SnapshotSavedAt func() time.Time
	// SlowQueryThreshold, when positive, turns on the slow-query log:
	// /sparql queries at or over it are logged at warn level with their
	// duration, row count, and execution-plan summary.
	SlowQueryThreshold time.Duration

	// FacetWarming enables prefetch-driven warming of the facet response
	// cache: serving a filtered /facets view schedules background builds of
	// its ancestor views (each filter prefix), so the zoom-out steps a
	// browsing session takes next are already cached. Off by default;
	// lodvizd enables it unless -facet-warming=false.
	FacetWarming bool

	// source, when set by tests, replaces the store as what every read
	// endpoint scans (SPARQL evaluation, facets, stats, neighborhood,
	// hetree) — the seam for wrapping the store to gate, throttle or
	// instrument scans (the streaming endpoints' first-row-before-completion
	// tests gate a scan on a channel).
	source store.Source
}

func (c Config) withDefaults() Config {
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.NumCPU()
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 30 * time.Second
	}
	if c.MaxFacetValues <= 0 {
		c.MaxFacetValues = facet.DefaultMaxValues
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	return c
}

// Server serves one dataset. Create with New; the zero value is unusable.
type Server struct {
	st    *store.Store
	cfg   Config
	cache *cache.Cache // nil when caching is disabled
	// builds admits one builder per cache key at a time (unused when caching
	// is disabled).
	builds flights
	mesh   *federation.Mesh
	kw     *keyword.Lazy
	// bases keeps each numeric property's sorted values under the /hetree
	// responses: a request at a budget not yet cached cuts the kept base.
	bases *hetree.Bases
	// typed keeps the typed-subject base every facet session starts from:
	// /facets, /facets/stream and warm jobs open their sessions over it.
	typed *facet.TypedBase
	mux   *http.ServeMux

	// reg is the metrics registry /metrics serves; met and engineMet are
	// the HTTP-layer and SPARQL-engine handles registered on it. started
	// anchors /healthz's uptime.
	reg       *obs.Registry
	met       *serverMetrics
	engineMet *sparql.Metrics
	started   time.Time

	// warming holds the facet warm jobs queued or running, by target cache
	// key; warmSem (nil when warming is off) bounds concurrent warm builds.
	warming flights
	warmSem chan struct{}

	// limiterHook, when set by tests, runs while the request holds its
	// concurrency slot — the deterministic way to saturate an endpoint.
	limiterHook func(route string)
	// flushDelay is how long a streamed line may wait for a flush:
	// streamFlushDelay, unless a test needs the timer out of the way or
	// racing the handler's end.
	flushDelay time.Duration
	// warmHook, when set by tests, runs after a facet warm job has built
	// and cached a view (argument: its cache key).
	warmHook func(key string)
}

// New builds a Server over st.
func New(st *store.Store, cfg Config) *Server {
	s := &Server{st: st, cfg: cfg.withDefaults(), started: time.Now(), flushDelay: streamFlushDelay}
	if cfg.CacheCapacity >= 0 {
		s.cache = cache.New(cfg.CacheCapacity)
	}
	s.mesh = s.cfg.Mesh
	if s.mesh == nil {
		s.mesh = federation.NewMesh(federation.Options{})
	}
	for _, p := range s.cfg.Peers {
		s.mesh.AddPeer(p)
	}
	s.kw = s.cfg.Keyword
	if s.kw == nil {
		s.kw = keyword.NewLazy(st)
	}
	s.bases = hetree.NewBases(s.source(), st)
	s.typed = facet.NewTypedBase(s.source(), st)
	if s.cfg.FacetWarming && s.cache != nil {
		s.warmSem = make(chan struct{}, 2)
	}
	s.reg = s.cfg.Metrics
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	s.met = newServerMetrics(s.reg)
	s.engineMet = sparql.NewMetrics(s.reg)
	s.registerCollectors(s.reg)
	s.mux = http.NewServeMux()
	s.route("/sparql", s.handleSPARQL, "GET", "POST")
	s.route("/sparql/stream", s.handleSPARQLStream, "GET", "POST")
	s.route("/facets", s.handleFacets, "GET")
	s.route("/facets/stream", s.handleFacetsStream, "GET")
	s.route("/graph/neighborhood", s.handleNeighborhood, "GET")
	s.route("/hetree", s.handleHETree, "GET")
	s.route("/stats", s.handleStats, "GET")
	s.route("/stats/stream", s.handleStatsStream, "GET")
	s.route("/search", s.handleSearch, "GET")
	s.route("/complete", s.handleComplete, "GET")
	s.route("/federation", s.handleFederation, "GET")
	s.route("/ledger/root", s.handleLedgerRoot, "GET")
	s.route("/ledger/proof", s.handleLedgerProof, "GET")
	s.writeRoute("/triples", s.handleIngest, "POST")
	s.route("/healthz", s.handleHealthz, "GET")
	s.route("/metrics", s.handleMetrics, "GET")
	return s
}

// handleMetrics serves the registry in Prometheus text exposition format.
// Never cached: a scrape must see the live counters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.reg.Handler().ServeHTTP(w, r)
}

// Handler returns the root http.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

// route registers a read endpoint under path behind the standard
// middleware stack: access logging outermost, then permissive CORS
// (headers on every response, OPTIONS preflights answered in place), then
// the per-endpoint concurrency limiter, then method filtering.
func (s *Server) route(path string, h http.HandlerFunc, methods ...string) {
	s.routeWithCORS(path, h, true, methods)
}

// writeRoute is route without the CORS layer. Mutating endpoints are
// deliberately not CORS-enabled: the server has no authentication, so
// approving cross-origin preflights on a write path would let any webpage
// a browser visits mutate a reachable store. Browser UIs read
// cross-origin; writes stay same-origin (or non-browser).
func (s *Server) writeRoute(path string, h http.HandlerFunc, methods ...string) {
	s.routeWithCORS(path, h, false, methods)
}

func (s *Server) routeWithCORS(path string, h http.HandlerFunc, cors bool, methods []string) {
	limiter := make(chan struct{}, s.cfg.MaxInFlight)
	allowMethods := strings.Join(append(append([]string{}, methods...), http.MethodOptions), ", ")
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		startedAt := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		switch {
		case cors:
			// Permissive CORS: browser-based exploration UIs load from
			// anywhere and call the read API cross-origin.
			hd := rec.Header()
			hd["Access-Control-Allow-Origin"] = corsAllowOrigin
			hd["Access-Control-Expose-Headers"] = corsExposeHeaders
			if r.Method == http.MethodOptions {
				hd.Set("Access-Control-Allow-Methods", allowMethods)
				hd.Set("Access-Control-Allow-Headers", "Content-Type, If-None-Match")
				hd.Set("Access-Control-Max-Age", "86400")
				rec.WriteHeader(http.StatusNoContent)
			} else {
				s.serveLimited(rec, r, path, limiter, h, methods)
			}
		default:
			s.serveLimited(rec, r, path, limiter, h, methods)
		}
		dur := time.Since(startedAt)
		s.met.requests.With(path, r.Method, statusClass(rec.status)).Inc()
		s.met.latency.With(path).Observe(dur.Seconds())
		s.met.bytes.With(path).Add(uint64(rec.bytes))
		if rec.streamOutcome != "" {
			// A stream that lost its client mid-flight still logs and
			// counts what it delivered; the outcome distinguishes the two.
			s.met.streams.With(path, rec.streamOutcome).Inc()
			s.met.streamRows.With(path).Add(uint64(rec.streamRows))
		}
		s.logAccess(r, rec, dur)
	})
}

// The CORS headers every read response carries, shared by all of them
// under their canonical keys (a header value is never written in place).
var (
	corsAllowOrigin   = []string{"*"}
	corsExposeHeaders = []string{"ETag, X-Cache, X-Stream-Incremental"}
)

// logAccess writes the request's access line: method, path, status, bytes,
// duration and cache disposition, plus rows and outcome for a stream. The
// record is handed to the logger's handler directly, with typed attributes
// and no caller PC (the line prints no source).
func (s *Server) logAccess(r *http.Request, rec *statusRecorder, dur time.Duration) {
	h := s.cfg.Logger.Handler()
	if !h.Enabled(r.Context(), slog.LevelInfo) {
		return
	}
	var cache string
	if v := rec.Header()["X-Cache"]; len(v) > 0 {
		cache = v[0]
	}
	line := slog.NewRecord(time.Now(), slog.LevelInfo, "request", 0)
	line.AddAttrs(
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", rec.status),
		slog.Int("bytes", rec.bytes),
		slog.Duration("dur", dur.Round(time.Microsecond)),
		slog.String("cache", cache),
	)
	if rec.streamOutcome != "" {
		line.AddAttrs(slog.Int("rows", rec.streamRows), slog.String("stream", rec.streamOutcome))
	}
	h.Handle(r.Context(), line)
}

func (s *Server) serveLimited(w http.ResponseWriter, r *http.Request, path string, limiter chan struct{}, h http.HandlerFunc, methods []string) {
	allowed := false
	for _, m := range methods {
		if r.Method == m {
			allowed = true
			break
		}
	}
	if !allowed {
		writeError(w, http.StatusMethodNotAllowed, fmt.Sprintf("method %s not allowed on %s", r.Method, path))
		return
	}
	select {
	case limiter <- struct{}{}:
		defer func() { <-limiter }()
	default:
		s.met.shed.With(path).Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "endpoint concurrency limit reached, retry shortly")
		return
	}
	s.met.inFlight.Inc()
	defer s.met.inFlight.Dec()
	if s.limiterHook != nil {
		s.limiterHook(path)
	}
	h(w, r)
}

// statusRecorder captures the status and byte count for the access log.
// Streaming handlers additionally report their delivered row count and
// outcome through markStream, so a mid-stream client disconnect is still
// fully accounted for in the log and the metrics.
type statusRecorder struct {
	http.ResponseWriter
	status        int
	bytes         int
	streamRows    int
	streamOutcome string // "" for non-streamed responses
}

// How a streamed response ended, as the access log and
// lodviz_http_streams_total{outcome} tell it.
const (
	streamCompleted = "completed" // the done trailer reached the client
	streamFailed    = "failed"    // evaluation failed; the error trailer reached the client
	streamAborted   = "aborted"   // the client was gone before the trailer
)

// trailerOutcome is the outcome of a stream whose last line was meant to
// end it as outcome: that, if the line was written, else streamAborted.
func trailerOutcome(outcome string, written bool) string {
	if written {
		return outcome
	}
	return streamAborted
}

// markStream records a streaming handler's delivered rows and outcome on
// the request's recorder; a no-op when w is not the middleware's recorder
// (direct handler tests).
func markStream(w http.ResponseWriter, rows int, outcome string) {
	if rec, ok := w.(*statusRecorder); ok {
		rec.streamRows, rec.streamOutcome = rows, outcome
	}
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += n
	return n, err
}

// FlushError forwards to the underlying writer, so the streaming endpoints
// push their lines to the client and learn when it is gone: net/http's
// writer reports a failed flush, which http.Flusher cannot.
func (r *statusRecorder) FlushError() error {
	return http.NewResponseController(r.ResponseWriter).Flush()
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// etagFor computes the strong validator for a response body.
func etagFor(body []byte) string {
	h := fnv.New64a()
	h.Write(body)
	return fmt.Sprintf("%q", strconv.FormatUint(h.Sum64(), 16))
}

// result is what a handler's build step produces: the response, and what
// computing it read from the store (the zero footprint is the whole store).
type result struct {
	body        []byte
	contentType string
	status      int
	reads       store.Footprint
}

// jsonResult is the 200 response carrying v.
func jsonResult(v any, reads store.Footprint) result {
	b, err := json.Marshal(v)
	if err != nil {
		return errorResult(http.StatusInternalServerError, "encoding response: "+err.Error())
	}
	return result{body: b, contentType: "application/json", status: http.StatusOK, reads: reads}
}

// errorResult is the JSON error envelope under the given status.
func errorResult(status int, msg string) result {
	b, _ := json.Marshal(errorBody{Error: msg})
	return result{body: b, contentType: "application/json", status: status}
}

// entry files the result as computed from generation gen on.
func (res result) entry(gen uint64) cache.Entry {
	return cache.Entry{
		Body: res.body, ETag: etagFor(res.body), ContentType: res.contentType, Status: res.status,
		Gen: gen, Footprint: res.reads,
	}
}

// serveCached answers from the response cache under key, or builds the
// response, caches it if it is a 200, and serves it. The generation an
// entry is filed under is read before its build starts, so a write that
// lands during the build is among those the entry is later checked against.
// While one request builds a key, others for the same key wait and are
// served what it cached. ETag/If-None-Match revalidation applies to hits
// and misses alike; X-Cache reports the disposition.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key string, build func() result) {
	if s.cache == nil {
		serveEntry(w, r, build().entry(0), "MISS")
		return
	}
	for {
		gen := s.st.Generation()
		if e, ok := s.cache.Lookup(key, gen, s.unchanged); ok {
			serveEntry(w, r, e, "HIT")
			return
		}
		wait, leader := s.builds.join(key)
		if leader {
			serveEntry(w, r, s.buildAndCache(key, gen, build), "MISS")
			return
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			status, msg := queryError(r.Context().Err())
			writeError(w, status, msg)
			return
		}
	}
}

// buildAndCache is the leader's turn on key: it builds the response, caches
// it if it is a 200, and lets the waiters go — also when build panics.
func (s *Server) buildAndCache(key string, gen uint64, build func() result) cache.Entry {
	defer s.builds.leave(key)
	e := build().entry(gen)
	if e.Status == http.StatusOK {
		s.cache.Put(key, e)
	}
	return e
}

// serveUncached builds and serves a response without consulting or filling
// the response cache (ETag revalidation still applies). X-Cache reports
// BYPASS so operators can see which traffic is deliberately uncacheable.
func (s *Server) serveUncached(w http.ResponseWriter, r *http.Request, build func() result) {
	serveEntry(w, r, build().entry(0), "BYPASS")
}

// serveEntry writes e with its length declared, so the body leaves in one
// piece, unchunked, and a 304 carries none.
func serveEntry(w http.ResponseWriter, r *http.Request, e cache.Entry, disposition string) {
	h := w.Header()
	h.Set("X-Cache", disposition)
	h.Set("Content-Type", e.ContentType)
	if e.Status == http.StatusOK {
		h.Set("ETag", e.ETag)
		if match := r.Header.Get("If-None-Match"); match != "" && match == e.ETag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	h.Set("Content-Length", strconv.Itoa(len(e.Body)))
	w.WriteHeader(e.Status)
	w.Write(e.Body)
}

// cacheKey builds the cache key for an exploration GET endpoint from its
// path and its query parameters, as the handler parsed them.
// url.Values.Encode percent-escapes names and values, so two requests whose
// decoded parameters differ can never collide on a key, and orders the
// names; it keeps each name's values in request order, because the
// handlers read the first of them.
func cacheKey(path string, params url.Values) string {
	return path + "?" + params.Encode()
}

// queryError maps a sparql error to an HTTP status: the caller's syntax
// errors are 400s, timeouts are 504s, everything else is the server's fault.
func queryError(err error) (int, string) {
	switch {
	case errors.Is(err, sparql.ErrParse):
		return http.StatusBadRequest, err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "query timed out"
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest, "client closed request"
	default:
		return http.StatusInternalServerError, err.Error()
	}
}

// statusClientClosedRequest is nginx's non-standard 499: the client went
// away mid-query, nobody will read the response, but the access log should
// not claim a server error.
const statusClientClosedRequest = 499

// Serve accepts connections on ln until ctx is cancelled, then shuts down
// gracefully: in-flight requests get up to 10 seconds to finish. It returns
// nil on a clean shutdown.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		s.cfg.Logger.Info("shutting down", "addr", ln.Addr().String())
		// The serving ctx is already cancelled here; the graceful drain
		// needs a fresh root bounded by its own deadline.
		//lint:allow ctxflow shutdown drain runs after the serving context is cancelled
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return hs.Shutdown(sctx)
	}
}

// ListenAndServe listens on addr and calls Serve.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.cfg.Logger.Info("listening", "addr", ln.Addr().String())
	return s.Serve(ctx, ln)
}

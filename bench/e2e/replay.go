package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/lodviz/lodviz/internal/core"
	"github.com/lodviz/lodviz/internal/explore"
	"github.com/lodviz/lodviz/internal/facet"
	"github.com/lodviz/lodviz/internal/hetree"
	"github.com/lodviz/lodviz/internal/keyword"
	"github.com/lodviz/lodviz/internal/ledger"
	"github.com/lodviz/lodviz/internal/ntriples"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/server"
	"github.com/lodviz/lodviz/internal/server/cache"
	"github.com/lodviz/lodviz/internal/sparql"
	"github.com/lodviz/lodviz/internal/store"
	"github.com/lodviz/lodviz/internal/wal"
)

// The replay takes the first replayRequests requests of a workload, or as
// many of them as the handler serves within replayBudget.
const (
	replayRequests = 300
	replayBudget   = 8 * time.Second
)

// inproc is the serving stack without HTTP: the store with a WAL and a
// ledger, as lodvizd wires them, loaded from the same data file.
type inproc struct {
	st  *store.Store
	log *wal.Log
	led *ledger.Ledger
}

// newInproc loads the data file and attaches a fresh WAL. When t is not nil
// the store sees the WAL, and the WAL the ledger, through spans.
func newInproc(e *env, t *tracer) (*inproc, error) {
	f, err := os.Open(e.data)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // only read
	st, err := store.LoadNTriples(f)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(e.dir, "replay-wal.log")
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	led := ledger.New()
	log, err := wal.Open(path, wal.Options{Sync: wal.SyncAlways, Observer: func(seq uint64, payload []byte) {
		id := t.begin("ledger.append")
		led.Append(seq, payload)
		t.end(id)
	}})
	if err != nil {
		return nil, err
	}
	if t != nil {
		st.SetWAL(tracedWAL{log: log, t: t})
	} else {
		st.SetWAL(log)
	}
	return &inproc{st: st, log: log, led: led}, nil
}

// handlerPass serves the requests through the server's own handler, in
// process, and returns how long each of `timed` took. It stops early when
// replayBudget is spent.
func handlerPass(e *env, warm, timed []*request) ([]time.Duration, error) {
	p, err := newInproc(e, nil)
	if err != nil {
		return nil, err
	}
	defer func() { _ = p.log.Close() }() // the replay's log is thrown away
	h := server.New(p.st, server.Config{
		FacetWarming: true, WAL: p.log, Ledger: p.led, WALSyncDesc: "always",
		// lodvizd writes an access log line per request; so does this.
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	}).Handler()
	serve := func(r *request) error {
		req := httptest.NewRequest(r.method, r.target, strings.NewReader(r.body))
		if r.ctype != "" {
			req.Header.Set("Content-Type", r.ctype)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			return fmt.Errorf("in-process %s %s: status %d: %s", r.method, r.target, rec.Code, rec.Body)
		}
		return nil
	}
	for _, r := range warm {
		if err := serve(r); err != nil {
			return nil, err
		}
	}
	var times []time.Duration
	begun := time.Now()
	for _, r := range timed {
		start := time.Now()
		if err := serve(r); err != nil {
			return nil, err
		}
		times = append(times, time.Since(start))
		if time.Since(begun) > replayBudget {
			break
		}
	}
	return times, nil
}

// decomposed serves requests as the sequence of calls into the layers that
// the server's handlers make, each in a span, without the server's own work
// (routing, encoding, logging) between them.
type decomposed struct {
	*inproc
	src   tracedSource
	t     *tracer
	cache *cache.Cache
	// The keyword index and the generation it was built at, as keyword.Lazy
	// keeps them.
	idx    *keyword.Index
	idxGen uint64
	// obs are measurements that are not span durations: the time to a first
	// batch or row, the triples a decode read, the delta after a write.
	obs map[string][]float64
}

// decomposedPass replays the requests through the layers, with spans when t
// is not nil, and returns what it observed and how long all of `timed` took.
func decomposedPass(e *env, t *tracer, warm, timed []*request) (map[string][]float64, time.Duration, error) {
	p, err := newInproc(e, t)
	if err != nil {
		return nil, 0, err
	}
	defer func() { _ = p.log.Close() }() // the replay's log is thrown away
	d := &decomposed{inproc: p, src: tracedSource{Store: p.st, t: t}, t: t,
		cache: cache.New(0), obs: map[string][]float64{}}
	for _, r := range warm {
		if err := d.serve(r); err != nil {
			return nil, 0, err
		}
	}
	// Only the timed requests are kept.
	if t != nil {
		t.spans, t.req = t.spans[:0], -1
	}
	d.obs = map[string][]float64{}
	start := time.Now()
	for _, r := range timed {
		if err := d.serve(r); err != nil {
			return nil, 0, err
		}
	}
	return d.obs, time.Since(start), nil
}

func (d *decomposed) span(name string, fn func() error) error {
	id := d.t.begin(name)
	defer d.t.end(id)
	return fn()
}

func (d *decomposed) note(name string, v float64) { d.obs[name] = append(d.obs[name], v) }

// cached looks the request up as the server's serveCached does, builds the
// response on a miss, and stores it.
func (d *decomposed) cached(r *request, build func() error) error {
	key := fmt.Sprintf("%s|g%d", r.target, d.st.Generation())
	hit := false
	_ = d.span("cache.get", func() error { _, hit = d.cache.Get(key); return nil })
	if hit {
		return nil
	}
	if err := build(); err != nil {
		return err
	}
	return d.put(key)
}

func (d *decomposed) put(key string) error {
	return d.span("cache.put", func() error {
		d.cache.Put(key, cache.Entry{Status: 200})
		return nil
	})
}

func (d *decomposed) serve(r *request) error {
	id := d.t.begin("request")
	defer d.t.end(id)
	err := d.layers(context.Background(), r)
	if err != nil {
		return fmt.Errorf("replaying %s %s: %w", r.method, r.target, err)
	}
	return nil
}

func filters(sel selection) []facet.Filter {
	var fs []facet.Filter
	if sel.class >= 0 {
		fs = append(fs, facet.Filter{Predicate: rdf.IRI(rdfType), Value: rdf.IRI(classIRI(sel.class))})
	}
	for _, c := range sel.cats {
		fs = append(fs, facet.Filter{Predicate: rdf.IRI(catIRI(c.prop)), Value: rdf.NewLiteral(catValue(c.val))})
	}
	return fs
}

// session opens a facet session with the request's filters applied.
func (d *decomposed) session(ctx context.Context, r *request) (*facet.Session, error) {
	var sess *facet.Session
	err := d.span("facet.session", func() (err error) {
		if sess, err = facet.NewSessionCtx(ctx, d.src); err != nil {
			return err
		}
		sess.MaxValuesPerFacet = facet.DefaultMaxValues
		for _, f := range filters(r.sel) {
			sess.Apply(f)
		}
		return nil
	})
	return sess, err
}

// sparqlOpts runs the engine on the calling goroutine, which is what lets a
// span's parent be the innermost open span.
var sparqlOpts = sparql.Options{Parallelism: 1}

// layers makes the calls a handler makes for r.
func (d *decomposed) layers(ctx context.Context, r *request) error {
	switch r.kind {
	case kStats:
		return d.cached(r, func() error { d.src.ComputeStats(); return nil })
	case kFacets:
		return d.cached(r, func() error {
			sess, err := d.session(ctx, r)
			if err != nil {
				return err
			}
			return d.span("facet.facets", func() error {
				if _, err := sess.CountCtx(ctx); err != nil {
					return err
				}
				_, err := sess.FacetsCtx(ctx)
				return err
			})
		})
	case kFacetsStream:
		sess, err := d.session(ctx, r)
		if err != nil {
			return err
		}
		start, first := time.Now(), time.Duration(0)
		err = d.span("facet.stream", func() error {
			_, _, err := sess.Stream(ctx, 0, 1, func(facet.Batch) bool {
				if first == 0 {
					first = time.Since(start)
				}
				return true
			})
			return err
		})
		if err != nil {
			return err
		}
		d.note("facet.stream_first_batch_ms", ms(first))
		// A completed stream fills the buffered endpoint's entry.
		return d.put(fmt.Sprintf("%s|g%d", r.target, d.st.Generation()))
	case kStatsStream:
		start, first := time.Now(), time.Duration(0)
		err := d.span("explore.stats", func() error {
			_, err := explore.StreamStats(ctx, d.src, 0, 1, func(explore.StatsBatch) bool {
				if first == 0 {
					first = time.Since(start)
				}
				return true
			})
			return err
		})
		if err != nil {
			return err
		}
		d.note("explore.stats_first_batch_ms", ms(first))
		return d.put(fmt.Sprintf("%s|g%d", r.target, d.st.Generation()))
	case kHETree:
		return d.cached(r, func() error {
			var tree *hetree.Tree
			err := d.span("hetree.build", func() (err error) {
				prefs := core.DefaultPreferences()
				tree, err = hetree.FromSource(ctx, d.src, rdf.IRI(numIRI(r.prop)), hetree.Options{
					Mode: hetree.ContentBased, Degree: prefs.TreeDegree, LeafCapacity: prefs.LeafCapacity, Incremental: true,
				})
				return err
			})
			if err != nil {
				return err
			}
			return d.span("hetree.level", func() error { tree.LevelFor(r.budget); return nil })
		})
	case kSearch:
		return d.cached(r, func() error {
			if gen := d.st.Generation(); d.idx == nil || d.idxGen != gen {
				_ = d.span("keyword.build", func() error { d.idx, d.idxGen = keyword.BuildIndex(d.st), gen; return nil })
			}
			return d.span("keyword.search", func() error { d.idx.Search(r.text, 10); return nil })
		})
	case kNeighborhood:
		return d.cached(r, func() error {
			return d.span("explore.neighborhood", func() error {
				_, err := explore.FindNeighborhood(ctx, d.src, rdf.IRI(entityIRI(r.node)),
					explore.NeighborhoodOptions{Hops: r.hops, Sample: r.sample, Seed: r.seed})
				return err
			})
		})
	case kSparql, kAsk:
		return d.cached(r, func() error {
			q, err := d.parse(r.text)
			if err != nil {
				return err
			}
			var res *sparql.Results
			if err := d.span("sparql.eval", func() (err error) {
				res, err = sparql.EvalCtx(ctx, d.src, q, sparqlOpts)
				return err
			}); err != nil {
				return err
			}
			return d.span("sparql.json", func() error { _, err := res.JSON(); return err })
		})
	case kSparqlStream:
		q, err := d.parse(r.text)
		if err != nil {
			return err
		}
		start, first := time.Now(), time.Duration(0)
		err = d.span("sparql.eval", func() error {
			return sparql.PrepareStreamQuery(ctx, d.src, q, sparqlOpts).Run(func(sparql.Binding) bool {
				if first == 0 {
					first = time.Since(start)
				}
				return true
			})
		})
		d.note("sparql.stream_first_row_ms", ms(first))
		return err
	case kUpdate:
		var u *sparql.Update
		if err := d.span("sparql.parse", func() (err error) { u, err = sparql.ParseUpdate(r.body); return err }); err != nil {
			return err
		}
		err := d.span("sparql.eval", func() error { _, err := sparql.EvalUpdateCtx(ctx, d.src, u, sparqlOpts); return err })
		d.note("store.delta_triples", float64(d.st.Observe().Delta))
		return err
	case kIngest:
		var triples []rdf.Triple
		if err := d.span("ntriples.decode", func() (err error) {
			triples, err = ntriples.ReadAll(strings.NewReader(r.body))
			return err
		}); err != nil {
			return err
		}
		d.note("ntriples.triples", float64(len(triples)))
		_, err := d.src.AddBatch(triples)
		d.note("store.delta_triples", float64(d.st.Observe().Delta))
		return err
	}
	return nil
}

func (d *decomposed) parse(text string) (*sparql.Query, error) {
	var q *sparql.Query
	err := d.span("sparql.parse", func() (err error) { q, err = sparql.Parse(text); return err })
	return q, err
}

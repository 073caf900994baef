package server

import (
	"errors"
	"net/http"
	"strconv"

	"github.com/lodviz/lodviz/internal/explore"
	"github.com/lodviz/lodviz/internal/facet"
	"github.com/lodviz/lodviz/internal/progressive"
	"github.com/lodviz/lodviz/internal/sparql"
)

// appendFacetBatch appends one approximate /facets/stream line: the batch's
// fraction, scanned and count, then per facet its predicate, total and
// values, each count a CLT-bounded estimate {"value","ci95","fraction"} —
// value ± ci95 covers the exact answer with 95% confidence, fraction is
// the share of the dataset scanned when it was taken. A non-finite float
// fails the line, as encoding/json fails it.
func appendFacetBatch(dst []byte, b facet.Batch) ([]byte, error) {
	var err error
	float := func(f float64) {
		if err == nil {
			dst, err = sparql.AppendJSONFloat(dst, f)
		}
	}
	estimate := func(e progressive.Estimate) {
		dst = append(dst, `{"value":`...)
		float(e.Value)
		dst = append(dst, `,"ci95":`...)
		float(e.CI95)
		dst = append(dst, `,"fraction":`...)
		float(e.Fraction)
		dst = append(dst, '}')
	}
	dst = append(dst, `{"fraction":`...)
	float(b.Fraction)
	dst = append(dst, `,"scanned":`...)
	dst = strconv.AppendInt(dst, int64(b.Scanned), 10)
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(b.Count), 10)
	dst = append(dst, `,"facets":[`...)
	for i, fe := range b.Facets {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"predicate":`...)
		dst = sparql.AppendJSONString(dst, string(fe.Predicate))
		dst = append(dst, `,"total":`...)
		estimate(fe.Total)
		dst = append(dst, `,"values":[`...)
		for j, v := range fe.Values {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"term":`...)
			dst = sparql.AppendTerm(dst, v.Term)
			dst = append(dst, `,"count":`...)
			estimate(v.Count)
			dst = append(dst, '}')
		}
		dst = append(dst, "]}"...)
	}
	return append(dst, "]}"...), err
}

// handleFacetsStream serves the facet distribution progressively as NDJSON:
// approximate batches (exact count, CLT-scaled value estimates) while the
// ID walk is still running, then a final done line whose result field is
// byte-equivalent to /facets. A view that facet.Session.Stream answers by
// per-entity probes instead of a walk — fewer matched entities than one per
// 32 statements in the store, as a drilled-down selection usually has — gets
// the done line alone, as /stats/stream does. Parameters are exactly
// /facets'. The first batch is flushed as soon as it is written, later ones
// in 32 KiB runs or 5 ms after they were written, the done line at once. A
// completed stream also fills the buffered endpoint's cache entry, so the
// next /facets request for the same view is a HIT.
func (s *Server) handleFacetsStream(w http.ResponseWriter, r *http.Request) {
	max, filters, rawFilters, errStatus, errMsg := s.facetParams(r.URL.Query())
	if errStatus != 0 {
		writeError(w, errStatus, errMsg)
		return
	}
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	gen := s.st.Generation() // before the scan, as serveCached reads it
	// The session first: while nothing is written its failure is still a
	// status, the one the buffered route answers with.
	sess, err := s.facetSession(ctx, max, filters)
	if err != nil {
		status, msg := queryError(err)
		writeError(w, status, msg)
		return
	}
	st := s.startStream(w, "/facets/stream")
	defer st.close()
	lines := 0
	count, fs, err := sess.Stream(ctx, 0, 1, func(b facet.Batch) bool {
		line, err := appendFacetBatch(st.buf[:0], b)
		if err != nil || !st.line(line, true) {
			return false
		}
		lines++
		return true
	})
	finishExploreStream(w, st, lines, err, func() result {
		res := jsonResult(encodeFacetsResponse(count, fs), sess.Footprint())
		s.fillCache(s.facetsKey(max, rawFilters), gen, res)
		return res
	})
}

// finishExploreStream ends a progressive exploration stream whose scan
// returned err after lines batches were written. publish encodes the exact
// result — the buffered endpoint's body — and fills that endpoint's cache
// entry with it; it runs before the done line is written, because a client
// that reads done and at once asks the buffered endpoint for the same view
// must find the entry. The done line carries the body as encoded, once.
func finishExploreStream(w http.ResponseWriter, st *ndjsonStream, lines int, err error, publish func() result) {
	if errors.Is(err, explore.ErrStopped) {
		// Client gone mid-stream: the batches delivered so far still count.
		markStream(w, lines, streamAborted)
		return
	}
	if err != nil {
		_, msg := queryError(err)
		line := sparql.AppendJSONString(append(st.buf[:0], `{"done":false,"fraction":0,"error":`...), msg)
		markStream(w, lines, trailerOutcome(streamFailed, st.end(append(line, '}'))))
		return
	}
	res := publish()
	line := append(append(st.buf[:0], `{"done":true,"fraction":1,"result":`...), res.body...)
	if res.status == http.StatusOK && st.end(append(line, '}')) {
		markStream(w, lines+1, streamCompleted)
	} else {
		markStream(w, lines, streamAborted)
	}
}

// handleStatsStream serves the dataset summary as NDJSON: one done line
// whose result field is byte-equivalent to /stats (and fills its cache
// entry). The store keeps its statistics, so the exact answer is a read
// cheaper than any estimate of a walk, and nothing is approximated; a
// request out of time before it starts still ends with the error trailer.
func (s *Server) handleStatsStream(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	gen := s.st.Generation()
	st := s.startStream(w, "/stats/stream")
	defer st.close()
	finishExploreStream(w, st, 0, ctx.Err(), func() result {
		res := jsonResult(encodeStatsResponse(s.st.ComputeStats()), wholeStore)
		s.fillCache(statsKey, gen, res)
		return res
	})
}

// fillCache publishes a completed scan's exact result under the buffered
// endpoint's cache key, as computed from generation gen on (read before the
// scan): a stream that raced a write is found out like any other entry,
// when it is next looked up. A result that read the whole store and has
// been raced already is not worth an entry; one the cache refuses as too
// large is not counted.
func (s *Server) fillCache(key string, gen uint64, res result) {
	if s.cache == nil || res.status != http.StatusOK || res.reads.Whole() && s.st.Generation() != gen {
		return
	}
	if s.cache.Put(key, res.entry(gen)) {
		s.met.cacheFills.Inc()
	}
}

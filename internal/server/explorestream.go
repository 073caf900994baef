package server

import (
	"errors"
	"net/http"

	"github.com/lodviz/lodviz/internal/explore"
	"github.com/lodviz/lodviz/internal/facet"
	"github.com/lodviz/lodviz/internal/progressive"
	"github.com/lodviz/lodviz/internal/sparql"
	"github.com/lodviz/lodviz/internal/store"
)

// estimateJSON carries one CLT-bounded progressive estimate on the wire:
// value ± ci95 covers the exact answer with 95% confidence, fraction is the
// share of the dataset scanned when it was taken.
type estimateJSON struct {
	Value    float64 `json:"value"`
	CI95     float64 `json:"ci95"`
	Fraction float64 `json:"fraction"`
}

func encodeEstimate(e progressive.Estimate) estimateJSON {
	return estimateJSON{Value: e.Value, CI95: e.CI95, Fraction: e.Fraction}
}

// facetsStreamBatch is one approximate NDJSON line of /facets/stream.
type facetsStreamBatch struct {
	Fraction float64             `json:"fraction"`
	Scanned  int                 `json:"scanned"`
	Count    int                 `json:"count"`
	Facets   []facetEstimateJSON `json:"facets"`
}

type facetEstimateJSON struct {
	Predicate string                   `json:"predicate"`
	Total     estimateJSON             `json:"total"`
	Values    []facetValueEstimateJSON `json:"values"`
}

type facetValueEstimateJSON struct {
	Term  sparql.JSONTerm `json:"term"`
	Count estimateJSON    `json:"count"`
}

// exploreStreamFinal is the last NDJSON line of a progressive exploration
// stream: the exact result (identical to the buffered endpoint's body) or a
// mid-stream error.
type exploreStreamFinal struct {
	Done     bool    `json:"done"`
	Fraction float64 `json:"fraction"`
	Result   any     `json:"result,omitempty"`
	Error    string  `json:"error,omitempty"`
}

// streamLiner sets up NDJSON streaming on w and returns the per-line writer
// (false once the client is gone) — the chunked plumbing the SPARQL
// streaming endpoint established.
func streamLiner(w http.ResponseWriter) func(v any) bool {
	h := w.Header()
	h.Set("Content-Type", streamContentType)
	h.Set("X-Cache", "BYPASS")
	w.WriteHeader(http.StatusOK)
	return ndjsonLiner(w)
}

// handleFacetsStream serves the facet distribution progressively as NDJSON:
// approximate batches (exact count, CLT-scaled value estimates) while the
// ID walk is still running, then a final done line whose result field is
// byte-equivalent to /facets. Parameters are exactly /facets'. A completed
// stream also fills the buffered endpoint's cache entry, so the next
// /facets request for the same view is a HIT.
func (s *Server) handleFacetsStream(w http.ResponseWriter, r *http.Request) {
	max, filters, rawFilters, errStatus, errMsg := s.facetParams(r)
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
	line := streamLiner(w)
	lines := 0
	count, fs, err := sess.Stream(ctx, 0, 1, func(b facet.Batch) bool {
		out := facetsStreamBatch{
			Fraction: b.Fraction,
			Scanned:  b.Scanned,
			Count:    b.Count,
			Facets:   []facetEstimateJSON{},
		}
		for _, fe := range b.Facets {
			fj := facetEstimateJSON{
				Predicate: string(fe.Predicate),
				Total:     encodeEstimate(fe.Total),
				Values:    []facetValueEstimateJSON{},
			}
			for _, v := range fe.Values {
				fj.Values = append(fj.Values, facetValueEstimateJSON{
					Term:  sparql.EncodeTerm(v.Term),
					Count: encodeEstimate(v.Count),
				})
			}
			out.Facets = append(out.Facets, fj)
		}
		if !line(out) {
			return false
		}
		lines++
		return true
	})
	finishExploreStream(w, line, lines, err, func() any {
		resp := encodeFacetsResponse(count, fs)
		s.fillCache(s.facetsKey(max, rawFilters), gen, sess.Footprint(), resp)
		return resp
	})
}

// finishExploreStream ends a progressive exploration stream whose scan
// returned err after lines batches were written. publish encodes the exact
// result and fills the buffered endpoint's cache entry with it; it runs
// before the done trailer is written, because a client that reads done and
// at once asks the buffered endpoint for the same view must find the entry.
func finishExploreStream(w http.ResponseWriter, line func(v any) bool, lines int, err error, publish func() any) {
	if errors.Is(err, explore.ErrStopped) {
		// Client gone mid-stream: the batches delivered so far still count.
		markStream(w, lines, streamAborted)
		return
	}
	if err != nil {
		_, msg := queryError(err)
		markStream(w, lines, trailerOutcome(streamFailed, line(exploreStreamFinal{Error: msg})))
		return
	}
	if line(exploreStreamFinal{Done: true, Fraction: 1, Result: publish()}) {
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
	finishExploreStream(w, streamLiner(w), 0, ctx.Err(), func() any {
		resp := encodeStatsResponse(s.st.ComputeStats())
		s.fillCache(statsKey, gen, wholeStore, resp)
		return resp
	})
}

// fillCache publishes a completed scan's exact result under the buffered
// endpoint's cache key, as computed from generation gen on (read before the
// scan): a stream that raced a write is found out like any other entry,
// when it is next looked up. A result that read the whole store and has
// been raced already is not worth encoding.
func (s *Server) fillCache(key string, gen uint64, reads store.Footprint, resp any) {
	if s.cache == nil || reads.Whole() && s.st.Generation() != gen {
		return
	}
	if res := jsonResult(resp, reads); res.status == http.StatusOK {
		s.cache.Put(key, res.entry(gen))
		s.met.cacheFills.Inc()
	}
}

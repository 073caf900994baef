package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"

	"github.com/lodviz/lodviz/internal/sparql"
	"github.com/lodviz/lodviz/internal/store"
)

// streamContentType is the media type of the chunked streaming results
// format: one JSON document per line (NDJSON).
const streamContentType = "application/x-ndjson"

// streamHead is the first NDJSON line of a streamed SELECT response; it
// plays the role of the "head" object in the SPARQL JSON format.
type streamHead struct {
	Vars []string `json:"vars"`
}

// streamTrailer is the last NDJSON line: done marks a complete result set,
// error a mid-stream failure (the HTTP status is long gone by then).
type streamTrailer struct {
	Done  bool   `json:"done"`
	Rows  int    `json:"rows"`
	Error string `json:"error,omitempty"`
}

// streamAsk is the single NDJSON payload line of a streamed ASK response.
type streamAsk struct {
	Boolean bool `json:"boolean"`
}

// handleSPARQLStream implements chunked streaming query results: the query
// arrives exactly as on /sparql, the response is NDJSON — a head line with
// the projected variables, one results.bindings-shaped line per row, and a
// done/error trailer. Rows are written and flushed as the engine finds
// them, so the first row of a plain LIMIT/OFFSET query arrives while the
// scan is still running (and the scan stops once the limit is filled).
// Responses always bypass the generation cache, like SERVICE queries on
// /sparql: buffering a stream to cache it would forfeit the point.
func (s *Server) handleSPARQLStream(w http.ResponseWriter, r *http.Request) {
	q, isUpdate, errStatus, errMsg := sparqlRequestText(r)
	if errStatus != 0 {
		writeError(w, errStatus, errMsg)
		return
	}
	if isUpdate {
		writeError(w, http.StatusBadRequest, "updates are not streamable; POST them to /sparql")
		return
	}
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	stm, err := sparql.PrepareStream(ctx, s.source(), q, sparql.Options{Parallelism: s.cfg.Parallelism, Service: s.mesh, Metrics: s.engineMet})
	if err != nil {
		status, msg := queryError(err)
		writeError(w, status, msg)
		return
	}

	h := w.Header()
	h.Set("Content-Type", streamContentType)
	h.Set("X-Cache", "BYPASS")
	h.Set("X-Stream-Incremental", strconv.FormatBool(stm.Incremental()))
	w.WriteHeader(http.StatusOK)
	line := ndjsonLiner(w)

	if stm.Form() == sparql.FormAsk {
		ans, err := stm.Ask()
		if err != nil {
			_, msg := queryError(err)
			markStream(w, 0, trailerOutcome(streamFailed, line(streamTrailer{Error: msg})))
			return
		}
		if line(streamAsk{Boolean: ans}) {
			markStream(w, 1, trailerOutcome(streamCompleted, line(streamTrailer{Done: true})))
		} else {
			markStream(w, 0, streamAborted)
		}
		return
	}

	if !line(streamHead{Vars: stm.Vars()}) {
		markStream(w, 0, streamAborted)
		return
	}
	rows := 0
	clientGone := false
	runErr := stm.Run(func(row sparql.Binding) bool {
		if !line(sparql.EncodeBinding(row)) {
			clientGone = true
			return false
		}
		rows++
		if s.streamRowHook != nil {
			s.streamRowHook(rows)
		}
		return true
	})
	if runErr != nil {
		_, msg := queryError(runErr)
		markStream(w, rows, trailerOutcome(streamFailed, line(streamTrailer{Rows: rows, Error: msg})))
		return
	}
	if clientGone {
		// The rows delivered before the disconnect still count — the
		// access log and metrics must not lose them.
		markStream(w, rows, streamAborted)
		return
	}
	markStream(w, rows, trailerOutcome(streamCompleted, line(streamTrailer{Done: true, Rows: rows})))
}

// ndjsonLiner returns the per-line NDJSON writer over w: encode, newline,
// flush — so each line reaches the client as it is produced. It reports
// false once the client is gone (the signal to stop evaluating).
func ndjsonLiner(w http.ResponseWriter) func(v any) bool {
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	return func(v any) bool {
		if err := enc.Encode(v); err != nil {
			return false // client gone; stop evaluating
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
}

// queryCtx bounds one request's evaluation by the configured timeout.
func (s *Server) queryCtx(r *http.Request) (ctx context.Context, cancel context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
}

// source is what the read endpoints scan: the store, unless a test wrapped
// it (Config.source) to observe, gate or throttle scans.
func (s *Server) source() store.Source {
	if s.cfg.source != nil {
		return s.cfg.source
	}
	return s.st
}

package server

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/lodviz/lodviz/internal/obs"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/sparql"
	"github.com/lodviz/lodviz/internal/store"
)

// streamContentType is the media type of the chunked streaming results
// format: one JSON document per line (NDJSON).
const streamContentType = "application/x-ndjson"

// The flush policy of every NDJSON stream. Lines wait in the stream's own
// buffer and go to the ResponseWriter in one Write at each flush: at once
// after the first payload line (the time to the first row or estimate is
// what a progressive stream is for), whenever streamFlushBytes are pending,
// streamFlushDelay after the first line not yet flushed (so a line written
// before a stalled scan still leaves), and with the trailer.
const (
	streamFlushBytes = 32 << 10
	streamFlushDelay = 5 * time.Millisecond
)

// ndjsonStream is the one output path of the streaming endpoints: it writes
// their lines and flushes them by the policy above. Handlers build each
// line in buf[:0] with the append encoders, hand it to line or end, and
// defer close. Every method reports false once the client is gone — a
// write or a flush failed — which is the signal to stop evaluating.
type ndjsonStream struct {
	buf []byte // the line being built, reused; the handler's alone

	// mu serializes the handler's writes with the timer's flush.
	mu      sync.Mutex
	w       http.ResponseWriter
	rc      *http.ResponseController
	flushes *obs.Counter
	delay   time.Duration
	timer   *time.Timer
	pending []byte // lines not yet flushed, newline-terminated
	armed   bool   // the timer runs for the pending lines
	payload bool   // the first payload line is out
	gone    bool   // a write or flush failed
}

// startStream commits a 200 NDJSON response on w (cache-bypassing, like
// every stream) and returns its line writer; route labels its flushes.
func (s *Server) startStream(w http.ResponseWriter, route string) *ndjsonStream {
	h := w.Header()
	h.Set("Content-Type", streamContentType)
	h.Set("X-Cache", "BYPASS")
	w.WriteHeader(http.StatusOK)
	return &ndjsonStream{w: w, rc: http.NewResponseController(w), flushes: s.met.streamFlushes.With(route), delay: s.flushDelay}
}

// line writes b, one JSON document, as the next line. payload is false for
// the SPARQL head line alone: the first payload line is flushed at once,
// later ones when the policy says.
func (st *ndjsonStream) line(b []byte, payload bool) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.writeLocked(b) {
		return false
	}
	switch {
	case payload && !st.payload, len(st.pending) >= streamFlushBytes:
		st.payload = st.payload || payload
		return st.flushLocked()
	case !st.armed:
		st.armed = true
		if st.timer == nil {
			st.timer = time.AfterFunc(st.delay, st.flushLate)
		} else {
			st.timer.Reset(st.delay)
		}
	}
	return true
}

// end writes the trailer b, the stream's last line, and flushes.
func (st *ndjsonStream) end(b []byte) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.writeLocked(b) && st.flushLocked()
}

// close stops the timer and flushes what is still pending (nothing after
// a trailer), so nothing touches the writer once the handler has returned:
// a timer callback already under way finds nothing to flush.
func (st *ndjsonStream) close() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.timer != nil {
		st.timer.Stop()
	}
	if !st.gone && len(st.pending) > 0 {
		st.flushLocked()
	}
}

// flushLate is the timer's flush of lines that have waited streamFlushDelay.
func (st *ndjsonStream) flushLate() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.armed = false
	if !st.gone && len(st.pending) > 0 {
		st.flushLocked()
	}
}

// writeLocked adds b to the pending lines; b is buf or grew from it, so
// the handler builds its next line in what b grew to.
func (st *ndjsonStream) writeLocked(b []byte) bool {
	st.buf = b
	if st.gone {
		return false
	}
	st.pending = append(append(st.pending, b...), '\n')
	return true
}

// flushLocked hands the pending lines to the writer in one Write and
// flushes it.
func (st *ndjsonStream) flushLocked() bool {
	if st.armed {
		st.armed = false
		st.timer.Stop()
	}
	st.flushes.Inc()
	_, err := st.w.Write(st.pending)
	st.pending = st.pending[:0]
	if err == nil {
		err = st.rc.Flush()
	}
	if err != nil && !errors.Is(err, http.ErrNotSupported) {
		st.gone = true
	}
	return !st.gone
}

// appendTrailer appends the last line of a SPARQL stream: done with the row
// count, or the error that ended it (the HTTP status is long gone by then).
func appendTrailer(dst []byte, rows int, errMsg string) []byte {
	dst = append(dst, `{"done":`...)
	dst = strconv.AppendBool(dst, errMsg == "")
	dst = append(dst, `,"rows":`...)
	dst = strconv.AppendInt(dst, int64(rows), 10)
	if errMsg != "" {
		dst = append(dst, `,"error":`...)
		dst = sparql.AppendJSONString(dst, errMsg)
	}
	return append(dst, '}')
}

// handleSPARQLStream implements chunked streaming query results: the query
// arrives exactly as on /sparql, the response is NDJSON — a head line with
// the projected variables, one results.bindings-shaped line per row, and a
// done/error trailer. The first row is flushed as soon as the engine finds
// it, so it arrives while the scan is still running (and the scan stops
// once a LIMIT is filled); later rows leave in 32 KiB runs, or 5 ms after
// they were written if the engine pauses, and the trailer at once.
// Responses always bypass the generation cache, like SERVICE queries on
// /sparql: buffering a stream to cache it would forfeit the point.
func (s *Server) handleSPARQLStream(w http.ResponseWriter, r *http.Request) {
	q, isUpdate, errStatus, errMsg := sparqlRequestText(r, r.URL.Query())
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

	w.Header().Set("X-Stream-Incremental", strconv.FormatBool(stm.Incremental()))
	st := s.startStream(w, "/sparql/stream")
	defer st.close()

	if stm.Form() == sparql.FormAsk {
		ans, err := stm.Ask()
		if err != nil {
			_, msg := queryError(err)
			markStream(w, 0, trailerOutcome(streamFailed, st.end(appendTrailer(st.buf[:0], 0, msg))))
			return
		}
		line := strconv.AppendBool(append(st.buf[:0], `{"boolean":`...), ans)
		if st.line(append(line, '}'), true) {
			markStream(w, 1, trailerOutcome(streamCompleted, st.end(appendTrailer(st.buf[:0], 0, ""))))
		} else {
			markStream(w, 0, streamAborted)
		}
		return
	}

	head := sparql.AppendJSONStrings(append(st.buf[:0], `{"vars":`...), stm.Vars())
	if !st.line(append(head, '}'), false) {
		markStream(w, 0, streamAborted)
		return
	}
	order := sparql.NewColumnOrder(stm.Vars())
	rows := 0
	clientGone := false
	runErr := stm.RunRows(func(row []rdf.Term) bool {
		if !st.line(sparql.AppendColumns(st.buf[:0], order, row), true) {
			clientGone = true
			return false
		}
		rows++
		return true
	})
	if runErr != nil {
		_, msg := queryError(runErr)
		markStream(w, rows, trailerOutcome(streamFailed, st.end(appendTrailer(st.buf[:0], rows, msg))))
		return
	}
	if clientGone {
		// The rows delivered before the disconnect still count — the
		// access log and metrics must not lose them.
		markStream(w, rows, streamAborted)
		return
	}
	markStream(w, rows, trailerOutcome(streamCompleted, st.end(appendTrailer(st.buf[:0], rows, ""))))
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

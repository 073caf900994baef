package server

import (
	"strconv"

	"github.com/lodviz/lodviz/internal/federation"
	"github.com/lodviz/lodviz/internal/obs"
)

// serverMetrics holds the HTTP layer's instrumentation handles. Every
// server has one — over the registry Config.Metrics supplies, or a private
// one — so handlers never branch on "metrics enabled".
type serverMetrics struct {
	// requests counts finished requests by route, method, and status class
	// ("2xx"…); latency and bytes are per route.
	requests *obs.CounterVec
	latency  *obs.HistogramVec
	bytes    *obs.CounterVec
	// inFlight gauges requests currently holding a concurrency slot; shed
	// counts requests refused with 429 when an endpoint's slots ran out.
	inFlight *obs.Gauge
	shed     *obs.CounterVec
	// streams counts NDJSON streams by route and outcome ("completed" or
	// "aborted" — the client disconnected mid-stream); streamRows counts
	// the lines they delivered either way; streamFlushes counts the flushes
	// their flush policy made.
	streams       *obs.CounterVec
	streamRows    *obs.CounterVec
	streamFlushes *obs.CounterVec
	// cacheFills counts buffered-endpoint cache entries filled by a
	// completed stream (the fill-from-stream path); slowQueries counts
	// queries over Config.SlowQueryThreshold.
	cacheFills  *obs.Counter
	slowQueries *obs.Counter
	// cacheRevalidated counts cache entries carried across a store
	// generation at lookup; cacheByFootprint and cacheByLog, those dropped
	// there because a write since touched what the entry read, or because
	// the change log no longer covers the span (the two causes of
	// lodviz_cache_invalidated_total).
	cacheRevalidated             *obs.Counter
	cacheByFootprint, cacheByLog *obs.Counter
}

func newServerMetrics(r *obs.Registry) *serverMetrics {
	invalidated := r.CounterVec("lodviz_cache_invalidated_total", "Response-cache entries dropped at lookup: a write since touched their footprint, or the change log no longer covers the span.", "cause")
	return &serverMetrics{
		requests:         r.CounterVec("lodviz_http_requests_total", "Finished HTTP requests.", "route", "method", "class"),
		latency:          r.HistogramVec("lodviz_http_request_seconds", "HTTP request latency in seconds.", obs.DefBuckets, "route"),
		bytes:            r.CounterVec("lodviz_http_response_bytes_total", "HTTP response body bytes written.", "route"),
		inFlight:         r.Gauge("lodviz_http_in_flight_requests", "Requests currently holding a concurrency slot."),
		shed:             r.CounterVec("lodviz_http_shed_total", "Requests shed with 429 at the concurrency limiter.", "route"),
		streams:          r.CounterVec("lodviz_http_streams_total", "NDJSON streams by outcome (completed or aborted).", "route", "outcome"),
		streamRows:       r.CounterVec("lodviz_http_stream_rows_total", "NDJSON lines delivered by streaming endpoints.", "route"),
		streamFlushes:    r.CounterVec("lodviz_http_stream_flushes_total", "Flushes of NDJSON streams: the first payload line, every 32 KiB, 5 ms after an unflushed line, and the trailer.", "route"),
		cacheFills:       r.Counter("lodviz_cache_fill_from_stream_total", "Response-cache entries filled by completed streams."),
		slowQueries:      r.Counter("lodviz_slow_queries_total", "Queries slower than the slow-query threshold."),
		cacheRevalidated: r.Counter("lodviz_cache_revalidated_total", "Response-cache entries carried across a store generation: no write since touched their footprint."),
		cacheByFootprint: invalidated.With("footprint"),
		cacheByLog:       invalidated.With("log"),
	}
}

// registerCollectors wires the obs-free subsystems (store, response cache,
// keyword index, hetree bases, facet base, ledger, WAL frontier, federation
// mesh) into the registry as func-backed collectors sampled at scrape time.
func (s *Server) registerCollectors(r *obs.Registry) {
	st := s.st
	r.GaugeFunc("lodviz_store_triples", "Live triples in the store.",
		func() float64 { return float64(st.Observe().Triples) })
	r.GaugeFunc("lodviz_store_terms", "Dictionary terms in the store.",
		func() float64 { return float64(st.Observe().Terms) })
	r.GaugeFunc("lodviz_store_dict_slots", "Slots of the dictionary's term-to-ID hash table (8 B each; the table grows past half full).",
		func() float64 { return float64(st.Observe().DictSlots) })
	r.GaugeFunc("lodviz_store_delta_triples", "Inserted triples awaiting merge into the sorted indexes.",
		func() float64 { return float64(st.Observe().Delta) })
	r.GaugeFunc("lodviz_store_tombstones", "Deleted triples awaiting physical removal.",
		func() float64 { return float64(st.Observe().Tombstones) })
	r.CounterFunc("lodviz_store_generation", "Store content generation (bumps on every effective write).",
		func() float64 { return float64(st.Observe().Generation) })
	r.CounterFunc("lodviz_store_layout_epoch", "Store layout epoch (bumps on every physical index reshuffle).",
		func() float64 { return float64(st.Observe().LayoutEpoch) })
	r.CounterFunc("lodviz_store_scan_pages_total", "Paged-scan pages served by the store.",
		func() float64 { return float64(st.Observe().ScanPages) })
	r.CounterFunc("lodviz_store_scan_runs_total", "ID runs served by the store: each lends the index's own range, with the tombstones in it listed beside it.",
		func() float64 { return float64(st.Observe().ScanRuns) })
	r.GaugeFunc("lodviz_store_stats_tally_entries", "Map entries of the store's statistics tally (0 before it is built).",
		func() float64 { return float64(st.Observe().TallyEntries) })
	r.CounterFunc("lodviz_store_stats_tally_builds_total", "Whole-store walks that built the statistics tally (1 once anything asked for statistics).",
		func() float64 { return float64(st.Observe().TallyBuilds) })

	if c := s.cache; c != nil {
		r.CounterFunc("lodviz_cache_hits_total", "Response-cache hits.",
			func() float64 { return float64(c.Stats().Hits) })
		r.CounterFunc("lodviz_cache_misses_total", "Response-cache misses.",
			func() float64 { return float64(c.Stats().Misses) })
		r.CounterFunc("lodviz_cache_evictions_total", "Response-cache LRU evictions.",
			func() float64 { return float64(c.Stats().Evictions) })
		r.GaugeFunc("lodviz_cache_entries", "Response-cache entries resident.",
			func() float64 { return float64(c.Stats().Entries) })
		r.GaugeFunc("lodviz_cache_capacity", "Response-cache entry capacity.",
			func() float64 { return float64(c.Stats().Capacity) })
	}

	kw := s.kw
	r.CounterVecFunc("lodviz_keyword_refresh_total", "Keyword-index refreshes by mode: incremental re-indexes the entities written since the last one, rebuild scans the store.",
		[]string{"mode"}, func() []obs.Sample {
			ks := kw.Stats()
			return []obs.Sample{
				{Labels: []string{"incremental"}, Value: float64(ks.Incremental.Count)},
				{Labels: []string{"rebuild"}, Value: float64(ks.Rebuild.Count)},
			}
		})
	r.CounterVecFunc("lodviz_keyword_refresh_seconds", "Cumulative seconds spent refreshing the keyword index, by mode.",
		[]string{"mode"}, func() []obs.Sample {
			ks := kw.Stats()
			return []obs.Sample{
				{Labels: []string{"incremental"}, Value: ks.Incremental.Seconds},
				{Labels: []string{"rebuild"}, Value: ks.Rebuild.Seconds},
			}
		})
	r.CounterFunc("lodviz_keyword_search_total", "Keyword searches served by the index.",
		func() float64 { return float64(kw.Stats().Searches) })
	r.CounterFunc("lodviz_keyword_search_postings_total", "Postings keyword searches read: merged by subject ID, probed by galloping, walked in impact order. Divided by lodviz_keyword_search_total, the work of one search.",
		func() float64 { return float64(kw.Stats().SearchPostings) })

	bases := s.bases
	r.CounterVecFunc("lodviz_hetree_base_total", "Sorted value runs under /hetree by outcome: built collects and sorts the property's values from the store, reused cuts the kept run.",
		[]string{"outcome"}, func() []obs.Sample {
			bs := bases.Stats()
			return []obs.Sample{
				{Labels: []string{"built"}, Value: float64(bs.Built)},
				{Labels: []string{"reused"}, Value: float64(bs.Reused)},
			}
		})
	r.CounterFunc("lodviz_hetree_base_build_seconds", "Cumulative seconds spent building /hetree value runs.",
		func() float64 { return bases.Stats().BuildSeconds })

	typed := s.typed
	r.CounterVecFunc("lodviz_facet_base_total", "Facet sessions by how their base was had: built collects the typed subjects (or, with none, all subjects) from the store, reused opens over the kept base.",
		[]string{"outcome"}, func() []obs.Sample {
			ts := typed.Stats()
			return []obs.Sample{
				{Labels: []string{"built"}, Value: float64(ts.Built)},
				{Labels: []string{"reused"}, Value: float64(ts.Reused)},
			}
		})
	r.CounterFunc("lodviz_facet_base_build_seconds", "Cumulative seconds spent collecting facet session bases.",
		func() float64 { return typed.Stats().BuildSeconds })

	if led := s.cfg.Ledger; led != nil {
		r.GaugeFunc("lodviz_ledger_leaves", "Mutation-ledger leaves covered by the current root.",
			func() float64 { return float64(led.Root().Count) })
		r.GaugeFunc("lodviz_ledger_sealed_batches", "Sealed Merkle batches in the mutation ledger.",
			func() float64 { return float64(led.Root().SealedBatches) })
	}

	if w := s.cfg.WAL; w != nil {
		r.GaugeFunc("lodviz_wal_frontier_seq", "Highest WAL sequence written (not necessarily fsynced).",
			func() float64 { return float64(w.LastSeq()) })
	}

	// Per-endpoint series are the peers' alone: the endpoints query text
	// names share endpoint="other" in the two counters, so no query can add
	// a label value.
	mesh := s.mesh
	peers := func(sample func(federation.EndpointStatus) obs.Sample) []obs.Sample {
		var out []obs.Sample
		for _, ep := range mesh.Status() {
			if ep.Peer {
				out = append(out, sample(ep))
			}
		}
		return out
	}
	r.GaugeVecFunc("lodviz_federation_endpoint_state", "Circuit state per federation peer (1 = current state).",
		[]string{"endpoint", "state"}, func() []obs.Sample {
			return peers(func(ep federation.EndpointStatus) obs.Sample {
				return obs.Sample{Labels: []string{ep.URL, ep.State}, Value: 1}
			})
		})
	r.GaugeVecFunc("lodviz_federation_endpoint_latency_ms", "Request-latency EWMA per federation peer.",
		[]string{"endpoint"}, func() []obs.Sample {
			return peers(func(ep federation.EndpointStatus) obs.Sample {
				return obs.Sample{Labels: []string{ep.URL}, Value: ep.LatencyMs}
			})
		})
	r.CounterVecFunc("lodviz_federation_endpoint_requests_total", "Requests dispatched per federation peer; endpoint=\"other\" counts every other endpoint.",
		[]string{"endpoint"}, func() []obs.Sample {
			requests, _ := mesh.AdHocTotals()
			return append(peers(func(ep federation.EndpointStatus) obs.Sample {
				return obs.Sample{Labels: []string{ep.URL}, Value: float64(ep.Requests)}
			}), obs.Sample{Labels: []string{"other"}, Value: float64(requests)})
		})
	r.CounterVecFunc("lodviz_federation_endpoint_failures_total", "Failed requests per federation peer; endpoint=\"other\" counts every other endpoint.",
		[]string{"endpoint"}, func() []obs.Sample {
			_, failures := mesh.AdHocTotals()
			return append(peers(func(ep federation.EndpointStatus) obs.Sample {
				return obs.Sample{Labels: []string{ep.URL}, Value: float64(ep.Failures)}
			}), obs.Sample{Labels: []string{"other"}, Value: float64(failures)})
		})
	r.CounterFunc("lodviz_federation_cache_hits_total", "Federation remote-result cache hits.",
		func() float64 { return float64(mesh.CacheStats().Hits) })
	r.CounterFunc("lodviz_federation_cache_misses_total", "Federation remote-result cache misses.",
		func() float64 { return float64(mesh.CacheStats().Misses) })
}

// statusClass buckets an HTTP status for the requests metric ("2xx", "4xx",
// …).
func statusClass(status int) string {
	return strconv.Itoa(status/100) + "xx"
}

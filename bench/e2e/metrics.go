package main

import (
	"fmt"
	"io"
	"sort"
)

// def declares a metric the benchmark prints. BENCHMARK.json declares the
// same names; a test keeps the two lists equal.
type def struct{ name, unit string }

// endToEnd are the metrics a user of the server would see. Every one is
// defined, and not zero, on every workload, and repeats from run to run on
// every workload; what a user sees but does not repeat on some workload is
// among the client metrics below, without a bound.
var endToEnd = []def{
	{"setup_s", "s"},                // spawn, first /healthz 200, warm-up done; median of the set-ups of a run
	{"req_per_s", "1/s"},            // successful requests per second, all clients
	{"req_p90_ms", "ms"},            // 90th percentile request: a read from send to last byte, a paced write from its due time to the acknowledgement
	{"server_cpu_ms_per_req", "ms"}, // user+system CPU of lodvizd per successful request
	{"rss_peak_mb", "MB"},           // VmHWM of lodvizd after the timed phase
}

// perLayer are the metrics of single layers, named <layer>.<metric>. Times
// called *_ms are self time per replayed request unless they name a first
// batch or row; *_us are per call. The client layer holds what a user sees
// on some workloads only (a progressive stream, a write) or what does not
// repeat within a tenth on every workload (the median session, whose time on
// bulk_ingest is that of a scan restarted under it, and the percentiles of
// reads alone).
var perLayer = []def{
	{"server.handler_ms", "ms"},
	{"server.http_overhead_ms", "ms"},
	{"server.resp_bytes_per_req", "B"},
	{"server.shed_total", "count"},
	{"server.read_p99_ms", "ms"},
	{"cache.hit_ratio", "ratio"},
	{"cache.get_us", "us"},
	{"cache.put_us", "us"},
	{"cache.evictions", "count"},
	{"cache.stream_fills", "count"},
	{"sparql.parse_ms", "ms"},
	{"sparql.eval_self_ms", "ms"},
	{"sparql.json_ms", "ms"},
	{"sparql.matches_per_row", "ratio"},
	{"sparql.idjoin_share", "ratio"},
	{"sparql.limit_pushdowns", "count"},
	{"sparql.stream_first_row_ms", "ms"},
	{"store.scan_self_ms", "ms"},
	{"store.scan_calls_per_req", "count"},
	{"store.pages_per_req", "count"},
	{"store.decode_ms", "ms"},
	{"store.apply_ms", "ms"},
	{"store.delta_triples_max", "count"},
	{"store.layout_epoch_bumps", "count"},
	{"facet.session_ms", "ms"},
	{"facet.facets_ms", "ms"},
	{"facet.stream_ms", "ms"},
	{"facet.stream_first_batch_ms", "ms"},
	{"hetree.build_ms", "ms"},
	{"hetree.level_ms", "ms"},
	{"explore.neighborhood_ms", "ms"},
	{"explore.stats_ms", "ms"},
	{"explore.stats_first_batch_ms", "ms"},
	{"keyword.build_ms", "ms"},
	{"keyword.search_ms", "ms"},
	{"ntriples.decode_ms_per_ktriple", "ms"},
	{"wal.append_ms", "ms"},
	{"wal.sync_wait_ms", "ms"},
	{"wal.fsync_ms_mean", "ms"},
	{"wal.group_commit_mean", "count"},
	{"wal.bytes_per_triple", "B"},
	{"wal.recovery_s", "s"},
	{"ledger.append_us", "us"},
	{"obs.scrape_ms", "ms"},
	{"loadgen.late_p90_ms", "ms"},
	{"loadgen.cpu_share", "ratio"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"client.session_p50_ms", "ms"},
	{"client.read_p50_ms", "ms"},
	{"client.read_p90_ms", "ms"},
	{"client.ttfe_p50_ms", "ms"},
	{"client.ttfe_p90_ms", "ms"},
	{"client.stream_done_p50_ms", "ms"},
	{"client.write_ack_p50_ms", "ms"},
	{"client.write_ack_p90_ms", "ms"},
	{"client.ingest_triples_per_s", "1/s"},
	{"client.fail_frac", "ratio"},
}

// metric is one printed value. N is the number of samples behind it; a
// metric with no samples on this workload is 0. Unresolved marks a
// percentile with fewer than ten samples beyond it, which is printed as 0.
type metric struct {
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	N          int     `json:"n"`
	Unresolved bool    `json:"unresolved,omitempty"`
}

// report collects the metrics of one run.
type report struct {
	defs []def
	m    map[string]metric
}

func newReport(defs []def) *report {
	r := &report{defs: defs, m: map[string]metric{}}
	for _, d := range defs {
		r.m[d.name] = metric{Unit: d.unit}
	}
	return r
}

func (r *report) set(name string, v float64, n int) {
	m, ok := r.m[name]
	if !ok {
		panic("undeclared metric " + name) // a bug in this file
	}
	m.Value, m.N = v, n
	r.m[name] = m
}

// setPercentile sets name to the p-th percentile of xs, or marks it
// unresolved when too few samples lie beyond it.
func (r *report) setPercentile(name string, xs []float64, p float64) {
	v, ok := percentile(xs, p)
	r.set(name, v, len(xs))
	if !ok && len(xs) > 0 {
		m := r.m[name]
		m.Unresolved = true
		r.m[name] = m
	}
}

// print writes every metric by name with its unit and sample count.
func (r *report) print(w io.Writer) {
	for _, d := range r.defs {
		m := r.m[d.name]
		v := fmt.Sprintf("%.6g", m.Value)
		if m.Unresolved {
			v = "unresolved"
		}
		fmt.Fprintf(w, "  %-32s %14s %-6s n=%d\n", d.name, v, d.unit, m.N)
	}
}

// endToEndReport derives the end-to-end metrics of a run over HTTP.
func endToEndReport(run *httpRun) *report {
	r := newReport(endToEnd)
	r.set("setup_s", median(run.setups), len(run.setups))
	r.set("req_per_s", ratio(float64(run.ok), run.elapsed), run.ok)
	r.setPercentile("req_p90_ms", append(append([]float64(nil), run.read...), run.writeAck...), 0.9)
	r.set("server_cpu_ms_per_req", ratio(run.serverCPU*1000, float64(run.ok)), run.ok)
	r.set("rss_peak_mb", run.rssPeakMB, 1)
	return r
}

// traceRun is what the in-process replay measured.
type traceRun struct {
	handler  []float64 // ms, one per replayed request, through the server's handler
	untraced float64   // ms, the layer calls of all of them without spans
	traced   float64   // ms, the same with spans
	spans    []span
	obs      map[string][]float64
	selfNS   map[string]int64
	calls    map[string]int
	layerNS  int64 // self time of every span but the request roots
}

// perLayerReport derives the per-layer metrics: counts from the server's
// /metrics before and after the timed phase over HTTP, times from the
// replay.
func perLayerReport(run *httpRun, tr *traceRun) *report {
	r := newReport(perLayer)
	c := run.counts
	ok := float64(run.ok)
	count := func(name, family string) { r.set(name, c[family], run.ok) }

	all := append(append([]float64(nil), run.read...), run.writeAck...)
	r.set("server.handler_ms", mean(tr.handler), len(tr.handler))
	r.set("server.http_overhead_ms", median(all)-median(tr.handler), len(tr.handler))
	r.set("server.resp_bytes_per_req", ratio(c["lodviz_http_response_bytes_total"], c["lodviz_http_requests_total"]), run.ok)
	count("server.shed_total", "lodviz_http_shed_total")
	r.setPercentile("server.read_p99_ms", run.read, 0.99)

	lookups := c["lodviz_cache_hits_total"] + c["lodviz_cache_misses_total"]
	r.set("cache.hit_ratio", ratio(c["lodviz_cache_hits_total"], lookups), int(lookups))
	count("cache.evictions", "lodviz_cache_evictions_total")
	count("cache.stream_fills", "lodviz_cache_fill_from_stream_total")
	runs := c["lodviz_engine_runs_idjoin_total"] + c["lodviz_engine_runs_hash_total"]
	r.set("sparql.matches_per_row", ratio(c["lodviz_engine_matches_scanned_total"], c["lodviz_engine_rows_total"]), int(c["lodviz_engine_rows_total"]))
	r.set("sparql.idjoin_share", ratio(c["lodviz_engine_runs_idjoin_total"], runs), int(runs))
	count("sparql.limit_pushdowns", "lodviz_engine_limit_pushdown_total")
	r.set("store.pages_per_req", ratio(c["lodviz_store_scan_pages_total"], ok), run.ok)
	count("store.layout_epoch_bumps", "lodviz_store_layout_epoch")
	fsyncs := c["lodviz_wal_fsync_seconds_count"]
	r.set("wal.fsync_ms_mean", ratio(c["lodviz_wal_fsync_seconds_sum"]*1000, fsyncs), int(fsyncs))
	r.set("wal.group_commit_mean", ratio(c["lodviz_wal_group_commit_records_sum"], c["lodviz_wal_group_commit_records_count"]), int(fsyncs))
	logged := c["lodviz_wal_appended_triples_total"]
	r.set("wal.bytes_per_triple", ratio(float64(run.walBytes), logged), int(logged))
	if run.recovery > 0 {
		r.set("wal.recovery_s", run.recovery, 1)
	}
	r.set("obs.scrape_ms", run.scrapeMS, 2)
	r.setPercentile("loadgen.late_p90_ms", run.late, 0.9)
	r.set("loadgen.cpu_share", ratio(run.selfCPU, run.selfCPU+run.serverCPU), 1)
	r.setPercentile("client.session_p50_ms", run.session, 0.5)
	r.setPercentile("client.read_p50_ms", run.read, 0.5)
	r.setPercentile("client.read_p90_ms", run.read, 0.9)
	r.setPercentile("client.ttfe_p50_ms", run.ttfe, 0.5)
	r.setPercentile("client.ttfe_p90_ms", run.ttfe, 0.9)
	r.setPercentile("client.stream_done_p50_ms", run.streamDone, 0.5)
	r.setPercentile("client.write_ack_p50_ms", run.writeAck, 0.5)
	r.setPercentile("client.write_ack_p90_ms", run.writeAck, 0.9)
	r.set("client.ingest_triples_per_s", ratio(float64(run.triples), run.elapsed), len(run.writeAck))
	r.set("client.fail_frac", ratio(float64(run.failed), float64(run.ok+run.failed)), run.ok+run.failed)

	// Times: self time of the spans of a name, per replayed request.
	n := len(tr.handler)
	perReq := func(name string, spans ...string) {
		var ns int64
		calls := 0
		for _, s := range spans {
			ns += tr.selfNS[s]
			calls += tr.calls[s]
		}
		r.set(name, ratio(float64(ns)/1e6, float64(n)), calls)
	}
	perCall := func(name, span string) {
		r.set(name, ratio(float64(tr.selfNS[span])/1e3, float64(tr.calls[span])), tr.calls[span])
	}
	observed := func(name string) { r.set(name, mean(tr.obs[name]), len(tr.obs[name])) }
	perCall("cache.get_us", "cache.get")
	perCall("cache.put_us", "cache.put")
	perReq("sparql.parse_ms", "sparql.parse")
	perReq("sparql.eval_self_ms", "sparql.eval")
	perReq("sparql.json_ms", "sparql.json")
	observed("sparql.stream_first_row_ms")
	perReq("store.scan_self_ms", "store.scan")
	r.set("store.scan_calls_per_req", ratio(float64(tr.calls["store.scan"]), float64(n)), tr.calls["store.scan"])
	perReq("store.decode_ms", "store.decode")
	perReq("store.apply_ms", "store.apply")
	deltas := tr.obs["store.delta_triples"]
	sort.Float64s(deltas)
	if len(deltas) > 0 {
		r.set("store.delta_triples_max", deltas[len(deltas)-1], len(deltas))
	}
	perReq("facet.session_ms", "facet.session")
	perReq("facet.facets_ms", "facet.facets")
	perReq("facet.stream_ms", "facet.stream")
	observed("facet.stream_first_batch_ms")
	perReq("hetree.build_ms", "hetree.build")
	perReq("hetree.level_ms", "hetree.level")
	perReq("explore.neighborhood_ms", "explore.neighborhood")
	perReq("explore.stats_ms", "explore.stats")
	observed("explore.stats_first_batch_ms")
	perReq("keyword.build_ms", "keyword.build")
	perReq("keyword.search_ms", "keyword.search")
	decoded := 0.0
	for _, v := range tr.obs["ntriples.triples"] {
		decoded += v
	}
	r.set("ntriples.decode_ms_per_ktriple", ratio(float64(tr.selfNS["ntriples.decode"])/1e6, decoded/1000), tr.calls["ntriples.decode"])
	perReq("wal.append_ms", "wal.append")
	perReq("wal.sync_wait_ms", "wal.sync")
	perCall("ledger.append_us", "ledger.append")
	r.set("trace.coverage", ratio(float64(tr.layerNS)/1e6, sum(tr.handler)), n)
	r.set("trace.overhead_ratio", ratio(tr.traced, tr.untraced), n)
	return r
}

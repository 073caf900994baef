# Development targets mirroring the CI jobs (.github/workflows/ci.yml).
# `make check` runs everything CI runs, locally; its bench-regression step
# needs an origin/main to take the merge base from.

GO ?= go

.PHONY: build test loc reach race flake bench bench-smoke bench-e2e-smoke bench-compare bench-regression bench-obs lint analyze fmt check cover-server fuzz-smoke serve serve-cluster

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The tracked size of the code (ROADMAP, "quality of design"): lines of
# non-test Go outside bench/, .bench_build/ (the trees bench-compare
# exports) and testdata/, for the tree, for the three
# packages between the store and what runs on it, for the store alone, for
# everything that reads or writes RDF terms as text or in the binary spelling
# the WAL and the snapshot share (internal/rdf), and for this module's
# packages in the server's import closure (`go list -deps ./cmd/lodvizd`).
# CI puts the numbers, and their difference against the merge base, into the
# job summary of every PR (it runs this recipe in a checkout of the base with
# `make -f <this file> -C <that tree> loc`, so the paths stay relative).
loc:
	@printf 'non-test Go lines, tree: %s\n' "$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' ! -path '*/testdata/*' | xargs cat | wc -l)"
	@printf 'non-test Go lines, internal/{sparql,store,explore}: %s\n' "$$(find internal/sparql internal/store internal/explore -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l)"
	@printf 'non-test Go lines, internal/store: %s\n' "$$(find internal/store -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l)"
	@printf 'non-test Go lines, internal/{rdf,ntriples,turtle} + sparql/lexer.go: %s\n' "$$(find internal/rdf internal/ntriples internal/turtle internal/sparql/lexer.go -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l)"
	@printf 'non-test Go lines, reachable from lodvizd: %s\n' "$$($(GO) list -deps -f '{{if and .Module .Module.Main}}{{range .GoFiles}}{{$$.Dir}}/{{.}} {{end}}{{end}}' ./cmd/lodvizd | xargs cat | wc -l)"

# Reachability (ROADMAP item 5, "delete by default"): every non-test package
# of the module must be reached by a program — a main package (cmd/...,
# examples/...) or the end-to-end benchmark (bench/e2e, its own module) —
# or be imported by another package's tests (a test helper such as
# internal/analysis/analysistest). Fails naming each package none of these
# reaches. The awk prints the lines after "--" that are not before it.
reach:
	@mod=$$($(GO) list -m); \
	roots=$$($(GO) list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); \
	helpers=$$($(GO) list -f '{{$$p := .ImportPath}}{{range .TestImports}}{{if ne . $$p}}{{.}} {{end}}{{end}}{{range .XTestImports}}{{if ne . $$p}}{{.}} {{end}}{{end}}' ./... | \
		tr ' ' '\n' | grep "^$$mod\(/\|$$\)" | sort -u); \
	unreached=$$( { $(GO) list -deps $$roots $$helpers; $(GO) list -C bench/e2e -deps .; echo --; $(GO) list ./...; } | \
		awk '$$0 == "--" { b = 1; next } !b { a[$$0] = 1; next } NF && !($$0 in a)'); \
	if [ -n "$$unreached" ]; then \
		echo "no program, bench/e2e or other package's test reaches:"; echo "$$unreached"; exit 1; fi; \
	echo "every package is reached"

# Race-detector pass over the concurrent packages: query engine (the
# dictionary-ID executor and its worker pool), store (including the
# snapshot round-trip under concurrent writers, and readers iterating runs
# lent from the index beside a writer that tombstones and compacts),
# snapshot format, the federation mesh
# (parallel bind-join batches, circuit breakers, TTL cache), HTTP server,
# the response cache, the metrics registry (sharded histograms
# and vec instantiation under concurrent scrapes), the keyword index
# (searches sharing the live index while refreshes follow a writer) and
# the facet sessions (sharing one kept typed-subject base while a writer
# moves it); plus a focused rerun of the dictionary/permutation paths,
# the lent runs, a stream reading one run while its store is written and
# compacted, and the shared facet base under writers, and the
# multi-node federation smoke (two httptest lodvizd instances answering
# one SERVICE query).
race:
	$(GO) test -race ./internal/store/... ./internal/snapshot/... ./internal/sparql/... ./internal/federation/... ./internal/server/... ./internal/wal/... ./internal/ledger/... ./internal/explore/... ./internal/facet/... ./internal/hetree/... ./internal/progressive/... ./internal/sampling/... ./internal/obs/... ./internal/keyword/...
	$(GO) test -race -count=2 -run 'ScanIDs|IDJoin|StreamConcurrentWriters|StreamRestartsOnCompaction|StreamRunAbortsAfterDeliveryOnCompaction|TypedBase' ./internal/store ./internal/sparql ./internal/facet
	$(GO) test -race -run 'Federated|ServiceSilent' .

# Flake detection: twenty runs under the race detector of the packages
# whose tests share state with background goroutines or concurrent writers
# (about ten minutes on two cores). The facet package is among them: its
# sessions share one kept base across goroutines.
flake:
	$(GO) test -race -count=20 ./internal/server/... ./internal/store/... ./internal/keyword/... ./internal/explore/... ./internal/hetree/... ./internal/sparql/... ./internal/facet/...

# Coverage gate for the HTTP server subsystem and the metrics registry it
# exposes (the CI threshold applies to the combined profile).
cover-server:
	$(GO) test -covermode=atomic -coverprofile=server-cover.out ./internal/server/... ./internal/obs/...
	@total=$$($(GO) tool cover -func=server-cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/server+internal/obs coverage: $$total%"; \
	awk "BEGIN { exit !($$total >= 80) }" || { echo "FAIL: coverage $$total% < 80%"; exit 1; }

# Short coverage-guided fuzz smoke over the text-format parsers, the term
# syntax they share (FuzzTermText: every reader reads back what Term.String
# wrote), the federation results decoder (it consumes untrusted remote
# bytes), the store's term dictionary round-trip (every term a snapshot
# restore decodes flows through it), the binary term codec the WAL and the
# snapshot share (FuzzBinaryTerm: what it accepts re-encodes to the same
# bytes, and every term round-trips), the WAL record decoder, the JSON
# string appender (FuzzAppendJSONString: byte for byte what encoding/json
# writes), keyword search (FuzzSearch: the pruned top-k equals scoring
# every match) and the response cache's SPARQL key (FuzzNormalizeQuery: a
# query and its key parse to the same query). CI's fuzz-smoke job runs this
# target.
fuzz-smoke:
	$(GO) test -fuzz=FuzzParseQuery -fuzztime=10s ./internal/sparql
	$(GO) test -fuzz=FuzzNTriples -fuzztime=10s ./internal/ntriples
	$(GO) test -fuzz=FuzzTermText -fuzztime=10s ./internal/rdf
	$(GO) test -fuzz=FuzzDecodeResults -fuzztime=10s ./internal/federation
	$(GO) test -fuzz=FuzzDictionaryRoundTrip -fuzztime=10s ./internal/store
	$(GO) test -fuzz=FuzzBinaryTerm -fuzztime=10s ./internal/rdf
	$(GO) test -fuzz=FuzzWALDecode -fuzztime=10s ./internal/wal
	$(GO) test -fuzz=FuzzAppendJSONString -fuzztime=10s ./internal/sparql
	$(GO) test -fuzz=FuzzSearch -fuzztime=10s ./internal/keyword
	$(GO) test -fuzz=FuzzNormalizeQuery -fuzztime=10s ./internal/server

# Run the exploration server on the embedded demo dataset.
serve:
	$(GO) run ./cmd/lodvizd -addr :8080

# Run a local two-node federation mesh on :8081/:8082, each peered with the
# other, both serving the embedded demo dataset. Try:
#   curl localhost:8081/federation
#   curl -G localhost:8081/sparql --data-urlencode \
#     'query=SELECT * WHERE { SERVICE <http://localhost:8082/sparql> { ?s ?p ?o } } LIMIT 5'
serve-cluster:
	$(GO) build -o /tmp/lodvizd-cluster ./cmd/lodvizd
	/tmp/lodvizd-cluster -addr :8081 -peer http://localhost:8082/sparql & \
	/tmp/lodvizd-cluster -addr :8082 -peer http://localhost:8081/sparql & \
	wait

# Full benchmark suite (slow; see bench-smoke for the CI variant).
bench:
	$(GO) test -run='^$$' -bench=. -benchmem .

# One-iteration smoke of the microbenchmarks, so their paths keep compiling
# and running without timing noise gating CI (bench-regression judges their
# timing against the merge base). -benchmem where allocations are the point.
#   - BGP joins;
#   - bulk ingestion (AddBatch vs the per-triple Add loop at 100k triples),
#     the snapshot write and restore of that store, the write session (bare,
#     through the WAL with and without fsync, and synced beside readers),
#     and the decode of one WAL record of a bulk_ingest batch (2 000
#     triples);
#   - the store's statistics tally (a summary read at 110k triples; a
#     2000-triple add+delete with the tally not built and built), a sorted
#     ID run at 110k triples (the 10 000-entry rdf:type run from a clean
#     store, and from one with a tombstone in it) and a term lookup in a
#     190 000-term dictionary;
#   - federation bind joins (batched VALUES dispatch vs one request per
#     binding at 1k bindings);
#   - the streaming LIMIT-pushdown pair;
#   - the store→hierarchy path (a base collected from scratch, and a cut
#     over a kept one);
#   - the N-Triples decoder on a bulk_ingest-sized body;
#   - the SPARQL parser on the session_cold query shapes and an INSERT DATA,
#     session_cold's /sparql/stream join through Stream.Run (about 600
#     rows), and the chain join bare beside instrumented (ObsOverhead);
#   - the facet distribution over 20k typed entities, and the progressive
#     stats walk to its first estimate, the exact stats and one entity's
#     neighbourhood;
#   - buffered /sparql with the cache off (a 5 000-row join on the paged
#     source, its body appended row by row);
#   - the server's two progressive streams (/sparql/stream at 600 rows;
#     /facets/stream unfiltered, which walks the store — under one page, and
#     past two pages with two estimates — and filtered to 10 entities, which
#     probes them and sends one exact line), the cache key of the
#     /sparql shapes session_warm sends (NormalizeQuery), and a /sparql
#     cache hit over a kept-alive connection, on the 5 000-row join and on a
#     100-row page like session_warm's (SPARQLCacheHit, SPARQLCacheHitPage);
#   - the response cache's hit path under parallel lookups of 512 hot keys
#     (LookupHitParallel).
bench-smoke:
	$(GO) test -run='^$$' -bench=BGP -benchtime=1x .
	$(GO) test -run='^$$' -bench='AddBatch|AddAll|AddSequential|SnapshotWrite|SnapshotRead|WriteSession' -benchtime=1x ./internal/store
	$(GO) test -run='^$$' -bench=DecodePayload -benchtime=1x -benchmem ./internal/wal
	$(GO) test -run='^$$' -bench='ComputeStats|AddDeleteBatch2000|ScanIDs|LookupTerm' -benchtime=1x -benchmem ./internal/store
	$(GO) test -run='^$$' -bench=BindJoin -benchtime=1x ./internal/federation
	$(GO) test -run='^$$' -bench=LimitPushdown -benchtime=1x .
	$(GO) test -run='^$$' -bench='FromSource|LevelOverSharedBase' -benchtime=1x -benchmem ./internal/hetree
	$(GO) test -run='^$$' -bench=ReadAll -benchtime=1x -benchmem ./internal/ntriples
	$(GO) test -run='^$$' -bench='ParseQuery|StreamJoinRows|ObsOverhead' -benchtime=1x -benchmem ./internal/sparql
	$(GO) test -run='^$$' -bench=FacetDistribution -benchtime=1x -benchmem ./internal/facet
	$(GO) test -run='^$$' -bench='StatsFirstEstimate|StatsExact|Neighborhood' -benchtime=1x -benchmem ./internal/explore
	$(GO) test -run='^$$' -bench='SPARQLCold|SPARQLCacheHit|SPARQLStream|FacetsStream|NormalizeQuery' -benchtime=1x -benchmem ./internal/server
	$(GO) test -run='^$$' -bench=LookupHitParallel -benchtime=1x ./internal/server/cache

# The end-to-end benchmark (bench/e2e) is its own module, which the root
# `go test ./...` does not see: vet it, run its unit tests, and play every
# workload briefly against a real lodvizd on the small dataset, so a
# signature change that breaks the harness fails here and not at the next
# benchmark run.
bench-e2e-smoke:
	$(GO) vet -C bench/e2e ./...
	$(GO) test -C bench/e2e ./...
	bash bench/e2e/run.sh -smoke

# The paired benchmark gate (cmd/benchharness): exports BASE and HEAD under
# .bench_build/compare/, builds each package of PKG once per side with
# `go test -c`, runs the benchmarks BENCH matches in 10 pairs, the side that
# goes first swapped each pair, and fails when a benchmark's median
# head/base ns/op over the pairs is above 1.25. It prints and writes to
# .bench_build/compare/verdict.json, per benchmark, that ratio, the pairs
# head won and the B/op and allocs/op medians. A benchmark only HEAD has is
# new and not judged; one HEAD lacks fails. BENCH and PKG default to the
# benchmarks that bench-regression judges: the BGP joins, store load,
# snapshot write, the LIMIT pushdown trio, the write session, facet
# distribution, stats (first estimate, exact), neighbourhood and the
# observability overhead pair.
HEAD = HEAD
BENCH = ^Benchmark(BGPJoinSequential|BGPJoinBound[PO]IDs|E12StoreLoad|LimitPushdown(Streamed|Materialized|OrderByTopK)|SnapshotWrite|WriteSession|FacetDistribution|Stats(FirstEstimate|Exact)|Neighborhood|ObsOverhead)$$
PKG = . ./internal/store ./internal/facet ./internal/explore ./internal/sparql
bench-compare:
	@test -n '$(BASE)' || { echo 'usage: make bench-compare BASE=<rev> [HEAD=<rev>] [BENCH=<regexp>] [PKG=<packages>]'; exit 2; }
	$(GO) run ./cmd/benchharness -base '$(BASE)' -head '$(HEAD)' -bench '$(BENCH)' $(PKG)

# The observability ceiling: instrumented over bare time of the chain join
# (BenchmarkObsOverhead's overhead-x), median of three runs, at most 1.05.
bench-obs:
	@out=$$($(GO) test -run='^$$' -bench='^BenchmarkObsOverhead$$' -count=3 ./internal/sparql) || { echo "$$out"; exit 1; }; \
	echo "$$out" | awk '$$1 ~ /^BenchmarkObsOverhead/ { print; for (i = 3; i < NF; i++) if ($$(i+1) == "overhead-x") v[n++] = $$i } \
		END { if (n != 3) { print "bench-obs: want 3 overhead-x values, got " n; exit 1 } \
			for (i = 0; i < n; i++) for (j = i + 1; j < n; j++) if (v[j] < v[i]) { t = v[i]; v[i] = v[j]; v[j] = t } \
			printf "overhead-x median of 3: %.4f (ceiling 1.05)\n", v[1]; exit !(v[1] <= 1.05) }'

# CI's benchmark gate: the paired comparison against the merge base with
# origin/main, over the benchmarks above, then the observability ceiling.
bench-regression:
	$(MAKE) bench-compare BASE=$$(git merge-base HEAD origin/main)
	$(MAKE) bench-obs

# go vet + gofmt always; staticcheck/gosimple/unused etc. run via
# golangci-lint when it is installed (CI always runs it — see the lint
# job and .golangci.yml).
lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run ./...; \
	else \
		echo "golangci-lint not installed; skipping (CI runs it)"; fi

fmt:
	gofmt -w .

# lodvizvet: the engine's own analyzer suite (pagelock, ctxflow, syncerr,
# idspace, obshandle — see internal/analysis/README.md). Runs through
# `go vet -vettool` so results integrate with cmd/go's caching and cover
# test variants of every package.
analyze:
	$(GO) build -o bin/lodvizvet ./cmd/lodvizvet
	$(GO) vet -vettool=$(CURDIR)/bin/lodvizvet ./...

check: build lint analyze test reach race bench-smoke bench-e2e-smoke bench-regression cover-server

// Command lodvizd serves a lodviz dataset over HTTP: a SPARQL 1.1 Protocol
// endpoint (/sparql, JSON results), a chunked streaming variant
// (/sparql/stream, NDJSON — the first row is flushed as soon as the engine
// finds it, so it arrives while the scan is still running, the rest within
// 5 ms, and the scan stops once a LIMIT is filled), plus the exploration
// endpoints /facets, /graph/neighborhood, /hetree, /stats — with NDJSON
// twins: /facets/stream emits CLT-bounded approximate batches mid-scan
// before converging to the exact answer (a drilled-down view, fewer entities
// than one per 32 statements, gets the exact answer alone, at once),
// /stats/stream answers exactly in
// one line from the statistics the store maintains as writes arrive — and
// sample=/seed= parameters on /graph/neighborhood for bounded
// reservoir-sampled expansions — an N-Triples ingestion endpoint
// (POST /triples), and /healthz.
//
// Usage:
//
//	lodvizd [flags]
//
//	-addr string        listen address (default ":8080")
//	-data string        dataset to load: a .nt/.ntriples or .ttl/.turtle
//	                    file (default: the embedded MiniLOD demo dataset)
//	-snapshot string    snapshot file: restored at startup when present,
//	                    written atomically on graceful shutdown (and
//	                    periodically with -snapshot-interval)
//	-snapshot-interval duration
//	                    how often to persist a snapshot while serving
//	                    (0 disables periodic writes; unchanged generations
//	                    are skipped)
//	-wal string         write-ahead log file: every acknowledged write is
//	                    appended (and fsynced, see -wal-sync) before it is
//	                    applied, then replayed over the snapshot at startup
//	-wal-sync string    "always" (group-committed fsync per acknowledged
//	                    write, the default) or "none" (OS decides when
//	                    bytes hit disk)
//	-parallelism int    SPARQL worker count (default: NumCPU)
//	-cache-mb int       response-cache byte budget in MiB; a response over
//	                    an eighth of it is served uncached; negative
//	                    disables the cache (default 32)
//	-max-inflight int   concurrent requests allowed per endpoint before
//	                    shedding with 429 (default 64)
//	-timeout duration   per-query evaluation timeout (default 30s)
//	-facet-values int   max values listed per facet on /facets (default 25)
//	-peer url           remote SPARQL endpoint to federate with; repeatable.
//	                    Peers answer SERVICE clauses and show up on
//	                    /federation with live health state
//	-federation-probe duration
//	                    peer health-probe interval (default 30s); 0
//	                    disables background upkeep
//	-federation-restrict
//	                    refuse SERVICE dispatch to endpoints not listed
//	                    with -peer — recommended when /sparql is exposed
//	                    to untrusted clients, since query text can name
//	                    arbitrary URLs (server-side request forgery)
//	-pprof addr         serve net/http/pprof on a separate listener
//	                    (e.g. localhost:6060); empty disables. Kept off
//	                    the public API address deliberately
//	-slow-query duration
//	                    log /sparql queries at or over this duration at
//	                    warn level, with row count and execution-plan
//	                    summary (0 disables)
//
// Prometheus metrics for every layer — HTTP handlers, response cache,
// store, WAL, federation mesh, SPARQL engine — are served on /metrics, and
// POST /sparql?explain=1 returns a per-query execution trace alongside the
// results (see the server package).
//
// With -peer, this node joins an exploration mesh: queries may span
// endpoints with SERVICE <peer/sparql> { ... } clauses, evaluated as
// batched parallel bind joins. Failing peers are circuit-broken (and probed
// back in), and SERVICE SILENT degrades to the local partial result when a
// peer is down.
//
// Logs go to stderr as slog text lines, one msg=request line per request.
// INFO lines are written out in batches (at most 250ms late, see
// accesslog.go), WARN and ERROR lines at once.
//
// Repeated identical exploration requests are served from a sharded LRU
// cache keyed by the normalized request. Each entry remembers what its
// computation read; after a write (POST /triples, a SPARQL update) an
// entry is checked against the store's change log when it is next asked
// for, and only the responses the write could have changed are rebuilt.
//
// With -snapshot, writes ingested over HTTP survive restarts: the server
// persists a checksummed binary snapshot (dictionary + sorted SPO index)
// via an atomic temp-file-and-rename, restores it on the next start, and
// the restored store answers queries identically to the one that saved it.
//
// With -wal, every acknowledged write (POST /triples, SPARQL update) is
// additionally appended to a group-committed write-ahead log before it is
// applied, so writes survive a crash between snapshots. Startup layers the
// two: restore the snapshot, then replay the WAL suffix over it; each
// successful snapshot truncates the WAL records it covers. -wal-sync picks
// the durability point: "always" (default) fsyncs before acknowledging —
// concurrent writers share one fsync via group commit — and "none" leaves
// flushing to the OS. The WAL also feeds an in-memory Merkle mutation
// ledger served on /ledger/root and /ledger/proof, so clients can verify a
// particular mutation is part of the dataset's history.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"github.com/lodviz/lodviz/internal/federation"
	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/ledger"
	"github.com/lodviz/lodviz/internal/obs"
	"github.com/lodviz/lodviz/internal/server"
	"github.com/lodviz/lodviz/internal/store"
	"github.com/lodviz/lodviz/internal/turtle"
	"github.com/lodviz/lodviz/internal/wal"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	data := flag.String("data", "", "dataset file (.nt, .ntriples, .ttl, .turtle); empty loads the embedded MiniLOD demo")
	snapshotPath := flag.String("snapshot", "", "snapshot file: restored at startup when present, written on shutdown and every -snapshot-interval")
	snapshotInterval := flag.Duration("snapshot-interval", 0, "periodic snapshot write interval while serving (0 disables periodic writes)")
	walPath := flag.String("wal", "", "write-ahead log file: acknowledged writes are logged before they apply and replayed over the snapshot at startup")
	walSync := flag.String("wal-sync", "always", "WAL durability: \"always\" fsyncs (group-committed) before acknowledging a write, \"none\" leaves flushing to the OS")
	parallelism := flag.Int("parallelism", 0, "SPARQL worker count (0 = NumCPU)")
	cacheMB := flag.Int("cache-mb", 0, "response-cache byte budget in MiB (0 = default 32, negative disables)")
	maxInFlight := flag.Int("max-inflight", 0, "concurrent requests per endpoint before 429 shedding (0 = default 64)")
	timeout := flag.Duration("timeout", 0, "per-query evaluation timeout (0 = default 30s)")
	facetValues := flag.Int("facet-values", 0, "max values listed per facet (0 = default 25)")
	var peers []string
	flag.Func("peer", "remote SPARQL endpoint URL to federate with (repeatable)", func(v string) error {
		if v == "" {
			return fmt.Errorf("empty peer URL")
		}
		peers = append(peers, v)
		return nil
	})
	probeInterval := flag.Duration("federation-probe", 30*time.Second, "peer health-probe interval (0 disables background upkeep)")
	restrictPeers := flag.Bool("federation-restrict", false, "refuse SERVICE dispatch to endpoints not listed with -peer (SSRF hardening for exposed deployments)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); empty disables")
	slowQuery := flag.Duration("slow-query", 0, "log /sparql queries at or over this duration with their execution plan (0 disables)")
	flag.Parse()

	logger, flushLog := newLogger(os.Stderr)
	defer flushLog()
	st, source, err := openStore(*snapshotPath, *data)
	if err != nil {
		logger.Error("loading dataset", "err", err)
		os.Exit(1)
	}
	logger.Info("dataset loaded", "source", source, "triples", st.Len(), "terms", st.NumTerms())

	registry := obs.NewRegistry()
	var (
		walLog *wal.Log
		led    *ledger.Ledger
	)
	if *walPath != "" {
		policy, err := parseSyncPolicy(*walSync)
		if err != nil {
			logger.Error("bad -wal-sync", "err", err)
			os.Exit(2)
		}
		walLog, led, err = openWAL(*walPath, policy, wal.NewMetrics(registry), st, logger)
		if err != nil {
			logger.Error("opening WAL", "path", *walPath, "err", err)
			os.Exit(1)
		}
		defer func() {
			// A close error at shutdown can mean the tail of the log never
			// reached disk; it must at least be visible in the exit logs.
			if cerr := walLog.Close(); cerr != nil {
				logger.Error("closing WAL", "err", cerr)
			}
		}()
	}

	// The snapshotter is built before the server so /healthz can report the
	// snapshot age; the periodic loop starts further down, once the serving
	// context exists.
	var snap *snapshotter
	if *snapshotPath != "" {
		snap = &snapshotter{path: *snapshotPath, st: st, wal: walLog, logger: logger}
		if source == *snapshotPath {
			// The on-disk image already matches the store; don't rewrite
			// it until something changes.
			snap.savedGen = st.Generation()
			snap.haveSaved = true
			snap.savedAt = time.Now()
		}
	}

	mesh := federation.NewMesh(federation.Options{RestrictToPeers: *restrictPeers})
	for _, p := range peers {
		mesh.AddPeer(p)
	}
	cfg := server.Config{
		Parallelism:        *parallelism,
		CacheCapacity:      *cacheMB << 20,
		MaxInFlight:        *maxInFlight,
		QueryTimeout:       *timeout,
		MaxFacetValues:     *facetValues,
		Logger:             logger,
		Mesh:               mesh,
		Ledger:             led,
		Metrics:            registry,
		WAL:                walLog,
		WALSyncDesc:        *walSync,
		SlowQueryThreshold: *slowQuery,
	}
	if snap != nil {
		cfg.SnapshotSavedAt = snap.savedAtTime
	}
	srv := server.New(st, cfg)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if len(peers) > 0 {
		logger.Info("federation enabled", "peers", len(peers), "probeInterval", probeInterval.String())
		if *probeInterval > 0 {
			// Background upkeep: health-probe peers, closing open circuits
			// without live traffic.
			go mesh.Maintain(ctx, *probeInterval)
		}
	}

	if snap != nil && *snapshotInterval > 0 {
		go snap.run(ctx, *snapshotInterval)
	}

	if *pprofAddr != "" {
		// pprof gets its own listener and an explicit mux, so the profiling
		// surface is never reachable through the public API address.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		logger.Info("pprof listening", "addr", *pprofAddr)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, pm); err != nil {
				logger.Error("pprof server", "err", err)
			}
		}()
	}

	start := time.Now()
	if err := srv.ListenAndServe(ctx, *addr); err != nil {
		logger.Error("server", "err", err)
		os.Exit(1)
	}
	if snap != nil {
		if err := snap.save("shutdown"); err != nil {
			// The shutdown snapshot is the only persistence point when no
			// WAL is configured — exiting zero here would let supervisors
			// discard acknowledged writes silently.
			if walLog != nil {
				logger.Error("shutdown snapshot failed; the WAL retains every acknowledged write and will replay it on the next start", "err", err)
			} else {
				logger.Error("shutdown snapshot failed; writes since the last snapshot are lost (consider -wal)", "err", err)
			}
			os.Exit(1)
		}
	}
	logger.Info("stopped", "uptime", time.Since(start).Round(time.Second).String())
}

// parseSyncPolicy maps the -wal-sync flag to a wal.SyncPolicy.
func parseSyncPolicy(v string) (wal.SyncPolicy, error) {
	switch v {
	case "always":
		return wal.SyncAlways, nil
	case "none":
		return wal.SyncNone, nil
	default:
		return wal.SyncAlways, fmt.Errorf("unknown -wal-sync %q (want \"always\" or \"none\")", v)
	}
}

// openWAL recovers and attaches the write-ahead log: open (which truncates
// any torn tail left by a crash mid-write), replay the surviving records
// over the just-restored store — rebuilding the mutation ledger from the
// same payloads — and only then attach the log to the store, so replayed
// writes are not re-appended. Replay is idempotent (re-adding a present
// triple or re-deleting an absent one is a no-op), which is what makes the
// snapshot-plus-WAL-suffix layering safe: records the snapshot already
// covers simply do nothing.
func openWAL(path string, policy wal.SyncPolicy, met *wal.Metrics, st *store.Store, logger *slog.Logger) (*wal.Log, *ledger.Ledger, error) {
	led := ledger.New()
	walLog, err := wal.Open(path, wal.Options{Sync: policy, Observer: led.Append, Metrics: met})
	if err != nil {
		return nil, nil, err
	}
	records := 0
	start := time.Now()
	_, err = wal.Replay(path, func(rec wal.Record) error {
		records++
		led.Append(rec.Seq, rec.Payload)
		switch rec.Op {
		case wal.OpAdd:
			_, err := st.AddBatch(rec.Triples)
			return err
		case wal.OpDelete:
			_, err := st.DeleteBatch(rec.Triples)
			return err
		default:
			return fmt.Errorf("unknown op %v at seq %d", rec.Op, rec.Seq)
		}
	})
	if err != nil {
		if cerr := walLog.Close(); cerr != nil {
			logger.Warn("closing WAL after failed replay", "err", cerr)
		}
		return nil, nil, fmt.Errorf("replaying: %w", err)
	}
	st.SetWAL(walLog)
	logger.Info("wal recovered", "path", path, "records", records,
		"lastSeq", walLog.LastSeq(), "triples", st.Len(),
		"dur", time.Since(start).Round(time.Millisecond).String())
	return walLog, led, nil
}

// snapshotter serializes periodic and shutdown snapshot writes, skipping
// writes when the store generation has not moved since the last save. When
// a WAL is attached, each successful snapshot truncates the log records the
// snapshot covers.
type snapshotter struct {
	path   string
	st     *store.Store
	wal    *wal.Log // nil when running without a WAL
	logger *slog.Logger

	mu        sync.Mutex
	savedGen  uint64
	haveSaved bool
	savedAt   time.Time
}

// savedAtTime reports the last successful snapshot write (zero = none yet);
// the server's /healthz derives the snapshot age from it.
func (sn *snapshotter) savedAtTime() time.Time {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return sn.savedAt
}

func (sn *snapshotter) run(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			// Periodic failures are logged inside save and retried next
			// tick; only the shutdown save's error reaches main.
			_ = sn.save("interval")
		}
	}
}

func (sn *snapshotter) save(reason string) error {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	gen := sn.st.Generation()
	if sn.haveSaved && gen == sn.savedGen {
		return nil
	}
	// The truncation frontier is read BEFORE the snapshot captures the
	// store: a WAL append and its store apply share the store's write lock,
	// so every record at or below this frontier is applied — and therefore
	// inside the snapshot — by the time the snapshot's read lock is granted.
	// Records appended after this point survive truncation and replay over
	// the snapshot idempotently.
	var frontier uint64
	if sn.wal != nil {
		frontier = sn.wal.LastSeq()
	}
	start := time.Now()
	if err := sn.st.WriteSnapshotFile(sn.path); err != nil {
		sn.logger.Error("snapshot write failed", "path", sn.path, "reason", reason, "err", err)
		return err
	}
	sn.savedGen = gen
	sn.haveSaved = true
	sn.savedAt = time.Now()
	if sn.wal != nil && frontier > 0 {
		if err := sn.wal.TruncateThrough(frontier); err != nil {
			// The snapshot itself succeeded; a fat WAL only means a longer
			// replay, so don't fail the save over it.
			sn.logger.Error("wal truncate failed", "throughSeq", frontier, "err", err)
		}
	}
	sn.logger.Info("snapshot written", "path", sn.path, "reason", reason,
		"triples", sn.st.Len(), "generation", gen,
		"dur", time.Since(start).Round(time.Millisecond).String())
	return nil
}

// openStore picks the startup source: an existing snapshot wins (it holds
// everything ingested over HTTP before the last stop), otherwise the -data
// file (or the embedded demo) is loaded. Returns the store and the source it
// came from.
func openStore(snapshotPath, dataPath string) (*store.Store, string, error) {
	if snapshotPath != "" {
		switch _, err := os.Stat(snapshotPath); {
		case err == nil:
			st, err := store.ReadSnapshotFile(snapshotPath)
			if err != nil {
				return nil, "", fmt.Errorf("restoring snapshot %s: %w", snapshotPath, err)
			}
			return st, snapshotPath, nil
		case !errors.Is(err, fs.ErrNotExist):
			// A snapshot that exists but cannot be statted must abort:
			// falling back to -data would later overwrite it with a fresh
			// store, destroying everything ingested before the restart.
			return nil, "", fmt.Errorf("checking snapshot %s: %w", snapshotPath, err)
		}
	}
	st, err := loadStore(dataPath)
	if err != nil {
		return nil, "", err
	}
	return st, sourceName(dataPath), nil
}

func loadStore(path string) (*store.Store, error) {
	if path == "" {
		return gen.MiniLODStore(), nil
	}
	switch ext := filepath.Ext(path); ext {
	case ".nt", ".ntriples":
		// Stream the file in bounded chunks: gigabyte dumps never
		// materialize as one slice.
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		// Read-only fd: close errors cannot lose data, discard explicitly.
		defer func() { _ = f.Close() }()
		return store.LoadNTriples(f)
	case ".ttl", ".turtle":
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		triples, err := turtle.ParseString(string(raw))
		if err != nil {
			return nil, err
		}
		return store.Load(triples)
	default:
		return nil, fmt.Errorf("unsupported dataset extension %q (want .nt, .ntriples, .ttl, .turtle)", ext)
	}
}

func sourceName(path string) string {
	if path == "" {
		return "minilod (embedded)"
	}
	return path
}

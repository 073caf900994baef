package federation

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/lodviz/lodviz/internal/sparql"
)

// Options tune a Mesh. The zero value is production-usable: 10s request
// timeout, 2 retries, 64-row bind-join batches, 4 concurrent batch
// requests, a 3-failure circuit breaker with 5s cooldown, and a 1024-entry
// 30s-TTL remote-result cache.
type Options struct {
	// HTTPClient is the shared transport for all endpoint clients
	// (nil = http.DefaultClient).
	HTTPClient *http.Client
	// Timeout bounds one remote request attempt (non-positive = 10s).
	Timeout time.Duration
	// Retries is the per-request retry budget for transient failures
	// (zero value = 2, negative = none).
	Retries int
	// BatchSize is the VALUES rows per bind-join batch (non-positive = 64).
	BatchSize int
	// Parallel caps concurrent batch requests per SERVICE evaluation
	// (non-positive = 4).
	Parallel int
	// FailureThreshold and Cooldown tune the circuit breaker; see
	// RegistryOptions.
	FailureThreshold int
	Cooldown         time.Duration
	// CacheCapacity sizes the remote-result cache in entries; 0 selects
	// DefaultCacheCapacity, negative disables caching.
	CacheCapacity int
	// CacheTTL bounds how stale a cached remote result may be served
	// (non-positive = DefaultCacheTTL).
	CacheTTL time.Duration
	// RestrictToPeers, when true, refuses SERVICE dispatch to endpoints
	// that were not explicitly registered with AddPeer. Query text can
	// name arbitrary IRIs, and on a server whose /sparql accepts
	// untrusted queries an unrestricted mesh is a server-side
	// request-forgery vector (SERVICE <http://169.254.169.254/...>); the
	// lodvizd -federation-restrict flag sets this. Default off: following
	// links to endpoints you did not pre-register is the open-world
	// exploration scenario, and embedded/trusted use keeps it.
	RestrictToPeers bool
}

// Mesh is the federation runtime of one lodviz node: the endpoint registry,
// one SPARQL Protocol client per remote endpoint, the TTL result cache, and
// the bind-join executor. It implements sparql.ServiceEvaluator, so wiring
// it into sparql.Options.Service activates SERVICE clauses. Safe for
// concurrent use by many queries.
type Mesh struct {
	opt   Options
	reg   *Registry
	cache *ResultCache // nil when disabled

	mu      sync.Mutex
	clients map[string]*Client
	peers   map[string]bool // explicitly registered endpoints (AddPeer)
}

// NewMesh builds a mesh with no peers registered yet.
func NewMesh(opt Options) *Mesh {
	m := &Mesh{
		opt: opt,
		reg: NewRegistry(RegistryOptions{
			FailureThreshold: opt.FailureThreshold,
			Cooldown:         opt.Cooldown,
		}),
		clients: map[string]*Client{},
		peers:   map[string]bool{},
	}
	if opt.CacheCapacity >= 0 {
		m.cache = NewResultCache(opt.CacheCapacity, opt.CacheTTL)
	}
	return m
}

// AddPeer registers a remote SPARQL endpoint. Registration is idempotent.
// Unless Options.RestrictToPeers is set, SERVICE clauses may also name
// endpoints that were never registered (they are tracked from first use).
func (m *Mesh) AddPeer(endpoint string) {
	m.mu.Lock()
	m.peers[endpoint] = true
	m.mu.Unlock()
	m.reg.Ensure(endpoint)
}

// allowed reports whether SERVICE dispatch to endpoint is permitted under
// the mesh's endpoint policy.
func (m *Mesh) allowed(endpoint string) bool {
	if !m.opt.RestrictToPeers {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peers[endpoint]
}

// Peers returns the registered endpoint URLs, sorted.
func (m *Mesh) Peers() []string { return m.reg.Endpoints() }

// Registry exposes the endpoint registry (health and circuit state).
func (m *Mesh) Registry() *Registry { return m.reg }

// Status snapshots every known endpoint's health.
func (m *Mesh) Status() []EndpointStatus { return m.reg.Status() }

// CacheStats reports remote-result cache effectiveness; ok is false when
// caching is disabled.
func (m *Mesh) CacheStats() (CacheStats, bool) {
	if m.cache == nil {
		return CacheStats{}, false
	}
	return m.cache.Stats(), true
}

// client returns (creating on first use) the protocol client for endpoint.
func (m *Mesh) client(endpoint string) *Client {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.clients[endpoint]
	if !ok {
		c = NewClient(endpoint, ClientOptions{
			HTTPClient: m.opt.HTTPClient,
			Timeout:    m.opt.Timeout,
			Retries:    m.opt.Retries,
		})
		m.clients[endpoint] = c
	}
	return c
}

// Fetch executes one subquery against endpoint through the full stack:
// result cache, circuit breaker, protocol client, health accounting. The
// returned rows may be shared with the cache and must not be mutated.
func (m *Mesh) Fetch(ctx context.Context, endpoint, query string) ([]sparql.Binding, error) {
	key := Key(endpoint, query)
	if m.cache != nil {
		if rows, ok := m.cache.Get(key); ok {
			return rows, nil
		}
	}
	if !m.reg.Allow(endpoint) {
		return nil, fmt.Errorf("federation: endpoint %s is ejected (circuit open)", endpoint)
	}
	start := time.Now()
	res, err := m.client(endpoint).Query(ctx, query)
	m.reg.Report(endpoint, time.Since(start), err)
	if err != nil {
		return nil, err
	}
	if m.cache != nil {
		m.cache.Put(key, res.Rows)
	}
	return res.Rows, nil
}

// EvalService implements sparql.ServiceEvaluator: the engine hands over the
// SERVICE clause's pattern and the local bindings, the mesh answers with
// their join against the remote evaluation.
func (m *Mesh) EvalService(ctx context.Context, call *sparql.ServiceCall) ([]sparql.Binding, error) {
	endpoint := call.Endpoint
	if !m.allowed(endpoint) {
		return nil, fmt.Errorf("federation: endpoint %s is not a registered peer (mesh restricts SERVICE to peers)", endpoint)
	}
	m.reg.Ensure(endpoint)
	fetch := func(ctx context.Context, query string) ([]sparql.Binding, error) {
		return m.Fetch(ctx, endpoint, query)
	}
	return bindJoin(ctx, fetch, call.Pattern, call.Bindings, m.opt.BatchSize, m.opt.Parallel)
}

// forEachEndpoint runs fn concurrently over every registered endpoint the
// circuit breaker currently allows, waiting for all to finish. Sweeps must
// not serialize: one dead peer burning its full timeout-and-retry budget
// would otherwise stall upkeep for the whole mesh.
func (m *Mesh) forEachEndpoint(fn func(endpoint string)) {
	var wg sync.WaitGroup
	for _, endpoint := range m.reg.Endpoints() {
		if !m.reg.Allow(endpoint) {
			continue
		}
		wg.Add(1)
		go func(endpoint string) {
			defer wg.Done()
			fn(endpoint)
		}(endpoint)
	}
	wg.Wait()
}

// Probe health-checks every registered endpoint with an ASK query,
// recording outcomes in the registry (which is how an open circuit is
// probed back in without waiting for live traffic).
func (m *Mesh) Probe(ctx context.Context) {
	m.forEachEndpoint(func(endpoint string) {
		start := time.Now()
		_, err := m.client(endpoint).Query(ctx, "ASK { }")
		m.reg.Report(endpoint, time.Since(start), err)
	})
}

// Maintain runs the mesh's background upkeep until ctx is cancelled: at
// once and then every interval it health-probes all registered endpoints,
// closing open circuits without waiting for live traffic. lodvizd runs this
// when peers are configured; embedders may call it themselves.
func (m *Mesh) Maintain(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		m.Probe(ctx)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

package federation

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/lodviz/lodviz/internal/sparql"
)

// Options configure a Mesh. The zero value is production-usable. Everything
// else is fixed: each request attempt is bounded by 10s and a transient
// failure retried twice, bind joins send 64 VALUES rows per request with 4
// requests in flight, a circuit opens after 3 consecutive failures and
// probes again after 5s, and remote results are cached, 1024 entries for
// 30s.
type Options struct {
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
// the TTL result cache, and the bind-join executor. It implements
// sparql.ServiceEvaluator, so wiring it into sparql.Options.Service
// activates SERVICE clauses. Safe for concurrent use by many queries.
type Mesh struct {
	opt   Options
	reg   *Registry
	cache *ResultCache
}

// NewMesh builds a mesh with no peers registered yet.
func NewMesh(opt Options) *Mesh {
	return &Mesh{opt: opt, reg: NewRegistry(), cache: NewResultCache()}
}

// AddPeer registers a remote SPARQL endpoint. Registration is idempotent.
// Unless Options.RestrictToPeers is set, SERVICE clauses may also name
// endpoints that were never registered: they are tracked from first use
// among a bounded number of such endpoints, never health-probed, and
// counted together on /metrics.
func (m *Mesh) AddPeer(endpoint string) { m.reg.AddPeer(endpoint) }

// allowed reports whether SERVICE dispatch to endpoint is permitted under
// the mesh's endpoint policy.
func (m *Mesh) allowed(endpoint string) bool {
	return !m.opt.RestrictToPeers || m.reg.IsPeer(endpoint)
}

// Status snapshots the health of every endpoint the registry keeps.
func (m *Mesh) Status() []EndpointStatus { return m.reg.Status() }

// AdHocTotals returns the requests and failures of every endpoint that is
// not a peer, ever; see Registry.AdHocTotals.
func (m *Mesh) AdHocTotals() (requests, failures uint64) { return m.reg.AdHocTotals() }

// CacheStats reports remote-result cache effectiveness.
func (m *Mesh) CacheStats() CacheStats { return m.cache.Stats() }

// call sends one query to endpoint and records its outcome in the registry.
// A request that failed because ctx is done says nothing about the
// endpoint, so it is released rather than counted: a user's cancel, a query
// timeout or a sibling batch's failure never opens a healthy circuit.
func (m *Mesh) call(ctx context.Context, endpoint, query string) (*sparql.Results, error) {
	start := time.Now()
	res, err := queryEndpoint(ctx, endpoint, query)
	if err != nil && ctx.Err() != nil {
		m.reg.Release(endpoint)
		return nil, err
	}
	m.reg.Report(endpoint, time.Since(start), err)
	return res, err
}

// Fetch executes one subquery against endpoint through the full stack:
// result cache, circuit breaker, protocol client, health accounting. The
// returned rows may be shared with the cache and must not be mutated.
func (m *Mesh) Fetch(ctx context.Context, endpoint, query string) ([]sparql.Binding, error) {
	key := Key(endpoint, query)
	if rows, ok := m.cache.Get(key); ok {
		return rows, nil
	}
	if !m.reg.Allow(endpoint) {
		return nil, fmt.Errorf("federation: endpoint %s is ejected (circuit open)", endpoint)
	}
	res, err := m.call(ctx, endpoint, query)
	if err != nil {
		return nil, err
	}
	m.cache.Put(key, res.Rows)
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
	fetch := func(ctx context.Context, query string) ([]sparql.Binding, error) {
		return m.Fetch(ctx, endpoint, query)
	}
	return bindJoin(ctx, fetch, call.Pattern, call.Bindings, batchRows, batchesInFlight)
}

// Probe health-checks every peer the circuit breaker currently allows with
// an ASK query, recording outcomes in the registry (which is how an open
// circuit is probed back in without waiting for live traffic). Endpoints
// that only a query named are not probed. The probes run concurrently: one
// dead peer burning its full timeout-and-retry budget must not stall the
// others.
func (m *Mesh) Probe(ctx context.Context) {
	var wg sync.WaitGroup
	for _, ep := range m.reg.Status() {
		endpoint := ep.URL
		if !ep.Peer || !m.reg.Allow(endpoint) {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = m.call(ctx, endpoint, "ASK { }") // call records the outcome in the registry
		}()
	}
	wg.Wait()
}

// Maintain runs the mesh's background upkeep until ctx is cancelled: at
// once and then every interval it health-probes the peers, closing open
// circuits without waiting for live traffic. lodvizd runs this when peers
// are configured; embedders may call it themselves.
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

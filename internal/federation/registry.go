package federation

import (
	"container/list"
	"sort"
	"sync"
	"time"
)

// Circuit breaker states, in the classic three-state formulation.
const (
	// StateClosed: the endpoint is healthy and requests flow normally.
	StateClosed = "closed"
	// StateOpen: the endpoint crossed the failure threshold and is ejected;
	// requests are refused locally until the cooldown elapses.
	StateOpen = "open"
	// StateHalfOpen: the cooldown elapsed and exactly one probe request is
	// allowed through; its outcome closes or re-opens the circuit.
	StateHalfOpen = "half-open"
)

// failureThreshold is how many consecutive failures open a circuit.
const failureThreshold = 3

// cooldown is how long an open circuit refuses requests before it lets a
// probe through.
const cooldown = 5 * time.Second

// ewmaAlpha weighs the newest latency sample in the moving average.
const ewmaAlpha = 0.2

// adHocCapacity is how many endpoints that only query text named (not
// AddPeer) the registry keeps state for; past it the least recently used
// one is forgotten.
const adHocCapacity = 256

// Registry tracks the endpoints a node federates with: circuit-breaker
// health and an exponentially weighted moving average of request latency.
// Peers (AddPeer) are kept for good. An endpoint that only a SERVICE clause
// named is kept in a least-recently-used list of adHocCapacity entries, so
// query text cannot grow the registry, and its outcomes are also counted in
// two registry-wide totals that eviction never lowers. Safe for concurrent
// use.
type Registry struct {
	now func() time.Time

	mu    sync.Mutex
	eps   map[string]*endpoint
	adHoc *list.List // the endpoints that are not peers, most recently used first
	// adHocRequests and adHocFailures count every outcome reported for an
	// endpoint that is not a peer.
	adHocRequests, adHocFailures uint64
}

type endpoint struct {
	url         string
	peer        bool
	el          *list.Element // in adHoc, unless peer
	state       string
	consecFails int
	requests    uint64
	failures    uint64
	ewmaMs      float64
	haveLatency bool
	openUntil   time.Time
	lastErr     string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{now: time.Now, eps: map[string]*endpoint{}, adHoc: list.New()}
}

// AddPeer registers url as a peer, taking over its state if query text
// named it first. A new peer starts closed (healthy until proven
// otherwise).
func (r *Registry) AddPeer(url string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch ep, ok := r.eps[url]; {
	case !ok:
		r.eps[url] = &endpoint{url: url, peer: true, state: StateClosed}
	case !ep.peer:
		r.adHoc.Remove(ep.el)
		ep.peer, ep.el = true, nil
	}
}

// IsPeer reports whether url was registered with AddPeer.
func (r *Registry) IsPeer(url string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	ep, ok := r.eps[url]
	return ok && ep.peer
}

// ensureLocked returns url's state. An unknown url is added as an ad-hoc
// endpoint, closed, and past adHocCapacity the least recently used one is
// forgotten; an ad-hoc endpoint moves to the front of the list.
func (r *Registry) ensureLocked(url string) *endpoint {
	ep, ok := r.eps[url]
	switch {
	case !ok:
		ep = &endpoint{url: url, state: StateClosed}
		ep.el = r.adHoc.PushFront(ep)
		r.eps[url] = ep
		if r.adHoc.Len() > adHocCapacity {
			delete(r.eps, r.adHoc.Remove(r.adHoc.Back()).(*endpoint).url)
		}
	case !ep.peer:
		r.adHoc.MoveToFront(ep.el)
	}
	return ep
}

// Allow reports whether a request to url may proceed right now. A closed
// circuit always allows; an open circuit refuses until its cooldown has
// elapsed, at which point exactly one caller is let through as the half-open
// probe (subsequent callers keep being refused until that probe reports).
func (r *Registry) Allow(url string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	ep := r.ensureLocked(url)
	switch ep.state {
	case StateClosed:
		return true
	case StateHalfOpen:
		return false // one probe is already in flight
	default: // StateOpen
		if r.now().Before(ep.openUntil) {
			return false
		}
		ep.state = StateHalfOpen
		return true
	}
}

// Report records the outcome of one request to url: latency feeds the EWMA,
// errors drive the circuit breaker. A success closes the circuit and resets
// the failure streak; a failure extends the streak and, at the threshold (or
// on a failed half-open probe), opens the circuit for the cooldown period.
func (r *Registry) Report(url string, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ep := r.ensureLocked(url)
	ep.requests++
	if !ep.peer {
		r.adHocRequests++
	}
	if err == nil {
		ms := float64(d) / float64(time.Millisecond)
		if !ep.haveLatency {
			ep.ewmaMs = ms
			ep.haveLatency = true
		} else {
			ep.ewmaMs = ewmaAlpha*ms + (1-ewmaAlpha)*ep.ewmaMs
		}
		ep.consecFails = 0
		ep.state = StateClosed
		ep.lastErr = ""
		return
	}
	ep.failures++
	if !ep.peer {
		r.adHocFailures++
	}
	ep.consecFails++
	ep.lastErr = err.Error()
	if ep.state == StateHalfOpen || ep.consecFails >= failureThreshold {
		ep.state = StateOpen
		ep.openUntil = r.now().Add(cooldown)
	}
}

// Release records that a request to url ended without an outcome because its
// caller gave up: nothing is counted, and a half-open probe hands its turn
// back, so the circuit is open with its cooldown elapsed and the next Allow
// probes again.
func (r *Registry) Release(url string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ep := r.ensureLocked(url); ep.state == StateHalfOpen {
		ep.state = StateOpen
	}
}

// EndpointStatus is a point-in-time snapshot of one endpoint's health — the
// /federation status endpoint serves a list of these.
type EndpointStatus struct {
	// URL is the endpoint URL.
	URL string `json:"url"`
	// Peer is true for an endpoint registered with AddPeer, false for one
	// that only query text named.
	Peer bool `json:"peer"`
	// State is the circuit state: closed, open, or half-open.
	State string `json:"state"`
	// LatencyMs is the request-latency EWMA in milliseconds (0 until the
	// first success).
	LatencyMs float64 `json:"latencyMs"`
	// Requests and Failures count all reported outcomes.
	Requests uint64 `json:"requests"`
	Failures uint64 `json:"failures"`
	// ConsecutiveFailures is the current failure streak.
	ConsecutiveFailures int `json:"consecutiveFailures"`
	// LastError is the most recent failure message, empty when healthy.
	LastError string `json:"lastError,omitempty"`
}

// Status snapshots every endpoint the registry keeps — the peers and the
// ad-hoc endpoints not yet forgotten — sorted by URL.
func (r *Registry) Status() []EndpointStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]EndpointStatus, 0, len(r.eps))
	for _, ep := range r.eps {
		st := ep.state
		// An open circuit whose cooldown has elapsed is half-open in
		// spirit: the next Allow will probe.
		if st == StateOpen && !r.now().Before(ep.openUntil) {
			st = StateHalfOpen
		}
		out = append(out, EndpointStatus{
			URL:                 ep.url,
			Peer:                ep.peer,
			State:               st,
			LatencyMs:           ep.ewmaMs,
			Requests:            ep.requests,
			Failures:            ep.failures,
			ConsecutiveFailures: ep.consecFails,
			LastError:           ep.lastErr,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// AdHocTotals returns the requests and failures reported for endpoints
// that are not peers, since the registry was made: evicted endpoints' counts
// included, so both only grow.
func (r *Registry) AdHocTotals() (requests, failures uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.adHocRequests, r.adHocFailures
}

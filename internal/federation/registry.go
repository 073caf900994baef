package federation

import (
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

// RegistryOptions tune the circuit breaker and latency tracking.
type RegistryOptions struct {
	// FailureThreshold is how many consecutive failures open the circuit
	// (non-positive = 3).
	FailureThreshold int
	// Cooldown is how long an open circuit refuses requests before letting
	// a probe through (non-positive = 5s).
	Cooldown time.Duration
	// EWMAAlpha weighs the newest latency sample in the moving average
	// (outside (0,1] = 0.2).
	EWMAAlpha float64

	// now overrides time.Now in tests.
	now func() time.Time
}

func (o RegistryOptions) withDefaults() RegistryOptions {
	if o.FailureThreshold <= 0 {
		o.FailureThreshold = 3
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 5 * time.Second
	}
	if o.EWMAAlpha <= 0 || o.EWMAAlpha > 1 {
		o.EWMAAlpha = 0.2
	}
	if o.now == nil {
		o.now = time.Now
	}
	return o
}

// Registry tracks the endpoints a node federates with: circuit-breaker
// health, an exponentially weighted moving average of request latency, and
// per-predicate cardinality summaries used to pick endpoints for a
// predicate. Safe for concurrent use.
type Registry struct {
	opt RegistryOptions

	mu  sync.Mutex
	eps map[string]*endpoint
}

type endpoint struct {
	url          string
	state        string
	consecFails  int
	requests     uint64
	failures     uint64
	ewmaMs       float64
	haveLatency  bool
	openUntil    time.Time
	lastErr      string
	lastReported time.Time
}

// NewRegistry returns an empty registry.
func NewRegistry(opt RegistryOptions) *Registry {
	return &Registry{opt: opt.withDefaults(), eps: map[string]*endpoint{}}
}

// Ensure registers url if it is not yet known. Newly added endpoints start
// closed (healthy until proven otherwise).
func (r *Registry) Ensure(url string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ensureLocked(url)
}

func (r *Registry) ensureLocked(url string) *endpoint {
	ep, ok := r.eps[url]
	if !ok {
		ep = &endpoint{url: url, state: StateClosed}
		r.eps[url] = ep
	}
	return ep
}

// Endpoints returns the registered endpoint URLs, sorted.
func (r *Registry) Endpoints() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.eps))
	for u := range r.eps {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
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
		if r.opt.now().Before(ep.openUntil) {
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
	ep.lastReported = r.opt.now()
	if err == nil {
		ms := float64(d) / float64(time.Millisecond)
		if !ep.haveLatency {
			ep.ewmaMs = ms
			ep.haveLatency = true
		} else {
			a := r.opt.EWMAAlpha
			ep.ewmaMs = a*ms + (1-a)*ep.ewmaMs
		}
		ep.consecFails = 0
		ep.state = StateClosed
		ep.lastErr = ""
		return
	}
	ep.failures++
	ep.consecFails++
	ep.lastErr = err.Error()
	if ep.state == StateHalfOpen || ep.consecFails >= r.opt.FailureThreshold {
		ep.state = StateOpen
		ep.openUntil = r.opt.now().Add(r.opt.Cooldown)
	}
}

// EndpointStatus is a point-in-time snapshot of one endpoint's health — the
// /federation status endpoint serves a list of these.
type EndpointStatus struct {
	// URL is the endpoint URL.
	URL string `json:"url"`
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

// Status snapshots every registered endpoint, sorted by URL.
func (r *Registry) Status() []EndpointStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]EndpointStatus, 0, len(r.eps))
	for _, ep := range r.eps {
		st := ep.state
		// An open circuit whose cooldown has elapsed is half-open in
		// spirit: the next Allow will probe.
		if st == StateOpen && !r.opt.now().Before(ep.openUntil) {
			st = StateHalfOpen
		}
		out = append(out, EndpointStatus{
			URL:                 ep.url,
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

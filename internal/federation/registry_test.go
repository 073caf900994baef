package federation

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced time source.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1700000000, 0)} }
func testRegistry(c *fakeClock) *Registry {
	r := NewRegistry()
	r.now = c.now
	return r
}

const ep = "http://peer.example/sparql"

func TestCircuitBreakerOpensAndProbesBackIn(t *testing.T) {
	clock := newFakeClock()
	r := testRegistry(clock)
	fail := errors.New("connection refused")

	if !r.Allow(ep) {
		t.Fatal("fresh endpoint should be allowed")
	}
	// Two failures: still closed.
	r.Report(ep, 0, fail)
	r.Report(ep, 0, fail)
	if !r.Allow(ep) {
		t.Fatal("below threshold should stay closed")
	}
	// Third consecutive failure opens the circuit.
	r.Report(ep, 0, fail)
	if r.Allow(ep) {
		t.Fatal("circuit should be open after 3 consecutive failures")
	}
	if got := r.Status()[0].State; got != StateOpen {
		t.Fatalf("state = %q, want open", got)
	}

	// Cooldown not yet elapsed: still refused.
	clock.advance(4 * time.Second)
	if r.Allow(ep) {
		t.Fatal("cooldown not elapsed, should refuse")
	}
	// Cooldown elapsed: exactly one probe passes.
	clock.advance(2 * time.Second)
	if !r.Allow(ep) {
		t.Fatal("first caller after cooldown should be the half-open probe")
	}
	if r.Allow(ep) {
		t.Fatal("second caller during half-open probe should be refused")
	}

	// Failed probe re-opens for another cooldown.
	r.Report(ep, 0, fail)
	if r.Allow(ep) {
		t.Fatal("failed probe should re-open the circuit")
	}
	clock.advance(6 * time.Second)
	if !r.Allow(ep) {
		t.Fatal("second probe after re-opened cooldown")
	}
	// Successful probe closes the circuit fully.
	r.Report(ep, 10*time.Millisecond, nil)
	if !r.Allow(ep) || !r.Allow(ep) {
		t.Fatal("closed circuit should allow everyone")
	}
	st := r.Status()[0]
	if st.State != StateClosed {
		t.Errorf("state = %q, want closed", st.State)
	}
	if st.ConsecutiveFailures != 0 {
		t.Errorf("consecutive failures = %d, want 0", st.ConsecutiveFailures)
	}
}

func TestSuccessResetsFailureStreak(t *testing.T) {
	clock := newFakeClock()
	r := testRegistry(clock)
	fail := errors.New("boom")
	r.Report(ep, 0, fail)
	r.Report(ep, 0, fail)
	r.Report(ep, time.Millisecond, nil) // streak broken
	r.Report(ep, 0, fail)
	r.Report(ep, 0, fail)
	if !r.Allow(ep) {
		t.Fatal("streak was reset; 2 failures should not open the circuit")
	}
}

func TestLatencyEWMA(t *testing.T) {
	clock := newFakeClock()
	r := testRegistry(clock)
	r.Report(ep, 100*time.Millisecond, nil)
	if got := r.Status()[0].LatencyMs; got != 100 {
		t.Fatalf("first sample seeds the EWMA: got %v, want 100", got)
	}
	r.Report(ep, 200*time.Millisecond, nil)
	want := r.Status()[0].LatencyMs
	if math.Abs(want-120) > 1e-9 {
		t.Fatalf("EWMA after 100,200 at alpha 0.2 = %v, want 120", want)
	}
	// Failures leave the latency estimate untouched.
	r.Report(ep, 0, errors.New("x"))
	if got := r.Status()[0].LatencyMs; got != want {
		t.Fatalf("failure changed EWMA to %v", got)
	}
}

func TestRegistryStatusSorted(t *testing.T) {
	clock := newFakeClock()
	r := testRegistry(clock)
	r.AddPeer("http://b/")
	r.AddPeer("http://a/")
	st := r.Status()
	if len(st) != 2 || st[0].URL != "http://a/" || st[1].URL != "http://b/" {
		t.Errorf("Status order: %v", st)
	}
}

// TestReleasedProbeProbesAgain: a half-open probe whose caller gave up
// counts nothing and leaves the circuit open with its cooldown elapsed, so
// the next caller is the probe; the circuit never sticks half-open.
func TestReleasedProbeProbesAgain(t *testing.T) {
	clock := newFakeClock()
	r := testRegistry(clock)
	fail := errors.New("boom")
	for i := 0; i < failureThreshold; i++ {
		r.Report(ep, 0, fail)
	}
	clock.advance(cooldown)
	if !r.Allow(ep) {
		t.Fatal("cooldown elapsed: the first caller should be the probe")
	}
	r.Release(ep)
	st := r.Status()[0]
	if st.State != StateHalfOpen || st.Requests != failureThreshold || st.ConsecutiveFailures != failureThreshold {
		t.Fatalf("after a released probe: %+v, want open with cooldown elapsed and nothing counted", st)
	}
	if !r.Allow(ep) {
		t.Fatal("the next caller after a released probe should probe again")
	}
	if r.Allow(ep) {
		t.Fatal("only one probe at a time")
	}
	r.Report(ep, time.Millisecond, nil)
	if st := r.Status()[0]; st.State != StateClosed {
		t.Fatalf("a successful probe should close the circuit: %+v", st)
	}
	// Released requests on a closed circuit count nothing either.
	r.Release(ep)
	if st := r.Status()[0]; st.State != StateClosed || st.Requests != failureThreshold+1 {
		t.Fatalf("a released request on a closed circuit: %+v", st)
	}
}

// TestRegistryBoundsAdHocEndpoints: endpoints that only query text named
// are kept up to adHocCapacity, least recently used out first, while a
// peer is never evicted; the ad-hoc totals count every outcome, evicted
// endpoints' included, and a peer's none. AddPeer takes over an ad-hoc
// endpoint's state.
func TestRegistryBoundsAdHocEndpoints(t *testing.T) {
	r := testRegistry(newFakeClock())
	r.AddPeer(ep)
	r.Report(ep, time.Millisecond, nil)
	fail := errors.New("boom")
	for i := 0; i < 1000; i++ {
		u := fmt.Sprintf("http://adhoc.example/%d", i)
		r.Report(u, 0, fail)
		if i%10 == 0 {
			r.Allow("http://adhoc.example/0") // keep endpoint 0 recently used
		}
	}
	st := r.Status()
	if len(st) != adHocCapacity+1 {
		t.Fatalf("%d endpoints kept, want %d ad-hoc and the peer", len(st), adHocCapacity)
	}
	urls := map[string]bool{}
	for _, s := range st {
		urls[s.URL] = s.Peer
	}
	if peer, ok := urls[ep]; !ok || !peer {
		t.Errorf("peer kept %v, marked a peer %v", ok, peer)
	}
	if _, ok := urls["http://adhoc.example/0"]; !ok {
		t.Error("the most recently used ad-hoc endpoint was evicted")
	}
	if _, ok := urls["http://adhoc.example/1"]; ok {
		t.Error("a least recently used ad-hoc endpoint was kept")
	}
	if req, fails := r.AdHocTotals(); req != 1000 || fails != 1000 {
		t.Errorf("ad-hoc totals %d requests, %d failures; want 1000 and 1000", req, fails)
	}
	const promoted = "http://adhoc.example/999"
	r.AddPeer(promoted)
	for _, s := range r.Status() {
		if s.URL == promoted && (!s.Peer || s.Failures != 1) {
			t.Errorf("promoted endpoint %+v, want a peer with its 1 failure", s)
		}
	}
	if n := len(r.Status()); n != adHocCapacity+1 {
		t.Errorf("%d endpoints after promoting one, want %d", n, adHocCapacity+1)
	}
}

// TestRegistryAdHocConcurrent: goroutines naming distinct endpoints at once,
// beside readers of Status and the totals, leave the list at its bound and
// every outcome counted (run it under -race).
func TestRegistryAdHocConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				u := fmt.Sprintf("http://adhoc.example/%d/%d", g, i)
				if r.Allow(u) {
					r.Report(u, time.Millisecond, nil)
				}
				if i%50 == 0 {
					_ = r.Status()
					r.AdHocTotals()
				}
			}
		}()
	}
	wg.Wait()
	if n := len(r.Status()); n != adHocCapacity {
		t.Errorf("%d endpoints kept, want %d", n, adHocCapacity)
	}
	if req, _ := r.AdHocTotals(); req != 1600 {
		t.Errorf("%d ad-hoc requests counted, want 1600", req)
	}
}

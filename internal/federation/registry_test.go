package federation

import (
	"errors"
	"testing"
	"time"
)

// fakeClock is a manually advanced time source.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1700000000, 0)} }
func testRegistry(c *fakeClock, opt RegistryOptions) *Registry {
	opt.now = c.now
	return NewRegistry(opt)
}

const ep = "http://peer.example/sparql"

func TestCircuitBreakerOpensAndProbesBackIn(t *testing.T) {
	clock := newFakeClock()
	r := testRegistry(clock, RegistryOptions{FailureThreshold: 3, Cooldown: 5 * time.Second})
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
	r := testRegistry(clock, RegistryOptions{FailureThreshold: 3})
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
	r := testRegistry(clock, RegistryOptions{EWMAAlpha: 0.5})
	r.Report(ep, 100*time.Millisecond, nil)
	if got := r.Status()[0].LatencyMs; got != 100 {
		t.Fatalf("first sample seeds the EWMA: got %v, want 100", got)
	}
	r.Report(ep, 200*time.Millisecond, nil)
	if got := r.Status()[0].LatencyMs; got != 150 {
		t.Fatalf("EWMA after 100,200 at alpha 0.5 = %v, want 150", got)
	}
	// Failures leave the latency estimate untouched.
	r.Report(ep, 0, errors.New("x"))
	if got := r.Status()[0].LatencyMs; got != 150 {
		t.Fatalf("failure changed EWMA to %v", got)
	}
}

func TestRegistryStatusSorted(t *testing.T) {
	clock := newFakeClock()
	r := testRegistry(clock, RegistryOptions{})
	r.Ensure("http://b/")
	r.Ensure("http://a/")
	st := r.Status()
	if len(st) != 2 || st[0].URL != "http://a/" || st[1].URL != "http://b/" {
		t.Errorf("Status order: %v", st)
	}
}

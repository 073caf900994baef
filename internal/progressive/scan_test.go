package progressive

import (
	"math"
	"testing"
)

func TestCountEstimateExactWhenComplete(t *testing.T) {
	e := CountEstimate(37, 100, 100)
	if !e.Final {
		t.Fatal("n == population should be final")
	}
	if e.Value != 37 || e.CI95 != 0 {
		t.Fatalf("final estimate = %+v, want exact 37 with CI 0", e)
	}
	if e.Fraction != 1 {
		t.Fatalf("Fraction = %v, want 1", e.Fraction)
	}
}

func TestCountEstimatePartialScales(t *testing.T) {
	// 10 of 40 observed over a population of 400: estimate 100.
	e := CountEstimate(10, 40, 400)
	if e.Final {
		t.Fatal("partial scan must not be final")
	}
	if math.Abs(e.Value-100) > 1e-9 {
		t.Fatalf("Value = %v, want 100", e.Value)
	}
	if e.CI95 <= 0 {
		t.Fatalf("CI95 = %v, want > 0 for 0 < p < 1", e.CI95)
	}
	if e.SampleSize != 40 || math.Abs(e.Fraction-0.1) > 1e-9 {
		t.Fatalf("SampleSize/Fraction = %d/%v, want 40/0.1", e.SampleSize, e.Fraction)
	}
	// Manual CLT check: z95 * sqrt(p(1-p)/n * fpc) * N.
	p, n, N := 0.25, 40.0, 400.0
	want := z95 * math.Sqrt(p*(1-p)/n*(1-n/N)) * N
	if math.Abs(e.CI95-want) > 1e-9 {
		t.Fatalf("CI95 = %v, want %v", e.CI95, want)
	}
}

func TestCountEstimateIntervalShrinks(t *testing.T) {
	prev := math.Inf(1)
	for _, n := range []int{50, 100, 200, 399} {
		e := CountEstimate(n/2, n, 400)
		if e.CI95 >= prev {
			t.Fatalf("CI95 did not shrink at n=%d: %v >= %v", n, e.CI95, prev)
		}
		prev = e.CI95
	}
}

func TestCountEstimateEdgeCases(t *testing.T) {
	if e := CountEstimate(0, 0, 100); e.Final || e.Value != 0 {
		t.Fatalf("n=0: %+v, want empty non-final estimate", e)
	}
	if e := CountEstimate(0, 10, 0); !e.Final {
		t.Fatalf("population=0: %+v, want final empty estimate", e)
	}
	// Zero observed count: estimate 0 with a collapsed interval (p = 0).
	if e := CountEstimate(0, 10, 100); e.Value != 0 || e.CI95 != 0 {
		t.Fatalf("count=0: %+v, want 0 +/- 0", e)
	}
	// n beyond population clamps to exact.
	if e := CountEstimate(5, 150, 100); !e.Final || e.Value != 5 {
		t.Fatalf("n > population: %+v, want final exact", e)
	}
}

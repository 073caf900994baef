// Package progressive holds the estimate the exploration layer's progressive
// streams emit mid-scan: a count observed over a prefix of the data, scaled to
// the population with a CLT-based confidence interval, so a view can render a
// "partially right" answer immediately and refine it — the sampleAction model
// of incremental visualization (Fisher et al., CHI 2012) and the
// online-aggregation core of BlinkDB/VisReduce (survey Section 2, refs
// [46,2,69,123]).
package progressive

import "math"

// Estimate is one progressive answer: the current aggregate value plus its
// uncertainty.
type Estimate struct {
	// Value is the running estimate of the aggregate.
	Value float64
	// SampleSize is how many items contributed.
	SampleSize int
	// Fraction is SampleSize / population size.
	Fraction float64
	// CI95 is the half-width of the 95% confidence interval (0 when
	// undefined, e.g. for n < 2).
	CI95 float64
	// Final marks the exact (full-data) answer.
	Final bool
}

// z95 is the normal 97.5th percentile used for two-sided 95% intervals.
const z95 = 1.959963984540054

// CountEstimate scales a count observed over the first n items of a
// population of known size into a population-level estimate with a CLT 95%
// interval: the observed selectivity count/n is a binomial proportion, so
// its standard error is sqrt(p(1-p)/n), shrunk by the finite-population
// correction as the scan approaches completion. This is the estimator the
// exploration layer's paged ID scans emit mid-scan — each page refines the
// answer, and at n == population the interval collapses to zero and the
// estimate is exact. n = 0 yields the empty estimate.
func CountEstimate(count, n, population int) Estimate {
	if n <= 0 || population <= 0 {
		return Estimate{Final: population <= 0}
	}
	if n > population {
		n = population
	}
	p := float64(count) / float64(n)
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	est := Estimate{
		Value:      p * float64(population),
		SampleSize: n,
		Fraction:   float64(n) / float64(population),
		Final:      n == population,
	}
	if est.Final {
		est.Value = float64(count)
		return est
	}
	fpc := 1 - float64(n)/float64(population)
	se := math.Sqrt(p * (1 - p) / float64(n) * fpc)
	est.CI95 = z95 * se * float64(population)
	return est
}

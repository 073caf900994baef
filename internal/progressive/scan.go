package progressive

import "math"

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

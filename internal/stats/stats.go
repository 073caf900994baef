// Package stats provides the descriptive statistics shown next to
// visualizations (the "Statistics" capability column of the survey's Table 1)
// and that the reduction techniques rely on: moments, quantiles, histograms,
// correlation, and an online (Welford) accumulator for streaming/progressive
// settings.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by computations that need at least one value.
var ErrEmpty = errors.New("stats: empty input")

// Summary holds the descriptive statistics of a numeric sample.
type Summary struct {
	N        int
	Min, Max float64
	Mean     float64
	// Variance is the unbiased sample variance (n-1 denominator).
	Variance float64
	StdDev   float64
	Median   float64
	Q1, Q3   float64
	Skewness float64
}

// Summarize computes a Summary in one pass plus a sort for the quantiles.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	var acc Online
	for _, x := range xs {
		acc.Add(x)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s := Summary{
		N:        len(xs),
		Min:      sorted[0],
		Max:      sorted[len(sorted)-1],
		Mean:     acc.Mean(),
		Variance: acc.Variance(),
		StdDev:   math.Sqrt(acc.Variance()),
		Median:   quantileSorted(sorted, 0.5),
		Q1:       quantileSorted(sorted, 0.25),
		Q3:       quantileSorted(sorted, 0.75),
	}
	if s.StdDev > 0 {
		var m3 float64
		for _, x := range xs {
			d := x - s.Mean
			m3 += d * d * d
		}
		m3 /= float64(len(xs))
		s.Skewness = m3 / math.Pow(s.StdDev, 3)
	}
	return s, nil
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) using linear interpolation
// between closest ranks.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q), nil
}

func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// samples — the statistic SemLens-style scatter analysis reports.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if len(xs) != len(ys) {
		return 0, errors.New("stats: length mismatch")
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	n := float64(len(xs))
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Online is a Welford-style streaming accumulator: mean and variance without
// retaining the values, as progressive visualization requires.
// The zero value is ready to use.
type Online struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// Merge combines another accumulator into this one (parallel aggregation).
func (o *Online) Merge(other Online) {
	if other.n == 0 {
		return
	}
	if o.n == 0 {
		*o = other
		return
	}
	n1, n2 := float64(o.n), float64(other.n)
	delta := other.mean - o.mean
	total := n1 + n2
	o.mean += delta * n2 / total
	o.m2 += other.m2 + delta*delta*n1*n2/total
	o.n += other.n
	if other.min < o.min {
		o.min = other.min
	}
	if other.max > o.max {
		o.max = other.max
	}
}

// N returns the number of observations.
func (o *Online) N() int { return o.n }

// Mean returns the running mean (0 for an empty accumulator).
func (o *Online) Mean() float64 { return o.mean }

// Variance returns the unbiased sample variance.
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// StdDev returns the sample standard deviation.
func (o *Online) StdDev() float64 { return math.Sqrt(o.Variance()) }

// Min returns the smallest observation (0 for an empty accumulator).
func (o *Online) Min() float64 { return o.min }

// Max returns the largest observation (0 for an empty accumulator).
func (o *Online) Max() float64 { return o.max }

// Histogram is a fixed-width histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	// Under and Over count out-of-range observations.
	Under, Over int
}

// NewHistogram creates a histogram with n bins covering [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n < 1 {
		n = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, n)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if i == len(h.Counts) {
			i--
		}
		h.Counts[i]++
	}
}

// Total returns the number of in-range observations.
func (h *Histogram) Total() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Mode returns the index of the fullest bin.
func (h *Histogram) Mode() int {
	best, bestC := 0, -1
	for i, c := range h.Counts {
		if c > bestC {
			best, bestC = i, c
		}
	}
	return best
}

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 {
	return (h.Hi - h.Lo) / float64(len(h.Counts))
}

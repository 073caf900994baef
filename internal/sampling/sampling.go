// Package sampling implements the sampling/filtering data-reduction family
// the survey groups under "approximation techniques" (Section 2, refs
// [46,105,2,69,17]): reservoir, Bernoulli, systematic, stratified and
// weighted samplers, plus a visualization-aware sampler in the spirit of VAS
// (Park et al., ICDE 2016) that optimizes pixel coverage rather than
// statistical uniformity.
//
// All samplers are deterministic given a seed, so experiments reproduce.
package sampling

import (
	"errors"
	"math"
	"math/rand"
	"sort"
)

// ErrBadSize is returned when a requested sample size is invalid.
var ErrBadSize = errors.New("sampling: sample size must be positive")

// Reservoir maintains a uniform k-sample over a stream of unknown length
// (Vitter's algorithm R). It is the building block for progressive
// approximate visualization: at any moment the reservoir holds a uniform
// sample of everything seen so far.
type Reservoir[T any] struct {
	k    int
	n    int
	rng  *rand.Rand
	data []T
}

// NewReservoir creates a reservoir of capacity k.
func NewReservoir[T any](k int, seed int64) (*Reservoir[T], error) {
	if k <= 0 {
		return nil, ErrBadSize
	}
	return &Reservoir[T]{k: k, rng: rand.New(rand.NewSource(seed))}, nil
}

// Add offers one stream element to the reservoir.
func (r *Reservoir[T]) Add(v T) {
	r.n++
	if len(r.data) < r.k {
		r.data = append(r.data, v)
		return
	}
	if j := r.rng.Intn(r.n); j < r.k {
		r.data[j] = v
	}
}

// Sample returns the current sample (at most k elements). The returned slice
// is a copy.
func (r *Reservoir[T]) Sample() []T {
	out := make([]T, len(r.data))
	copy(out, r.data)
	return out
}

// Seen returns how many elements have been offered.
func (r *Reservoir[T]) Seen() int { return r.n }

// Bernoulli returns each element independently with probability p.
func Bernoulli[T any](xs []T, p float64, seed int64) []T {
	if p <= 0 {
		return nil
	}
	if p >= 1 {
		return append([]T(nil), xs...)
	}
	rng := rand.New(rand.NewSource(seed))
	var out []T
	for _, x := range xs {
		if rng.Float64() < p {
			out = append(out, x)
		}
	}
	return out
}

// Systematic returns every ceil(n/k)-th element starting from a random
// offset, preserving input order — the cheap sampler for pre-sorted series.
func Systematic[T any](xs []T, k int, seed int64) ([]T, error) {
	if k <= 0 {
		return nil, ErrBadSize
	}
	if k >= len(xs) {
		return append([]T(nil), xs...), nil
	}
	step := float64(len(xs)) / float64(k)
	rng := rand.New(rand.NewSource(seed))
	offset := rng.Float64() * step
	out := make([]T, 0, k)
	for i := 0; i < k; i++ {
		idx := int(offset + float64(i)*step)
		if idx >= len(xs) {
			idx = len(xs) - 1
		}
		out = append(out, xs[idx])
	}
	return out, nil
}

// Stratified draws a proportional uniform sample from each stratum, so small
// but important groups survive reduction (the failure mode of plain uniform
// sampling the survey's recommendation systems warn about).
func Stratified[T any](xs []T, stratum func(T) string, k int, seed int64) ([]T, error) {
	if k <= 0 {
		return nil, ErrBadSize
	}
	if k >= len(xs) {
		return append([]T(nil), xs...), nil
	}
	groups := map[string][]T{}
	var keys []string
	for _, x := range xs {
		s := stratum(x)
		if _, ok := groups[s]; !ok {
			keys = append(keys, s)
		}
		groups[s] = append(groups[s], x)
	}
	sort.Strings(keys)
	rng := rand.New(rand.NewSource(seed))
	out := make([]T, 0, k)
	remaining := k
	for i, key := range keys {
		grp := groups[key]
		// Proportional allocation with at least one element per stratum,
		// never exceeding what is left.
		share := int(math.Round(float64(len(grp)) / float64(len(xs)) * float64(k)))
		if share < 1 {
			share = 1
		}
		stratLeft := len(keys) - i - 1
		if share > remaining-stratLeft {
			share = remaining - stratLeft
		}
		if share > len(grp) {
			share = len(grp)
		}
		if share < 0 {
			share = 0
		}
		perm := rng.Perm(len(grp))
		for j := 0; j < share; j++ {
			out = append(out, grp[perm[j]])
		}
		remaining -= share
	}
	return out, nil
}

// Weighted draws k elements without replacement with probability
// proportional to weight, using the Efraimidis–Spirakis exponential-key
// method. Zero or negative weights are treated as tiny positive weights.
func Weighted[T any](xs []T, weight func(T) float64, k int, seed int64) ([]T, error) {
	if k <= 0 {
		return nil, ErrBadSize
	}
	if k >= len(xs) {
		return append([]T(nil), xs...), nil
	}
	type keyed struct {
		key float64
		idx int
	}
	rng := rand.New(rand.NewSource(seed))
	keys := make([]keyed, len(xs))
	for i, x := range xs {
		w := weight(x)
		if w <= 0 {
			w = 1e-12
		}
		keys[i] = keyed{key: math.Pow(rng.Float64(), 1/w), idx: i}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].key > keys[j].key })
	out := make([]T, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, xs[keys[i].idx])
	}
	return out, nil
}

// Point is a 2-D point for visualization-aware sampling.
type Point struct {
	X, Y float64
}

// VisualizationAware greedily selects k points maximizing pixel coverage on
// a W×H canvas: a point whose pixel is already occupied adds no visual
// information, so the sampler prefers unseen pixels (the VAS insight —
// quality of a scatter plot is about covered pixels, not row counts).
func VisualizationAware(points []Point, k, w, h int, seed int64) ([]Point, error) {
	if k <= 0 {
		return nil, ErrBadSize
	}
	if k >= len(points) {
		return append([]Point(nil), points...), nil
	}
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, p := range points {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	pixel := func(p Point) int {
		px := int((p.X - minX) / (maxX - minX) * float64(w-1))
		py := int((p.Y - minY) / (maxY - minY) * float64(h-1))
		return py*w + px
	}
	// Shuffle for tie-breaking, then greedily take unseen pixels first.
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(points))
	occupied := map[int]bool{}
	out := make([]Point, 0, k)
	var overflow []Point
	for _, i := range order {
		p := points[i]
		px := pixel(p)
		if !occupied[px] {
			occupied[px] = true
			out = append(out, p)
			if len(out) == k {
				return out, nil
			}
		} else {
			overflow = append(overflow, p)
		}
	}
	// Fewer distinct pixels than k: fill with the remainder.
	for _, p := range overflow {
		if len(out) == k {
			break
		}
		out = append(out, p)
	}
	return out, nil
}

// PixelCoverage reports the fraction of W×H pixels covered by the points —
// the quality metric experiment E3 uses to compare reduction strategies.
func PixelCoverage(points []Point, w, h int) float64 {
	if len(points) == 0 || w < 1 || h < 1 {
		return 0
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, p := range points {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	occupied := map[int]bool{}
	for _, p := range points {
		px := int((p.X - minX) / (maxX - minX) * float64(w-1))
		py := int((p.Y - minY) / (maxY - minY) * float64(h-1))
		occupied[py*w+px] = true
	}
	return float64(len(occupied)) / float64(w*h)
}

// TopK keeps the k best elements of a stream of unknown length under a
// strict ordering — the ranked counterpart of Reservoir, for "show the k
// heaviest values" views that would otherwise sort everything to keep a
// handful. Offer costs one comparison for an element that does not make the
// cut and O(log k) for one that does; nothing beyond the k survivors is
// retained.
type TopK[T any] struct {
	k      int
	before func(a, b T) bool
	// heap is a binary heap with the worst kept element at the root, so a
	// newcomer is compared against the one element it could displace.
	heap []T
}

// NewTopK creates a selector keeping the k elements that sort first under
// before, which must be a strict weak ordering. k <= 0 keeps everything.
func NewTopK[T any](k int, before func(a, b T) bool) *TopK[T] {
	return &TopK[T]{k: k, before: before}
}

// Offer presents one stream element to the selector.
func (t *TopK[T]) Offer(v T) {
	if t.k <= 0 {
		t.heap = append(t.heap, v)
		return
	}
	if len(t.heap) < t.k {
		t.heap = append(t.heap, v)
		// Sift up: a child that sorts after its parent becomes the new worst.
		for i := len(t.heap) - 1; i > 0; {
			parent := (i - 1) / 2
			if !t.before(t.heap[parent], t.heap[i]) {
				break
			}
			t.heap[parent], t.heap[i] = t.heap[i], t.heap[parent]
			i = parent
		}
		return
	}
	if !t.before(v, t.heap[0]) {
		return
	}
	t.heap[0] = v
	for i := 0; ; {
		worst := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(t.heap); c++ {
			if t.before(t.heap[worst], t.heap[c]) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		t.heap[i], t.heap[worst] = t.heap[worst], t.heap[i]
		i = worst
	}
}

// Sorted returns the kept elements best first. The selector must not be
// offered to afterwards: the returned slice is its own storage, reordered.
func (t *TopK[T]) Sorted() []T {
	sort.Slice(t.heap, func(i, j int) bool { return t.before(t.heap[i], t.heap[j]) })
	return t.heap
}

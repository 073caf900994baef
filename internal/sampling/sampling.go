// Package sampling holds the two stream reducers the serving path uses: a
// uniform reservoir sample (Vitter's algorithm R), which bounds neighbourhood
// expansion, and a bounded top-k selector, which caps facet value lists,
// search results and ORDER BY … LIMIT k. They are the sampling family the
// survey groups under "approximation techniques" (Section 2, refs
// [46,105,2,69,17]).
//
// Both are deterministic given a seed or ordering, so results reproduce.
package sampling

import (
	"errors"
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

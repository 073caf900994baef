package sampling

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestReservoirSizeAndSeen(t *testing.T) {
	r, err := NewReservoir[int](10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		r.Add(i)
	}
	if len(r.Sample()) != 10 {
		t.Errorf("sample size = %d, want 10", len(r.Sample()))
	}
	if r.Seen() != 1000 {
		t.Errorf("Seen = %d", r.Seen())
	}
}

func TestReservoirSmallStream(t *testing.T) {
	r, _ := NewReservoir[int](10, 1)
	for i := 0; i < 5; i++ {
		r.Add(i)
	}
	if len(r.Sample()) != 5 {
		t.Errorf("sample size = %d, want 5", len(r.Sample()))
	}
}

func TestReservoirBadSize(t *testing.T) {
	if _, err := NewReservoir[int](0, 1); err != ErrBadSize {
		t.Errorf("err = %v, want ErrBadSize", err)
	}
}

// Statistical property: over many trials each element is retained with
// probability ~ k/n (within generous bounds — this is a sanity check of
// uniformity, not a precision test).
func TestReservoirUniformity(t *testing.T) {
	const n, k, trials = 100, 10, 3000
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		r, _ := NewReservoir[int](k, int64(trial))
		for i := 0; i < n; i++ {
			r.Add(i)
		}
		for _, v := range r.Sample() {
			counts[v]++
		}
	}
	expected := float64(trials) * float64(k) / float64(n) // 300
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > expected*0.35 {
			t.Errorf("element %d retained %d times, expected ~%.0f", i, c, expected)
		}
	}
}

func TestTopKMatchesSortAndTruncate(t *testing.T) {
	type item struct{ weight, id int }
	before := func(a, b item) bool {
		if a.weight != b.weight {
			return a.weight > b.weight
		}
		return a.id < b.id
	}
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 5, 100} {
		items := make([]item, n)
		for i := range items {
			items[i] = item{weight: rng.Intn(4), id: i} // heavy ties on weight
		}
		want := append([]item{}, items...)
		sort.Slice(want, func(i, j int) bool { return before(want[i], want[j]) })
		for _, k := range []int{-1, 0, 1, 2, n - 1, n, n + 1} {
			top := NewTopK(k, before)
			for _, it := range items {
				top.Offer(it)
			}
			got := top.Sorted()
			keep := n
			if k > 0 && k < n {
				keep = k
			}
			if len(got) != keep {
				t.Fatalf("n=%d k=%d: kept %d, want %d", n, k, len(got), keep)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d k=%d: position %d = %v, want %v", n, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestTopKWorst(t *testing.T) {
	less := func(a, b int) bool { return a < b }
	if _, ok := NewTopK(0, less).Worst(); ok {
		t.Error("a selector keeping everything reported a worst")
	}
	rng := rand.New(rand.NewSource(4))
	const k = 3
	top := NewTopK(k, less)
	var seen []int
	for i := 0; i < 50; i++ {
		v := rng.Intn(20)
		top.Offer(v)
		seen = append(seen, v)
		sort.Ints(seen)
		worst, ok := top.Worst()
		if len(seen) < k {
			if ok {
				t.Fatalf("after %d offers: Worst = %d with room left", len(seen), worst)
			}
			continue
		}
		if !ok || worst != seen[k-1] {
			t.Fatalf("after %d offers: Worst = %d, %v; want %d", len(seen), worst, ok, seen[k-1])
		}
	}
}

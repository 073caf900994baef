package sampling

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
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

func TestBernoulli(t *testing.T) {
	xs := make([]int, 10000)
	for i := range xs {
		xs[i] = i
	}
	got := Bernoulli(xs, 0.1, 42)
	if len(got) < 800 || len(got) > 1200 {
		t.Errorf("p=0.1 sample size = %d, expected ~1000", len(got))
	}
	if len(Bernoulli(xs, 0, 1)) != 0 {
		t.Error("p=0 must return nothing")
	}
	if len(Bernoulli(xs, 1, 1)) != len(xs) {
		t.Error("p=1 must return everything")
	}
}

func TestSystematic(t *testing.T) {
	xs := make([]int, 100)
	for i := range xs {
		xs[i] = i
	}
	got, err := Systematic(xs, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("size = %d", len(got))
	}
	// Order must be preserved.
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Errorf("order violated: %v", got)
		}
	}
	if _, err := Systematic(xs, 0, 1); err != ErrBadSize {
		t.Error("k=0 accepted")
	}
	all, _ := Systematic(xs, 200, 1)
	if len(all) != 100 {
		t.Errorf("oversized k should return all, got %d", len(all))
	}
}

func TestStratifiedKeepsSmallStrata(t *testing.T) {
	type row struct {
		class string
		id    int
	}
	var xs []row
	for i := 0; i < 990; i++ {
		xs = append(xs, row{"big", i})
	}
	for i := 0; i < 10; i++ {
		xs = append(xs, row{"rare", i})
	}
	got, err := Stratified(xs, func(r row) string { return r.class }, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) > 50 {
		t.Errorf("size = %d > 50", len(got))
	}
	rare := 0
	for _, r := range got {
		if r.class == "rare" {
			rare++
		}
	}
	if rare == 0 {
		t.Error("stratified sampling lost the rare stratum entirely")
	}
}

func TestStratifiedProportionality(t *testing.T) {
	var xs []string
	for i := 0; i < 700; i++ {
		xs = append(xs, "a")
	}
	for i := 0; i < 300; i++ {
		xs = append(xs, "b")
	}
	got, _ := Stratified(xs, func(s string) string { return s }, 100, 5)
	a := 0
	for _, s := range got {
		if s == "a" {
			a++
		}
	}
	if a < 60 || a > 80 {
		t.Errorf("stratum a got %d of 100, expected ~70", a)
	}
}

func TestWeightedPrefersHeavy(t *testing.T) {
	type item struct {
		w  float64
		id int
	}
	var xs []item
	for i := 0; i < 100; i++ {
		w := 1.0
		if i < 5 {
			w = 1000
		}
		xs = append(xs, item{w, i})
	}
	heavyHits := 0
	for trial := 0; trial < 50; trial++ {
		got, err := Weighted(xs, func(it item) float64 { return it.w }, 10, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range got {
			if it.id < 5 {
				heavyHits++
			}
		}
	}
	// 5 heavy items should essentially always be drawn: ~250 hits of 500.
	if heavyHits < 200 {
		t.Errorf("heavy items drawn %d times over 50 trials, expected >200", heavyHits)
	}
}

func TestWeightedHandlesZeroWeights(t *testing.T) {
	xs := []int{1, 2, 3, 4}
	got, err := Weighted(xs, func(int) float64 { return 0 }, 2, 1)
	if err != nil || len(got) != 2 {
		t.Errorf("zero weights: %v %v", got, err)
	}
}

func TestVisualizationAwareCoverage(t *testing.T) {
	// Dense cluster + sparse outliers: VAS must keep outliers.
	var pts []Point
	for i := 0; i < 1000; i++ {
		pts = append(pts, Point{X: 0.5 + float64(i%10)*1e-6, Y: 0.5})
	}
	outliers := []Point{{0, 0}, {1, 1}, {0, 1}, {1, 0}}
	pts = append(pts, outliers...)

	vas, err := VisualizationAware(pts, 20, 100, 100, 11)
	if err != nil {
		t.Fatal(err)
	}
	cov := PixelCoverage(vas, 100, 100)
	// A uniform sample of 20 from this set would almost surely miss most
	// outliers; VAS must cover at least 4 distinct pixels.
	if cov < 4.0/10000 {
		t.Errorf("VAS coverage = %g, too low", cov)
	}
	found := 0
	for _, p := range vas {
		for _, o := range outliers {
			if p == o {
				found++
			}
		}
	}
	if found < 3 {
		t.Errorf("VAS kept %d/4 outliers", found)
	}
}

func TestVisualizationAwareFillsWhenFewPixels(t *testing.T) {
	pts := []Point{{0, 0}, {0, 0}, {0, 0}, {0, 0}}
	got, err := VisualizationAware(pts, 3, 10, 10, 1)
	if err != nil || len(got) != 3 {
		t.Errorf("expected fill to k: %v %v", got, err)
	}
}

func TestPixelCoverageEdges(t *testing.T) {
	if PixelCoverage(nil, 10, 10) != 0 {
		t.Error("empty coverage should be 0")
	}
	cov := PixelCoverage([]Point{{0, 0}}, 10, 10)
	if cov != 1.0/100 {
		t.Errorf("single point coverage = %g", cov)
	}
}

// Property: samplers never exceed requested size and never invent elements.
func TestSamplerBoundsProperty(t *testing.T) {
	f := func(seed int64, n8, k8 uint8) bool {
		n := int(n8)%200 + 1
		k := int(k8)%50 + 1
		xs := make([]int, n)
		set := map[int]bool{}
		for i := range xs {
			xs[i] = i * 3
			set[i*3] = true
		}
		sys, err := Systematic(xs, k, seed)
		if err != nil || len(sys) > n || len(sys) > max(k, n) {
			return false
		}
		for _, v := range sys {
			if !set[v] {
				return false
			}
		}
		str, err := Stratified(xs, func(v int) string {
			if v%2 == 0 {
				return "even"
			}
			return "odd"
		}, k, seed)
		if err != nil || len(str) > max(k, 2) && len(str) > n {
			return false
		}
		for _, v := range str {
			if !set[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
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

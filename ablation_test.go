// Ablation benchmarks for the design choices DESIGN.md calls out:
// WoD-specific indexes vs scanning, buffer-pool sizing, join-order
// robustness, and hierarchy fan-out.
package lodviz

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/lodviz/lodviz/internal/hetree"
	"github.com/lodviz/lodviz/internal/nanocube"
	"github.com/lodviz/lodviz/internal/sparql"
	"github.com/lodviz/lodviz/internal/spatial"
	"github.com/lodviz/lodviz/internal/store"
)

// Ablation 1 — Nanocube vs raw scan for spatio-temporal counting (the §4
// "indexes for WoD tasks" recommendation, quantified).

type stEvent struct{ x, y, t float64 }

func ablationEvents(n int) []stEvent {
	rng := rand.New(rand.NewSource(21))
	evs := make([]stEvent, n)
	for i := range evs {
		evs[i] = stEvent{x: rng.Float64() * 100, y: rng.Float64() * 100, t: rng.Float64() * 10}
	}
	return evs
}

func BenchmarkAblationNanocubeCount(b *testing.B) {
	evs := ablationEvents(200000)
	nc, err := nanocube.New(nanocube.Options{
		World: nanocube.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100},
		TMin:  0, TMax: 10, TimeBins: 64, Depth: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range evs {
		nc.Add(e.x, e.y, e.t)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nc.Count(nanocube.BBox{MinX: 10, MinY: 10, MaxX: 60, MaxY: 60}, 2, 7)
	}
}

func BenchmarkAblationScanCount(b *testing.B) {
	evs := ablationEvents(200000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, e := range evs {
			if e.x >= 10 && e.x < 60 && e.y >= 10 && e.y < 60 && e.t >= 2 && e.t < 7 {
				n++
			}
		}
		if n == 0 {
			b.Fatal("empty count")
		}
	}
}

// Ablation 2 — buffer-pool sizing for viewport queries.

func poolBench(b *testing.B, poolPages int) {
	rng := rand.New(rand.NewSource(8))
	pts := make([]spatial.TilePoint, 100000)
	for i := range pts {
		pts[i] = spatial.TilePoint{ID: uint32(i), X: rng.Float64() * 4096, Y: rng.Float64() * 4096}
	}
	dir, err := os.MkdirTemp("", "lodviz-abl")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	ts, err := spatial.NewTileStore(filepath.Join(dir, "t.db"), spatial.NewRect(0, 0, 4096, 4096), 32, poolPages)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ts.Close() })
	if err := ts.AddAll(pts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := spatial.NewRect(float64(i%8)*400, float64(i%4)*800, float64(i%8)*400+1024, float64(i%4)*800+1024)
		if _, err := ts.Query(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPool8Pages(b *testing.B)   { poolBench(b, 8) }
func BenchmarkAblationPool256Pages(b *testing.B) { poolBench(b, 256) }

// Ablation 3 — join-order robustness: the engine's selectivity reordering
// should make author order irrelevant (selective-first and selective-last
// formulations cost the same).

func joinStore(b *testing.B) *store.Store {
	b.Helper()
	st := store.New()
	for i := 0; i < 20000; i++ {
		s := IRI(fmt.Sprintf("http://e/item%d", i))
		st.Add(Triple{S: s, P: "http://e/type", O: IRI("http://e/Item")})
		st.Add(Triple{S: s, P: "http://e/val", O: NewInteger(int64(i))})
		if i%1000 == 0 {
			st.Add(Triple{S: s, P: "http://e/special", O: NewLiteral("yes")})
		}
	}
	st.Compact()
	return st
}

func joinBench(b *testing.B, q string) {
	st := joinStore(b)
	parsed, err := sparql.Parse(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sparql.EvalCtx(context.Background(), st, parsed, sparql.Options{})
		if err != nil || len(res.Rows) != 20 {
			b.Fatalf("rows=%d err=%v", len(res.Rows), err)
		}
	}
}

func BenchmarkAblationJoinSelectiveFirst(b *testing.B) {
	joinBench(b, `SELECT ?s ?v WHERE {
  ?s <http://e/special> "yes" .
  ?s <http://e/type> <http://e/Item> .
  ?s <http://e/val> ?v . }`)
}

func BenchmarkAblationJoinSelectiveLast(b *testing.B) {
	joinBench(b, `SELECT ?s ?v WHERE {
  ?s <http://e/type> <http://e/Item> .
  ?s <http://e/val> ?v .
  ?s <http://e/special> "yes" . }`)
}

// Ablation 4 — HETree fan-out: overview latency at degree 2 vs 16.

func hetreeDegreeBench(b *testing.B, degree int) {
	rng := rand.New(rand.NewSource(5))
	items := make([]hetree.Item, 500000)
	for i := range items {
		items[i] = hetree.Item{Value: rng.NormFloat64() * 1000}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := hetree.New(items, hetree.Options{Degree: degree, LeafCapacity: 64, Incremental: true})
		if err != nil {
			b.Fatal(err)
		}
		tr.LevelFor(256)
	}
}

func BenchmarkAblationHETreeDegree2(b *testing.B)  { hetreeDegreeBench(b, 2) }
func BenchmarkAblationHETreeDegree16(b *testing.B) { hetreeDegreeBench(b, 16) }

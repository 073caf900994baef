// Ablation benchmarks for two design choices: join-order robustness (the
// planner's selectivity reordering) and hierarchy fan-out.
package lodviz

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/lodviz/lodviz/internal/hetree"
	"github.com/lodviz/lodviz/internal/sparql"
	"github.com/lodviz/lodviz/internal/store"
)

// Ablation 1 — join-order robustness: the engine's selectivity reordering
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

// Ablation 2 — HETree fan-out: overview latency at degree 2 vs 16.

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

// Benchmarks of the serving core: HETree construction (E5), store load and
// pattern matching (E12), the BGP join engine (E13) and streaming LIMIT
// pushdown. The E numbers name the workloads the survey's experiments
// measure; `make bench-regression` judges the join, store-load and
// streaming ones against the merge base (cmd/benchharness).
package lodviz

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/hetree"
	"github.com/lodviz/lodviz/internal/sparql"
	"github.com/lodviz/lodviz/internal/store"
)

// E5 — HETree construction.

func e5Items(n int) []hetree.Item {
	rng := rand.New(rand.NewSource(5))
	items := make([]hetree.Item, n)
	for i := range items {
		items[i] = hetree.Item{Value: rng.NormFloat64() * 1000}
	}
	return items
}

func BenchmarkE5HETreeFull(b *testing.B) {
	items := e5Items(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hetree.New(items, hetree.Options{Degree: 4, LeafCapacity: 32}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5HETreeIncremental(b *testing.B) {
	items := e5Items(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := hetree.New(items, hetree.Options{Degree: 4, LeafCapacity: 32, Incremental: true})
		if err != nil {
			b.Fatal(err)
		}
		// One drill-down path.
		n := tr.Root()
		for {
			cs := tr.Children(n)
			if cs == nil {
				break
			}
			n = cs[0]
		}
	}
}

// E12 — substrate throughput.

func BenchmarkE12StoreLoad(b *testing.B) {
	triples := gen.EntityDataset(gen.EntityOptions{
		Entities: 10000, NumericProps: 2, CategoryProps: 1, LinkProps: 1, Seed: 12,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Load(triples); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(triples)), "triples/op")
}

func BenchmarkE12PatternMatch(b *testing.B) {
	st, _ := store.Load(gen.EntityDataset(gen.EntityOptions{
		Entities: 10000, NumericProps: 2, CategoryProps: 1, LinkProps: 1, Seed: 12,
	}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.ForEach(store.Pattern{S: gen.Res("entity", i%10000)}, func(Triple) bool { return true })
	}
}

// E13 — parallel BGP join engine: the same multi-pattern join evaluated
// sequentially and by the worker-pool pipeline, over ≥100k generated triples.

func bgpJoinStore(b *testing.B) *store.Store {
	b.Helper()
	triples := gen.EntityDataset(gen.EntityOptions{
		Entities: 20000, NumericProps: 2, CategoryProps: 2, LinkProps: 1, Seed: 13,
	})
	if len(triples) < 100000 {
		b.Fatalf("dataset too small: %d triples", len(triples))
	}
	st, err := store.Load(triples)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

func bgpJoinQuery(b *testing.B) *sparql.Query {
	b.Helper()
	q := fmt.Sprintf(`SELECT ?e ?o ?v WHERE { ?e <%s> "category-2" . ?e <%s> ?o . ?o <%s> ?v . }`,
		string(gen.Prop("cat0")), string(gen.Prop("rel0")), string(gen.Prop("num0")))
	parsed, err := sparql.Parse(q)
	if err != nil {
		b.Fatal(err)
	}
	return parsed
}

func benchBGPJoin(b *testing.B, parallelism int) {
	st := bgpJoinStore(b)
	parsed := bgpJoinQuery(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sparql.EvalCtx(context.Background(), st, parsed, sparql.Options{Parallelism: parallelism})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkBGPJoinSequential(b *testing.B) { benchBGPJoin(b, 1) }

func BenchmarkBGPJoinParallel(b *testing.B) { benchBGPJoin(b, 0) }

// BenchmarkBGPJoinParallel4 pins the pool at 4 workers for machines where
// NumCPU is large enough that scheduling noise dominates.
func BenchmarkBGPJoinParallel4(b *testing.B) { benchBGPJoin(b, 4) }

// optionalQuery is the shape the worker pool pays on: an OPTIONAL over the
// entities of one category, which evalOptional fans out per chunk of
// bindings — on the paged source, page by page, so the pages under
// parallelThreshold rows run inline. The plain joins above run id-merge,
// which never enters the pool.
func optionalQuery() string {
	return fmt.Sprintf(`SELECT ?e ?o ?v WHERE { ?e <%s> "category-2" OPTIONAL { ?e <%s> ?o . ?o <%s> ?v } }`,
		string(gen.Prop("cat0")), string(gen.Prop("rel0")), string(gen.Prop("num0")))
}

func BenchmarkBGPOptionalSequential(b *testing.B) {
	benchBGPJoinOpts(b, optionalQuery(), sparql.Options{Parallelism: 1})
}

func BenchmarkBGPOptionalParallel(b *testing.B) {
	benchBGPJoinOpts(b, optionalQuery(), sparql.Options{})
}

// E13b — the pattern executor on two join shapes, isolated at Parallelism 1
// so the numbers measure the executor, not the pool. The CI
// bench-regression job judges both against the merge base.

func benchBGPJoinOpts(b *testing.B, query string, opt sparql.Options) {
	st := bgpJoinStore(b)
	parsed, err := sparql.Parse(query)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sparql.EvalCtx(context.Background(), st, parsed, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// boundPQuery is the bound-predicate case: both patterns scan a full
// predicate range and equi-join on subject AND category value, so all 20k
// entities flow through the join but only ~1/8 survive the value equality.
// The intermediates stay uint32 rows; only the survivors are decoded.
func boundPQuery() string {
	return fmt.Sprintf(`SELECT ?e ?c WHERE { ?e <%s> ?c . ?e <%s> ?c . }`,
		string(gen.Prop("cat0")), string(gen.Prop("cat1")))
}

// boundOQuery is the bound-object case: a POS-access entry on one category
// value, a link hop, and a bound-object re-check on the link target —
// intermediate fan-out with a small surviving set.
func boundOQuery() string {
	return fmt.Sprintf(`SELECT ?e ?o WHERE { ?e <%s> "category-2" . ?e <%s> ?o . ?o <%s> "category-2" . }`,
		string(gen.Prop("cat0")), string(gen.Prop("rel0")), string(gen.Prop("cat0")))
}

func BenchmarkBGPJoinBoundPIDs(b *testing.B) {
	benchBGPJoinOpts(b, boundPQuery(), sparql.Options{Parallelism: 1})
}

func BenchmarkBGPJoinBoundOIDs(b *testing.B) {
	benchBGPJoinOpts(b, boundOQuery(), sparql.Options{Parallelism: 1})
}

// E14 — streaming LIMIT pushdown: a first-page exploration query
// (LIMIT 10) over a BGP with >100k solutions, which stops scanning after 10
// solutions, beside the same query without its LIMIT, which pages through
// all of them and collects every row into Results (the "Materialized"
// benchmark keeps its name; its query no longer takes the materialized
// source). The first one's cost scales with the limit, not the dataset —
// expect several orders of magnitude between the two.

func limitPushdownStore(b *testing.B) *store.Store {
	b.Helper()
	// One value triple per entity: the single-pattern BGP below has
	// exactly `entities` solutions.
	const entities = 120000
	triples := make([]Triple, 0, entities)
	for i := 0; i < entities; i++ {
		triples = append(triples, Triple{
			S: IRI(fmt.Sprintf("http://bench/e%d", i)),
			P: "http://bench/value",
			O: NewInteger(int64(i)),
		})
	}
	st, err := store.Load(triples)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

func benchLimitPushdown(b *testing.B, modifiers string, want int) {
	st := limitPushdownStore(b)
	parsed, err := sparql.Parse(`SELECT ?s ?v WHERE { ?s <http://bench/value> ?v }` + modifiers)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sparql.EvalCtx(context.Background(), st, parsed, sparql.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != want {
			b.Fatalf("got %d rows, want %d", len(res.Rows), want)
		}
	}
}

func BenchmarkLimitPushdownMaterialized(b *testing.B) { benchLimitPushdown(b, ``, 120000) }

func BenchmarkLimitPushdownStreamed(b *testing.B) { benchLimitPushdown(b, ` LIMIT 10`, 10) }

// BenchmarkLimitPushdownOrderByTopK: ORDER BY ?v LIMIT 10 over the same
// store — the full scan is unavoidable, but the bounded heap replaces the
// 120k-row sort (O(n log k) comparisons, O(k) sort memory).
func BenchmarkLimitPushdownOrderByTopK(b *testing.B) {
	benchLimitPushdown(b, ` ORDER BY DESC(?v) LIMIT 10`, 10)
}

func BenchmarkE12SPARQLJoin(b *testing.B) {
	st, _ := store.Load(gen.EntityDataset(gen.EntityOptions{
		Entities: 5000, NumericProps: 1, CategoryProps: 1, LinkProps: 1, Seed: 12,
	}))
	q := fmt.Sprintf(`SELECT ?c (COUNT(?e) AS ?n) WHERE { ?e <%s> ?c . ?e <%s> ?v . } GROUP BY ?c`,
		string(gen.Prop("cat0")), string(gen.Prop("num0")))
	parsed, err := sparql.Parse(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sparql.EvalCtx(context.Background(), st, parsed, sparql.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

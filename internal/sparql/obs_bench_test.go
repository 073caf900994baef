package sparql

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/obs"
	"github.com/lodviz/lodviz/internal/store"
)

// BenchmarkObsOverhead measures what the observability layer costs on the
// hot BGP path: the three-pattern chain join with full engine metrics
// attached beside the same join bare (nil Metrics, nil Trace = the NoObs
// configuration). Each iteration runs both, the first of them swapped from
// one iteration to the next, so machine-state drift (thermal, cache
// pressure) hits both sides alike. overhead-x is instrumented time over
// bare time; `make bench-obs` holds its median to 1.05 — metric flushes
// are amortized per chunk/page precisely so this ceiling holds.
func BenchmarkObsOverhead(b *testing.B) {
	st, err := store.Load(gen.EntityDataset(gen.EntityOptions{
		Entities: 20000, NumericProps: 2, CategoryProps: 2, LinkProps: 1, Seed: 13,
	}))
	if err != nil {
		b.Fatal(err)
	}
	chain, err := Parse(fmt.Sprintf(`SELECT ?e ?o ?v WHERE { ?e <%s> "category-2" . ?e <%s> ?o . ?o <%s> ?v . }`,
		string(gen.Prop("cat0")), string(gen.Prop("rel0")), string(gen.Prop("num0"))))
	if err != nil {
		b.Fatal(err)
	}
	sides := [2]Options{
		{Parallelism: 1},
		{Parallelism: 1, Metrics: NewMetrics(obs.NewRegistry())},
	}
	// The first evaluation over a fresh store fills lazy state (about ten
	// times the cost of a later one); leave it out of both sides.
	for _, opt := range sides {
		if _, err := EvalCtx(context.Background(), st, chain, opt); err != nil {
			b.Fatal(err)
		}
	}
	var spent [2]time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 2; k++ {
			side := (i + k) % 2
			start := time.Now()
			if _, err := EvalCtx(context.Background(), st, chain, sides[side]); err != nil {
				b.Fatal(err)
			}
			spent[side] += time.Since(start)
		}
	}
	b.ReportMetric(float64(spent[1])/float64(spent[0]), "overhead-x")
}

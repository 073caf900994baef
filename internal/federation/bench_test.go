package federation

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/sparql"
)

// benchFixture builds a remote endpoint holding n entities with names, and
// n local bindings referencing them.
func benchFixture(b *testing.B, n int) (string, *sparql.Group, []sparql.Binding) {
	b.Helper()
	var ttl strings.Builder
	ttl.WriteString("@prefix ex: <http://example.org/> .\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&ttl, "ex:e%d ex:name \"entity %d\" .\n", i, i)
	}
	remote := mustStore(b, ttl.String())
	peer := sparqlEndpoint(b, remote, nil)

	q, err := sparql.Parse(`SELECT * WHERE { ?e <http://example.org/name> ?n }`)
	if err != nil {
		b.Fatal(err)
	}
	bindings := make([]sparql.Binding, n)
	for i := range bindings {
		bindings[i] = sparql.Binding{"e": rdf.IRI(fmt.Sprintf("http://example.org/e%d", i))}
	}
	return peer.URL, q.Where, bindings
}

// BenchmarkBindJoin contrasts the two federated join strategies at 1k local
// bindings: batched VALUES dispatch (the bind join, 64 rows per request)
// versus one request per binding. The batched form must win by the
// per-request overhead factor — this is the measurement behind the
// federation layer's batching default.
func BenchmarkBindJoin(b *testing.B) {
	const n = 1000
	run := func(b *testing.B, batchSize, parallel int) {
		url, pattern, bindings := benchFixture(b, n)
		// The fetch bypasses the mesh's result cache: every iteration must
		// pay the real network cost.
		fetch := func(ctx context.Context, query string) ([]sparql.Binding, error) {
			res, err := queryEndpoint(ctx, url, query)
			if err != nil {
				return nil, err
			}
			return res.Rows, nil
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows, err := bindJoin(context.Background(), fetch, pattern, bindings, batchSize, parallel)
			if err != nil {
				b.Fatal(err)
			}
			if len(rows) != n {
				b.Fatalf("rows = %d, want %d", len(rows), n)
			}
		}
		b.ReportMetric(float64(n)/float64(batchSize), "requests/op")
	}
	b.Run("Batched64", func(b *testing.B) { run(b, 64, batchesInFlight) })
	b.Run("PerBinding", func(b *testing.B) { run(b, 1, batchesInFlight) })
}

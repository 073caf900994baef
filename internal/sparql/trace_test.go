package sparql

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"github.com/lodviz/lodviz/internal/explain"
	"github.com/lodviz/lodviz/internal/obs"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// traceStore is a tiny hand-checkable dataset: e1,e2 carry cat "c1", the
// link chain is e1→e2→e3, and every entity has a num value.
func traceStore(t *testing.T) *store.Store {
	t.Helper()
	e := func(i int) rdf.IRI { return rdf.IRI("http://x/e" + string(rune('0'+i))) }
	st, err := store.Load([]rdf.Triple{
		{S: e(1), P: "http://x/cat", O: rdf.NewLiteral("c1")},
		{S: e(2), P: "http://x/cat", O: rdf.NewLiteral("c1")},
		{S: e(3), P: "http://x/cat", O: rdf.NewLiteral("c2")},
		{S: e(1), P: "http://x/num", O: rdf.NewInteger(1)},
		{S: e(2), P: "http://x/num", O: rdf.NewInteger(2)},
		{S: e(3), P: "http://x/num", O: rdf.NewInteger(3)},
		{S: e(1), P: "http://x/link", O: e(2)},
		{S: e(2), P: "http://x/link", O: e(3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	st.Compact()
	return st
}

const traceQuery = `SELECT ?a ?b ?v WHERE { ?a <http://x/cat> "c1" . ?a <http://x/link> ?b . ?b <http://x/num> ?v }`

// TestTraceGolden pins the span structure for a 3-pattern BGP on each
// source. Paged: the scanned pattern's paged-scan span, then one span per
// pattern joined to its pages, in plan order. Materialized (the same
// patterns under DISTINCT, which the paged source refuses): a scan-cross
// seed, then two merge joins. Durations are zeroed; everything else — span
// nesting, pattern order after planning, strategies, per-pattern row and
// page counts — must match byte for byte.
func TestTraceGolden(t *testing.T) {
	st := traceStore(t)
	const plan = `{"name":"plan","detail":"?a <http://x/cat> \"c1\" . ?a <http://x/link> ?b . ?b <http://x/num> ?v","durationMicros":0},`
	const head = `{"root":{"name":"query","durationMicros":0,"children":[` +
		`{"name":"parse","durationMicros":0},`
	for _, tc := range []struct{ q, want string }{
		{traceQuery, head +
			`{"name":"execute","strategy":"streamed","rowsOut":2,"durationMicros":0,"children":[` + plan +
			`{"name":"pattern","detail":"?a <http://x/cat> \"c1\"","strategy":"paged-scan","rowsIn":1,"rowsOut":2,"pages":1,"durationMicros":0},` +
			`{"name":"pattern","detail":"?a <http://x/link> ?b","strategy":"id-merge","rowsIn":2,"rowsOut":2,"pages":1,"durationMicros":0},` +
			`{"name":"pattern","detail":"?b <http://x/num> ?v","strategy":"id-merge","rowsIn":2,"rowsOut":2,"pages":1,"durationMicros":0}]}]}}`},
		{strings.Replace(traceQuery, "SELECT", "SELECT DISTINCT", 1), head +
			`{"name":"execute","strategy":"materialized","rowsOut":2,"durationMicros":0,"children":[` + plan +
			`{"name":"pattern","detail":"?a <http://x/cat> \"c1\"","strategy":"id-cross","rowsIn":1,"rowsOut":2,"durationMicros":0},` +
			`{"name":"pattern","detail":"?a <http://x/link> ?b","strategy":"id-merge","rowsIn":2,"rowsOut":2,"durationMicros":0},` +
			`{"name":"pattern","detail":"?b <http://x/num> ?v","strategy":"id-merge","rowsIn":2,"rowsOut":2,"durationMicros":0}]}]}}`},
	} {
		tr := explain.NewTrace()
		res, err := ExecCtx(context.Background(), st, tc.q, Options{Parallelism: 1, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		if len(res.Rows) != 2 {
			t.Fatalf("%s: rows = %d, want 2", tc.q, len(res.Rows))
		}
		tr.ZeroDurations()
		var sb strings.Builder
		enc := json.NewEncoder(&sb)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(tr); err != nil {
			t.Fatal(err)
		}
		if got := strings.TrimSuffix(sb.String(), "\n"); got != tc.want {
			t.Errorf("%s: trace mismatch\n got: %s\nwant: %s", tc.q, got, tc.want)
		}
	}
}

// TestTraceRowCountsMatchResults cross-checks the trace against the
// executed plan on a larger differential dataset: the final pattern span's
// rowsOut must equal the result row count, and every span's rowsIn must be
// the previous span's rowsOut. The second query's patterns after the BIND
// are evaluated once per page of the scan; each still has one span, which
// every page adds to.
func TestTraceRowCountsMatchResults(t *testing.T) {
	st := idJoinStore(t)
	for _, q := range []string{
		`SELECT ?e ?o ?v WHERE { ?e <http://x/cat> "c2" . ?e <http://x/link> ?o . ?o <http://x/num> ?v }`,
		`SELECT ?e ?o ?v WHERE { ?e <http://x/cat> "c2" . BIND(1 AS ?k) ?e <http://x/link> ?o . ?o <http://x/num> ?v }`,
	} {
		tr := explain.NewTrace()
		res, err := ExecCtx(context.Background(), st, q, Options{Parallelism: 1, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		var pats []*explain.Span
		var walk func(s *explain.Span)
		walk = func(s *explain.Span) {
			if s.Name == "pattern" {
				pats = append(pats, s)
			}
			for _, c := range s.Children {
				walk(c)
			}
		}
		walk(tr.Root())
		if len(pats) != 3 {
			t.Fatalf("%s: %d pattern spans, want 3", q, len(pats))
		}
		for i := 1; i < len(pats); i++ {
			if pats[i].RowsIn != pats[i-1].RowsOut {
				t.Errorf("%s: span %d rowsIn %d != prior rowsOut %d", q, i, pats[i].RowsIn, pats[i-1].RowsOut)
			}
		}
		if last := pats[len(pats)-1]; last.RowsOut != len(res.Rows) {
			t.Errorf("%s: final span rowsOut %d != result rows %d", q, last.RowsOut, len(res.Rows))
		}
		if s := tr.Summary(); s == "" {
			t.Errorf("%s: empty trace summary", q)
		}
	}
}

// TestEngineMetrics drives the materialized source (a DISTINCT the paged
// source refuses) and the paged one, checking the counters move where
// expected.
func TestEngineMetrics(t *testing.T) {
	st := traceStore(t)
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	distinct := strings.Replace(traceQuery, "SELECT", "SELECT DISTINCT", 1)
	if _, err := ExecCtx(context.Background(), st, distinct, Options{Parallelism: 1, Metrics: met}); err != nil {
		t.Fatal(err)
	}
	if met.RunsIDJoin.Value() == 0 {
		t.Error("RunsIDJoin did not move")
	}
	if met.QueriesMaterialized.Value() != 1 {
		t.Errorf("QueriesMaterialized = %d, want 1", met.QueriesMaterialized.Value())
	}
	if met.RowsOut.Value() == 0 || met.MatchesScanned.Value() == 0 {
		t.Errorf("RowsOut=%d MatchesScanned=%d, want > 0", met.RowsOut.Value(), met.MatchesScanned.Value())
	}
	if _, err := ExecCtx(context.Background(), st, `SELECT ?s WHERE { ?s <http://x/cat> "c1" } LIMIT 1`, Options{Parallelism: 1, Metrics: met}); err != nil {
		t.Fatal(err)
	}
	if met.QueriesStreamed.Value() != 1 {
		t.Errorf("QueriesStreamed = %d, want 1", met.QueriesStreamed.Value())
	}
	if met.PushdownHits.Value() != 1 {
		t.Errorf("PushdownHits = %d, want 1", met.PushdownHits.Value())
	}
	if met.PagesScanned.Value() == 0 {
		t.Error("PagesScanned did not move")
	}
	if _, err := ExecUpdateCtx(context.Background(), st, `INSERT DATA { <http://x/e9> <http://x/cat> "c9" }`, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ExecUpdateCtx(t.Context(), st, `INSERT DATA { <http://x/e8> <http://x/cat> "c8" }`, Options{Metrics: met}); err != nil {
		t.Fatal(err)
	}
	if met.Updates.Value() != 1 {
		t.Errorf("Updates = %d, want 1", met.Updates.Value())
	}
}

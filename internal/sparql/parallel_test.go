package sparql

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/store"
)

func parallelStore(t testing.TB, entities int) *store.Store {
	t.Helper()
	st, err := store.Load(gen.EntityDataset(gen.EntityOptions{
		Entities: entities, NumericProps: 2, CategoryProps: 2, LinkProps: 1, Seed: 41,
	}))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

const parallelJoinQueryFmt = `SELECT ?e ?o ?v WHERE { ?e <%s> "category-2" . ?e <%s> ?o . ?o <%s> ?v . }`

func parallelJoinQuery() string {
	return fmt.Sprintf(parallelJoinQueryFmt, string(gen.Prop("cat0")), string(gen.Prop("rel0")), string(gen.Prop("num0")))
}

// rowsEqual requires identical rows in identical order — the parallel
// engine's determinism guarantee is stronger than multiset equality.
func rowsEqual(a, b *Results) bool {
	if !reflect.DeepEqual(a.Vars, b.Vars) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if !reflect.DeepEqual(a.Rows[i], b.Rows[i]) {
			return false
		}
	}
	return true
}

// The parallel path must return exactly the sequential path's rows, in the
// sequential path's order, at every worker count.
func TestParallelMatchesSequential(t *testing.T) {
	st := parallelStore(t, 2000)
	parsed, err := Parse(parallelJoinQuery())
	if err != nil {
		t.Fatal(err)
	}
	seq, err := EvalCtx(context.Background(), st, parsed, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Rows) < parallelThreshold {
		t.Fatalf("only %d rows; dataset too small to engage the pool", len(seq.Rows))
	}
	for _, workers := range []int{0, 2, 3, 8, 64} {
		par, err := EvalCtx(context.Background(), st, parsed, Options{Parallelism: workers})
		if err != nil {
			t.Fatalf("Parallelism=%d: %v", workers, err)
		}
		if !rowsEqual(seq, par) {
			t.Errorf("Parallelism=%d: rows differ from sequential (seq=%d par=%d)",
				workers, len(seq.Rows), len(par.Rows))
		}
	}
}

// Repeated parallel runs of the same query must be byte-identical — the
// determinism the index-sequenced merge exists to provide. Run under -race
// this also exercises the concurrent probe paths.
func TestParallelDeterministic(t *testing.T) {
	st := parallelStore(t, 2000)
	parsed, err := Parse(parallelJoinQuery())
	if err != nil {
		t.Fatal(err)
	}
	first, err := EvalCtx(context.Background(), st, parsed, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run < 5; run++ {
		again, err := EvalCtx(context.Background(), st, parsed, Options{Parallelism: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !rowsEqual(first, again) {
			t.Fatalf("run %d differs from run 0", run)
		}
	}
}

// OPTIONAL's per-binding left joins also fan out; results must match the
// sequential evaluation exactly.
func TestParallelOptionalMatchesSequential(t *testing.T) {
	st := parallelStore(t, 1000)
	q := fmt.Sprintf(`SELECT ?e ?v WHERE { ?e <%s> ?c . OPTIONAL { ?e <%s> ?v . } }`,
		string(gen.Prop("cat0")), string(gen.Prop("num1")))
	parsed, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := EvalCtx(context.Background(), st, parsed, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := EvalCtx(context.Background(), st, parsed, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !rowsEqual(seq, par) {
		t.Errorf("OPTIONAL rows differ: seq=%d par=%d", len(seq.Rows), len(par.Rows))
	}
}

// Aggregation over the parallel pipeline: GROUP BY consumes the solution
// stream, so any ordering slip upstream shows up as unstable group rows.
func TestParallelGroupByStable(t *testing.T) {
	st := parallelStore(t, 2000)
	q := fmt.Sprintf(`SELECT ?c (COUNT(?e) AS ?n) WHERE { ?e <%s> ?c . ?e <%s> ?v . } GROUP BY ?c ORDER BY ?c`,
		string(gen.Prop("cat0")), string(gen.Prop("num0")))
	seq, err := ExecCtx(context.Background(), st, q, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ExecCtx(context.Background(), st, q, Options{Parallelism: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !rowsEqual(seq, par) {
		t.Errorf("grouped rows differ: seq=%v par=%v", seq.Rows, par.Rows)
	}
}

// The three shapes above in every store state, against the term-space
// oracle, through EvalCtx and Stream.Run.
func TestParallelShapesAgainstOracle(t *testing.T) {
	triples := gen.EntityDataset(gen.EntityOptions{
		Entities: 600, NumericProps: 2, CategoryProps: 2, LinkProps: 1, Seed: 41,
	})
	queries := []string{
		parallelJoinQuery(),
		fmt.Sprintf(`SELECT ?e ?v WHERE { ?e <%s> ?c . OPTIONAL { ?e <%s> ?v . } }`,
			string(gen.Prop("cat0")), string(gen.Prop("num1"))),
		fmt.Sprintf(`SELECT ?c (COUNT(?e) AS ?n) WHERE { ?e <%s> ?c . ?e <%s> ?v . } GROUP BY ?c ORDER BY ?c`,
			string(gen.Prop("cat0")), string(gen.Prop("num0"))),
	}
	for _, state := range storeStates(t, triples) {
		for i, q := range queries {
			t.Run(fmt.Sprintf("%s/%d", state.name, i), func(t *testing.T) {
				checkAgainstOracle(t, state.st, q)
			})
		}
	}
}

// identityChunks runs the pool over n integers with the identity function
// and returns them joined: the pool's tiling made visible.
func identityChunks(e *engine, n int, fn func(lo, hi int) ([]int, error)) ([]int, error) {
	parts, err := parChunks(e, n, -1, nil, fn)
	return slices.Concat(parts...), err
}

func span(lo, hi int) ([]int, error) {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out, nil
}

// Pool plumbing: chunk boundaries must tile the input exactly once, in
// order, for sizes around the threshold and chunking arithmetic edges.
func TestParChunksTilesInput(t *testing.T) {
	for _, n := range []int{0, 1, parallelThreshold - 1, parallelThreshold, 33, 100, 257, 1024} {
		e := newEngine(nil, nil, Options{Parallelism: 4})
		out, err := identityChunks(e, n, span)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(out) != n {
			t.Fatalf("n=%d: got %d outputs", n, len(out))
		}
		for i, v := range out {
			if v != i {
				t.Fatalf("n=%d: output %d out of order", n, i)
			}
		}
	}
}

// Errors from any chunk must surface, and the lowest-indexed chunk's error
// wins so error identity is deterministic.
func TestParChunksPropagatesFirstError(t *testing.T) {
	e := newEngine(nil, nil, Options{Parallelism: 4})
	errBoom := errors.New("boom")
	_, err := identityChunks(e, 256, func(lo, hi int) ([]int, error) {
		if lo != 0 {
			return nil, fmt.Errorf("late error %d", lo)
		}
		return nil, errBoom
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want first chunk's error", err)
	}
}

// Nested fan-out (OPTIONAL chunks whose inner groups fan out again) must not
// deadlock on the shared worker budget, and must preserve order.
func TestParChunksNestedBudget(t *testing.T) {
	e := newEngine(nil, nil, Options{Parallelism: 4})
	out, err := identityChunks(e, 512, func(lo, hi int) ([]int, error) {
		inner, err := identityChunks(e, hi-lo, span)
		for i := range inner {
			inner[i] += lo
		}
		return inner, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 512 {
		t.Fatalf("got %d outputs, want 512", len(out))
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("output %d out of order", i)
		}
	}
}

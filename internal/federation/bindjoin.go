package federation

import (
	"context"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/sparql"
)

// The bind join is the workhorse of federated evaluation. Shipping one
// remote request per local binding drowns in per-request latency; shipping
// the bare pattern and joining locally transfers the remote relation in
// full. The bind join batches the *distinct projections* of the local
// bindings onto the pattern's variables into a VALUES block, so each remote
// request answers for a whole batch and transfers only the rows that can
// join.
//
// Correct multiset semantics need one refinement: a remote solution can be
// compatible with several VALUES rows (UNDEF entries make this common), and
// on the way back we must know which local bindings each returned row may
// merge with. Each VALUES row therefore carries a synthetic ordinal column —
// the batch key — that the remote join propagates untouched; at merge time a
// returned row joins exactly the local bindings whose projection produced
// that ordinal. The result is precisely eval(pattern) ⋈ bindings, each pair
// contributing once.

// batchRows is the number of VALUES rows one remote request carries.
const batchRows = 64

// batchesInFlight is how many batch requests one SERVICE evaluation keeps in
// flight.
const batchesInFlight = 4

// fetchFunc executes one remote subquery and returns its decoded rows.
type fetchFunc func(ctx context.Context, query string) ([]sparql.Binding, error)

// bindJoin evaluates pattern remotely via fetch and joins the results with
// the local bindings, dispatching batched VALUES subqueries with at most
// parallel in flight.
func bindJoin(ctx context.Context, fetch fetchFunc, pattern *sparql.Group, bindings []sparql.Binding, batchSize, parallel int) ([]sparql.Binding, error) {
	if len(bindings) == 0 {
		return nil, nil
	}
	shared := sharedVars(pattern, bindings)
	patternText := sparql.FormatGroup(pattern)

	// Project each binding onto the shared vars; identical projections
	// share a VALUES row (and therefore remote work).
	rows, keyOf := projectDistinct(bindings, shared)

	var queries []string
	if len(shared) == 0 {
		// Nothing to inject: one uncorrelated remote evaluation.
		queries = []string{"SELECT * WHERE { " + patternText + " }"}
	} else {
		keyVar := freshKeyVar(pattern, shared)
		for lo := 0; lo < len(rows); lo += batchSize {
			hi := lo + batchSize
			if hi > len(rows) {
				hi = len(rows)
			}
			queries = append(queries, batchQuery(patternText, shared, keyVar, rows[lo:hi], lo))
		}
	}

	batchRows, err := fetchAll(ctx, fetch, queries, parallel)
	if err != nil {
		return nil, err
	}

	// Group returned rows by their batch key (everything under key 0 when
	// nothing was injected). The rows may be shared with the mesh's result
	// cache, so they are never mutated here — the ordinal column is
	// skipped at merge time instead of deleted.
	byKey := make(map[int][]sparql.Binding)
	var keyVar string
	if len(shared) == 0 {
		byKey[0] = batchRows[0]
	} else {
		keyVar = freshKeyVar(pattern, shared)
		for _, rs := range batchRows {
			for _, row := range rs {
				k, ok := rowKey(row, keyVar)
				if !ok {
					continue // a row without its ordinal cannot be attributed
				}
				byKey[k] = append(byKey[k], row)
			}
		}
	}

	// Merge: each local binding joins the remote rows returned for its
	// projection's ordinal.
	var out []sparql.Binding
	for i, b := range bindings {
		for _, remote := range byKey[keyOf[i]] {
			if merged, ok := mergeBindings(b, remote, keyVar); ok {
				out = append(out, merged)
			}
		}
	}
	return out, nil
}

// sharedVars returns the sorted intersection of the variables the pattern
// certainly binds with the variables bound by at least one local binding —
// the columns safe and worth injecting. Only *certainly* bound remote
// variables qualify: injecting a variable the remote pattern binds merely
// optionally would let the VALUES row itself survive (e.g. through an
// OPTIONAL unextended) and manufacture solutions spec SERVICE semantics
// does not produce.
func sharedVars(pattern *sparql.Group, bindings []sparql.Binding) []string {
	bound := map[string]bool{}
	for _, b := range bindings {
		for v := range b {
			bound[v] = true
		}
	}
	var shared []string
	for _, v := range sparql.CertainVars(pattern) {
		if bound[v] {
			shared = append(shared, v)
		}
	}
	sort.Strings(shared)
	return shared
}

// projectDistinct projects every binding onto vars, deduplicating identical
// projections. It returns the distinct rows (nil entries = UNDEF) and, for
// each input binding, the index of its row.
//
// Blank-node values project to UNDEF: the SPARQL 1.1 grammar forbids blank
// nodes in VALUES data (a standards-compliant endpoint would reject the
// subquery), and a document-scoped label is not a constraint a remote
// endpoint could honor anyway. The unconstrained remote rows come back a
// superset, and the merge-time compatibility check keeps exactly the ones
// that agree with the local bnode binding.
func projectDistinct(bindings []sparql.Binding, vars []string) ([][]rdf.Term, []int) {
	keyOf := make([]int, len(bindings))
	if len(vars) == 0 {
		return nil, keyOf // every binding projects to the empty row, key 0
	}
	seen := map[string]int{}
	var rows [][]rdf.Term
	var sig strings.Builder
	for i, b := range bindings {
		sig.Reset()
		row := make([]rdf.Term, len(vars))
		for j, v := range vars {
			if t, ok := b[v]; ok && t.Kind() != rdf.KindBlank {
				row[j] = t
				sig.WriteString(t.String())
			}
			sig.WriteByte('|')
		}
		k, ok := seen[sig.String()]
		if !ok {
			k = len(rows)
			seen[sig.String()] = k
			rows = append(rows, row)
		}
		keyOf[i] = k
	}
	return rows, keyOf
}

// freshKeyVar picks the ordinal column name, avoiding collision with any
// pattern or shared variable. The name must not start with '_' (the engine
// hides such columns from SELECT *), and the choice is deterministic so the
// generated query text — and with it the result-cache key — is stable.
func freshKeyVar(pattern *sparql.Group, shared []string) string {
	taken := map[string]bool{}
	for _, v := range sparql.BindableVars(pattern) {
		taken[v] = true
	}
	for _, v := range shared {
		taken[v] = true
	}
	name := "lodvizBJK"
	for taken[name] {
		name += "x"
	}
	return name
}

// batchQuery renders one remote subquery: the VALUES block carrying this
// batch's projections (each row tagged with its global ordinal) joined with
// the pattern.
func batchQuery(patternText string, shared []string, keyVar string, rows [][]rdf.Term, firstKey int) string {
	var b strings.Builder
	b.WriteString("SELECT * WHERE { VALUES (")
	for _, v := range shared {
		b.WriteString("?" + v + " ")
	}
	b.WriteString("?" + keyVar + ") { ")
	for i, row := range rows {
		b.WriteString("(")
		for _, t := range row {
			if t == nil {
				b.WriteString("UNDEF ")
			} else {
				b.WriteString(t.String() + " ")
			}
		}
		b.WriteString(strconv.Itoa(firstKey+i) + ") ")
	}
	b.WriteString("} ")
	b.WriteString(patternText)
	b.WriteString(" }")
	return b.String()
}

// fetchAll runs the subqueries with at most parallel in flight, returning
// per-query row slices in query order. The first error cancels the rest.
func fetchAll(ctx context.Context, fetch fetchFunc, queries []string, parallel int) ([][]sparql.Binding, error) {
	results := make([][]sparql.Binding, len(queries))
	if len(queries) == 1 {
		rows, err := fetch(ctx, queries[0])
		if err != nil {
			return nil, err
		}
		results[0] = rows
		return results, nil
	}
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for i, q := range queries {
		select {
		case sem <- struct{}{}:
		case <-gctx.Done():
		}
		if gctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(i int, q string) {
			defer wg.Done()
			defer func() { <-sem }()
			rows, err := fetch(gctx, q)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
					cancel()
				}
				return
			}
			results[i] = rows
		}(i, q)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// rowKey extracts the batch ordinal from a returned row.
func rowKey(row sparql.Binding, keyVar string) (int, bool) {
	t, ok := row[keyVar]
	if !ok {
		return 0, false
	}
	l, ok := t.(rdf.Literal)
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimSpace(l.Lexical))
	if err != nil {
		return 0, false
	}
	return n, true
}

// mergeBindings joins a local binding with a remote row under SPARQL
// compatibility: vars bound on both sides must agree, the rest union. The
// remote row is never read-modified (it may be shared via the result
// cache); the synthetic ordinal column skipVar is left out of the merge.
func mergeBindings(local, remote sparql.Binding, skipVar string) (sparql.Binding, bool) {
	out := make(sparql.Binding, len(local)+len(remote))
	for k, v := range local {
		out[k] = v
	}
	for k, v := range remote {
		if k == skipVar && skipVar != "" {
			continue
		}
		if prev, ok := out[k]; ok {
			if prev != v {
				return nil, false
			}
			continue
		}
		out[k] = v
	}
	return out, true
}

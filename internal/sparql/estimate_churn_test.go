package sparql

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// countingIDSource records which ID-space access path the executor takes:
// ScanIDs (merge joins and scan-crosses) vs ForEachID (per-binding probes).
type countingIDSource struct {
	*store.Store
	scans  atomic.Int64
	probes atomic.Int64
}

func (c *countingIDSource) ScanIDs(s, p, o store.ID, lead store.Position) (store.IDRun, bool) {
	c.scans.Add(1)
	return c.Store.ScanIDs(s, p, o, lead)
}

func (c *countingIDSource) ForEachID(s, p, o store.ID, fn func(store.IDTriple) bool) {
	c.probes.Add(1)
	c.Store.ForEachID(s, p, o, fn)
}

// inflatingIDSource reproduces the pre-fix estimator: EstimateCountIDs as if
// tombstones were ignored (base range + delta, deletions invisible).
type inflatingIDSource struct {
	*countingIDSource
	inflate int
}

func (c *inflatingIDSource) EstimateCountIDs(s, p, o store.ID) int {
	return c.Store.EstimateCountIDs(s, p, o) + c.inflate
}

// churnedStore builds a store where one predicate has been almost entirely
// deleted without triggering a compaction: 90k base triples, <http://x/val>
// on 10,000 entities, then 9,900 of those deleted — tombstones stay under
// the len(spo)/8 merge threshold, so the planner sees base ranges that are
// 100× the live count unless the estimator subtracts tombstones.
func churnedStore(t testing.TB) *store.Store {
	t.Helper()
	const entities = 20000
	const valued = 10000
	const liveVals = 100
	ent := func(i int) rdf.IRI { return rdf.IRI(fmt.Sprintf("http://x/e%d", i)) }
	triples := make([]rdf.Triple, 0, 4*entities+valued+4)
	for i := 0; i < entities; i++ {
		for f := 0; f < 4; f++ {
			triples = append(triples, rdf.Triple{
				S: ent(i),
				P: rdf.IRI(fmt.Sprintf("http://x/filler%d", f)),
				O: rdf.NewInteger(int64(i)),
			})
		}
	}
	for i := 0; i < valued; i++ {
		triples = append(triples, rdf.Triple{S: ent(i), P: "http://x/val", O: rdf.NewInteger(int64(i))})
	}
	for i := 0; i < 4; i++ {
		triples = append(triples, rdf.Triple{S: ent(i), P: "http://x/pick", O: rdf.NewLiteral("yes")})
	}
	st, err := store.Load(triples)
	if err != nil {
		t.Fatal(err)
	}
	st.Compact()

	doomed := make([]rdf.Triple, 0, valued-liveVals)
	for i := liveVals; i < valued; i++ {
		doomed = append(doomed, rdf.Triple{S: ent(i), P: "http://x/val", O: rdf.NewInteger(int64(i))})
	}
	n, err := st.DeleteBatch(doomed)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(doomed) {
		t.Fatalf("DeleteBatch removed %d, want %d", n, len(doomed))
	}
	return st
}

// TestEstimateCountSubtractsTombstones pins the estimator itself, as the
// planner reaches it: constants through the engine's term→ID memo, then
// EstimateCountIDs.
func TestEstimateCountSubtractsTombstones(t *testing.T) {
	st := churnedStore(t)
	e := newEngine(context.Background(), st, Options{Parallelism: 1})
	v := Node{Var: "x"}
	val := Node{Term: rdf.IRI("http://x/val")}
	if got := e.estimate(TriplePattern{S: v, P: val, O: v}); got != 100 {
		t.Errorf("estimate(?s val ?o) = %d, want 100 (10000 base - 9900 tombstones)", got)
	}
	// A fully bound estimate of a tombstoned triple is zero, not one.
	dead := TriplePattern{S: Node{Term: rdf.IRI("http://x/e5000")}, P: val, O: Node{Term: rdf.NewInteger(5000)}}
	if got := e.estimate(dead); got != 0 {
		t.Errorf("estimate(tombstoned triple) = %d, want 0", got)
	}
	// And so is one with a constant the dictionary has never seen.
	if got := e.estimate(TriplePattern{S: v, P: Node{Term: rdf.IRI("http://x/never")}, O: v}); got != 0 {
		t.Errorf("estimate(absent predicate) = %d, want 0", got)
	}
}

// TestIDJoinDeleteChurnFlipsStrategy is the planner-level regression: after
// the delete churn, the 4-row join against the val predicate must take the
// merge path (100 live ≤ 4 rows × mergeScanFactor), not per-row probes sized
// for the 10,000 pre-delete triples. The inflating wrapper replays the old
// tombstone-blind estimate and proves the strategy choice rides on it.
func TestIDJoinDeleteChurnFlipsStrategy(t *testing.T) {
	st := churnedStore(t)
	const q = `SELECT ?e ?v WHERE { ?e <http://x/pick> "yes" . ?e <http://x/val> ?v }`

	fixed := &countingIDSource{Store: st}
	res, err := ExecCtx(context.Background(), fixed, q, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(res.Rows))
	}
	// The first pattern (all-fresh ?e) is one ForEachID scan-cross by design;
	// the val pattern must NOT add per-binding probes on top of it.
	if got := fixed.probes.Load(); got > 1 {
		t.Errorf("tombstone-aware estimate probed %d times; want the merge path (≤1 scan-cross)", got)
	}
	if fixed.scans.Load() == 0 {
		t.Error("merge path never called ScanIDs")
	}

	// Same query, same store, pre-fix estimate: the planner overcounts the
	// churned predicate 100× and falls back to probing per binding.
	inflated := &inflatingIDSource{countingIDSource: &countingIDSource{Store: st}, inflate: 9900}
	if _, err := ExecCtx(context.Background(), inflated, q, Options{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	if got, base := inflated.probes.Load(), fixed.probes.Load(); got < base+4 {
		t.Errorf("tombstone-blind estimate probed %d times (fixed path: %d); regression test lost its teeth", got, base)
	}

	// Differential: the chosen strategy must not change the answer.
	if d := firstDiff(oracleExec(t, st, q).Rows, res.Rows); d != "" {
		t.Errorf("merge-path rows differ from the oracle's: %s", d)
	}
}

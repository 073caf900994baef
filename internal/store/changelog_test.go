package store

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
)

// decode turns a logged batch back into terms, for comparison with what the
// test wrote.
func decode(t *testing.T, st *Store, d *Digest) []rdf.Triple {
	t.Helper()
	out := make([]rdf.Triple, len(d.triples))
	for i, e := range d.triples {
		ts := st.Terms([]ID{e.S, e.P, e.O})
		out[i] = rdf.Triple{S: ts[0], P: ts[1].(rdf.IRI), O: ts[2]}
	}
	return out
}

func sameBatch(got, want []rdf.Triple) bool {
	if len(got) != len(want) {
		return false
	}
	seen := map[rdf.Triple]int{}
	for _, g := range got {
		seen[g]++
	}
	for _, w := range want {
		if seen[w]--; seen[w] < 0 {
			return false
		}
	}
	return true
}

func TestChangeLogHoldsOnlyEffectiveTriplesInApplyOrder(t *testing.T) {
	st := New()
	a, b, c := tr("a", "p", "o"), tr("b", "p", "o"), tr("c", "p", "o")

	steps := []struct {
		del   bool
		batch []rdf.Triple
		want  []rdf.Triple // the effective subset; nil = a no-op
	}{
		{false, []rdf.Triple{a, b}, []rdf.Triple{a, b}},
		{false, []rdf.Triple{a, b, c, c}, []rdf.Triple{c}}, // duplicates and in-batch repeats drop out
		{false, []rdf.Triple{a}, nil},
		{true, []rdf.Triple{b, tr("x", "p", "o")}, []rdf.Triple{b}}, // absent triples drop out
		{true, []rdf.Triple{b}, nil},
		{false, []rdf.Triple{b}, []rdf.Triple{b}}, // an undelete is a change
	}
	var wantLog []struct {
		del     bool
		triples []rdf.Triple
	}
	for i, step := range steps {
		before := st.Generation()
		var err error
		if step.del {
			_, err = st.DeleteBatch(step.batch)
		} else {
			_, err = st.AddBatch(step.batch)
		}
		if err != nil {
			t.Fatal(err)
		}
		if step.want == nil {
			if st.Generation() != before {
				t.Fatalf("step %d: a no-op batch moved the generation", i)
			}
			continue
		}
		if st.Generation() != before+1 {
			t.Fatalf("step %d: generation %d -> %d, want one step", i, before, st.Generation())
		}
		wantLog = append(wantLog, struct {
			del     bool
			triples []rdf.Triple
		}{step.del, step.want})
	}

	changes, now, ok := st.DigestsSince(0)
	if !ok || now != st.Generation() {
		t.Fatalf("DigestsSince(0) = ok %v, now %d; generation is %d", ok, now, st.Generation())
	}
	if len(changes) != len(wantLog) {
		t.Fatalf("log holds %d batches, want %d (no-ops must not be logged)", len(changes), len(wantLog))
	}
	for i, c := range changes {
		if c.Gen != uint64(i+1) || c.del != wantLog[i].del || !sameBatch(decode(t, st, c), wantLog[i].triples) {
			t.Errorf("batch %d = gen %d delete %v %v, want gen %d delete %v %v",
				i, c.Gen, c.del, decode(t, st, c), i+1, wantLog[i].del, wantLog[i].triples)
		}
	}

	// A suffix, the empty suffix, and a generation not reached yet.
	if tail, _, ok := st.DigestsSince(now - 1); !ok || len(tail) != 1 || tail[0] != changes[len(changes)-1] {
		t.Errorf("DigestsSince(now-1) = %v, ok %v", tail, ok)
	}
	if tail, _, ok := st.DigestsSince(now); !ok || len(tail) != 0 {
		t.Errorf("DigestsSince(now) = %v, ok %v; want nothing, ok", tail, ok)
	}
	if _, _, ok := st.DigestsSince(now + 1); ok {
		t.Error("DigestsSince vouched for a generation the store has not reached")
	}

	// Compaction changes layout, not content: nothing is logged.
	st.Compact()
	if after, _, _ := st.DigestsSince(0); len(after) != len(changes) {
		t.Errorf("Compact logged a change")
	}
}

func TestChangeLogOverrun(t *testing.T) {
	st := New()
	if _, err := st.AddBatch([]rdf.Triple{tr("seed", "p", "o")}); err != nil {
		t.Fatal(err)
	}
	batch := func(round, n int) []rdf.Triple {
		ts := make([]rdf.Triple, n)
		for i := range ts {
			ts[i] = tr(fmt.Sprintf("s%d-%d", round, i), "p", "o")
		}
		return ts
	}
	// Batches that together exceed the budget push the oldest out.
	per := changeLogBudget / 4
	for round := 0; round < 5; round++ {
		if _, err := st.AddBatch(batch(round, per)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := st.DigestsSince(1); ok {
		t.Error("log vouched for a span whose oldest batches it dropped")
	}
	changes, now, ok := st.DigestsSince(st.Generation() - 2)
	if !ok || len(changes) != 2 || changes[1].Gen != now {
		t.Errorf("recent span: %d batches, ok %v; want the last 2", len(changes), ok)
	}
	total := 0
	for from := uint64(0); from <= now; from++ {
		if cs, _, ok := st.DigestsSince(from); ok {
			for _, c := range cs {
				total += len(c.triples)
			}
			break
		}
	}
	if total > changeLogBudget {
		t.Errorf("log retains %d triples, budget %d", total, changeLogBudget)
	}

	// One batch larger than the whole budget is not retained at all, and
	// the span across it cannot be served.
	before := now
	if _, err := st.AddBatch(batch(99, changeLogBudget+1)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := st.DigestsSince(before); ok {
		t.Error("log vouched for a span containing a batch over its budget")
	}
	if cs, _, ok := st.DigestsSince(before + 1); !ok || len(cs) != 0 {
		t.Errorf("after the oversized batch: %d batches, ok %v; want up to date", len(cs), ok)
	}
	// The log recovers: the next small write is served again.
	if err := st.Add(tr("after", "p", "o")); err != nil {
		t.Fatal(err)
	}
	if cs, _, ok := st.DigestsSince(before + 1); !ok || len(cs) != 1 {
		t.Errorf("after recovery: %d batches, ok %v; want 1", len(cs), ok)
	}
}

func TestChangeLogAfterSnapshotRestore(t *testing.T) {
	st := New()
	for i := 0; i < 3; i++ {
		if err := st.Add(tr(fmt.Sprintf("s%d", i), "p", "o")); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The image arrived whole: the restored store cannot say what led up to
	// its first generation, only what happens after it.
	if _, _, ok := restored.DigestsSince(0); ok {
		t.Error("restored store vouched for changes from before the snapshot")
	}
	gen := restored.Generation()
	if cs, _, ok := restored.DigestsSince(gen); !ok || len(cs) != 0 {
		t.Errorf("restored store at its own generation: %d batches, ok %v", len(cs), ok)
	}
	if err := restored.Add(tr("later", "p", "o")); err != nil {
		t.Fatal(err)
	}
	cs, _, ok := restored.DigestsSince(gen)
	if !ok || len(cs) != 1 || !sameBatch(decode(t, restored, cs[0]), []rdf.Triple{tr("later", "p", "o")}) {
		t.Errorf("write after restore: %v, ok %v", cs, ok)
	}
}

// TestStatementsIsLayoutIndependent pins the read a change-log follower
// makes: the live triples of the named subjects (all subjects when none is
// named), in one order whether they sit in the base index, the delta buffer
// or behind tombstones.
func TestStatementsIsLayoutIndependent(t *testing.T) {
	st := New()
	var base []rdf.Triple
	for s := 0; s < 5; s++ {
		for o := 0; o < 4; o++ {
			base = append(base, tr(fmt.Sprintf("s%d", s), fmt.Sprintf("p%d", o%2), fmt.Sprintf("o%d", o)))
		}
	}
	if _, err := st.AddBatch(base); err != nil {
		t.Fatal(err)
	}
	st.Compact()
	// Delta entries out of subject order, a tombstone over the base and one
	// over the delta.
	for _, x := range []rdf.Triple{tr("s3", "p0", "late"), tr("s1", "p1", "late"), tr("s1", "p0", "gone")} {
		if err := st.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	st.Delete(tr("s1", "p0", "gone"))
	st.Delete(tr("s3", "p0", "o0"))

	id := func(name string) ID {
		v, ok := st.LookupTermID(iri(name))
		if !ok {
			t.Fatalf("no ID for %s", name)
		}
		return v
	}
	for _, subjects := range [][]ID{nil, {id("s1")}, {id("s3"), id("s1"), id("s3")}, {id("o0")}} {
		want := map[IDTriple]bool{}
		st.ForEachID(0, 0, 0, func(x IDTriple) bool {
			for _, s := range subjects {
				if x.S == s {
					want[x] = true
				}
			}
			if subjects == nil {
				want[x] = true
			}
			return true
		})
		before := st.Statements(subjects...)
		if len(before) != len(want) {
			t.Fatalf("Statements(%v) returned %d triples, want %d", subjects, len(before), len(want))
		}
		for i, x := range before {
			if !want[x] {
				t.Fatalf("Statements(%v) returned %v, which is not live for those subjects", subjects, x)
			}
			if i > 0 && !OrderSPO.Less(before[i-1], x) {
				t.Fatalf("Statements(%v) not in strict SPO order at %d", subjects, i)
			}
		}
		st.Compact()
		if after := st.Statements(subjects...); !slices.Equal(before, after) {
			t.Fatalf("Statements(%v) changed across compaction:\n%v\n%v", subjects, before, after)
		}
	}
}

// TestDigestsSinceSharesDigests: the log hands every caller its own digests,
// not copies — two followers of one span hold the same pointers, and a longer
// span starts with the ones a shorter span was handed.
func TestDigestsSinceSharesDigests(t *testing.T) {
	st := New()
	for i := 0; i < 3; i++ {
		if err := st.Add(tr(fmt.Sprintf("s%d", i), "p", "o")); err != nil {
			t.Fatal(err)
		}
	}
	a, _, okA := st.DigestsSince(1)
	b, _, okB := st.DigestsSince(1)
	if !okA || !okB || len(a) != 2 || !slices.Equal(a, b) {
		t.Fatalf("two callers of one span: %p ok %v, %p ok %v; want the same two digests", a, okA, b, okB)
	}
	whole, _, _ := st.DigestsSince(0)
	if len(whole) != 3 || !slices.Equal(whole[1:], a) {
		t.Fatalf("the longer span does not share the shorter one's digests")
	}
}

// TestChangeLogWritesBuildNoDigest: a write only logs its batch; the sets are
// built when DigestsSince first reaches a batch, and only for the batches it
// reaches.
func TestChangeLogWritesBuildNoDigest(t *testing.T) {
	st := New()
	for i := 0; i < 4; i++ {
		if _, err := st.AddBatch([]rdf.Triple{tr(fmt.Sprintf("s%d", i), "p", "o"), tr("x", "p", fmt.Sprint(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.DeleteBatch([]rdf.Triple{tr("x", "p", "0")}); err != nil {
		t.Fatal(err)
	}
	built := func() (n int) {
		for _, d := range st.log.entries {
			if d.s != nil {
				n++
			}
		}
		return n
	}
	if n := built(); n != 0 {
		t.Fatalf("%d of %d logged batches were digested with nobody asking", n, len(st.log.entries))
	}
	if _, _, ok := st.DigestsSince(3); !ok || built() != 2 {
		t.Fatalf("DigestsSince(3) built %d digests, want the 2 it reached", built())
	}
	if _, _, ok := st.DigestsSince(0); !ok || built() != 5 {
		t.Fatalf("DigestsSince(0) left %d of 5 digests built", built())
	}
}

// TestDigestsSinceFollowersBesideOverrunningWriter: followers ask for and
// test spans while a writer pushes batches through the log faster than it
// retains them. Half the followers keep up; the other half hold on to their
// generation until the log drops it. Every span is consecutive from the
// follower's generation to the one returned, and a Patterns footprint is
// answered exactly for the predicate the writer uses and for one it never
// does. Run under -race.
func TestDigestsSinceFollowersBesideOverrunningWriter(t *testing.T) {
	st := New()
	if _, err := st.AddBatch([]rdf.Triple{tr("seed", "p", "o"), tr("seed", "q", "o")}); err != nil {
		t.Fatal(err)
	}
	p, _ := st.LookupTermID(iri("p"))
	q, _ := st.LookupTermID(iri("q"))
	written := Footprint{Patterns: []IDTriple{{P: p}}}
	quiet := Footprint{Patterns: []IDTriple{{P: q}}}
	members := Footprint{Entities: []IDTriple{{P: q}}}

	const batches, per = 24, changeLogBudget / 8
	done := make(chan struct{})
	var wg sync.WaitGroup
	var overruns, spans [4]int
	for f := range overruns {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			gen, lags := uint64(1), f%2 == 1
			for {
				select {
				case <-done:
					return
				default:
				}
				span, now, ok := st.DigestsSince(gen)
				if !ok {
					overruns[f]++
					gen = now
					continue
				}
				for i, d := range span {
					if d.Gen != gen+1+uint64(i) || len(d.Subjects()) == 0 {
						t.Errorf("follower %d: digest %d of the span from %d has generation %d and %d subjects", f, i, gen, d.Gen, len(d.Subjects()))
						return
					}
				}
				if len(span) > 0 && (!st.TouchedBy(&written, span) || st.TouchedBy(&quiet, span)) {
					t.Errorf("follower %d: span %d..%d: predicate the writer uses touched %v, the one it never uses %v",
						f, gen, now, st.TouchedBy(&written, span), st.TouchedBy(&quiet, span))
					return
				}
				st.TouchedBy(&members, span)
				spans[f]++
				if !lags {
					gen = now
				}
			}
		}(f)
	}
	for round := 0; round < batches; round++ {
		ts := make([]rdf.Triple, per)
		for i := range ts {
			ts[i] = tr(fmt.Sprintf("w%d-%d", round, i), "p", "o")
		}
		if _, err := st.AddBatch(ts); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if _, _, ok := st.DigestsSince(1); ok {
		t.Fatal("the writer did not overrun the log")
	}
	t.Logf("spans followed %v, overruns %v", spans, overruns)
}

package explore

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

func linkedStore(t *testing.T) *store.Store {
	t.Helper()
	triples := gen.EntityDataset(gen.EntityOptions{
		Entities: 60, Classes: 3, CategoryProps: 1, Categories: 4, LinkProps: 2, Seed: 5,
	})
	st, err := store.Load(triples)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// termNeighborhood is the oracle: a breadth-first search over the term graph
// of the whole store, with every statement between two resources an
// undirected edge (literal objects are never nodes). It returns the nodes
// within hops of start, start included.
func termNeighborhood(st *store.Store, start rdf.Term, hops int) map[rdf.Term]bool {
	adj := map[rdf.Term][]rdf.Term{}
	st.ForEach(store.Pattern{}, func(tr rdf.Triple) bool {
		if tr.O.Kind() != rdf.KindLiteral {
			adj[tr.S] = append(adj[tr.S], tr.O)
			adj[tr.O] = append(adj[tr.O], tr.S)
		}
		return true
	})
	reached := map[rdf.Term]bool{start: true}
	frontier := []rdf.Term{start}
	for h := 0; h < hops; h++ {
		var next []rdf.Term
		for _, n := range frontier {
			for _, m := range adj[n] {
				if !reached[m] {
					reached[m] = true
					next = append(next, m)
				}
			}
		}
		frontier = next
	}
	return reached
}

// TestNeighborhoodMatchesGraphOracle checks the ID-space BFS against a BFS
// over the term graph: the reached node set must be identical, every
// returned edge must be a live statement between reached resources, and in
// exact mode the edge set must be the full induced subgraph.
func TestNeighborhoodMatchesGraphOracle(t *testing.T) {
	st := linkedStore(t)
	ctx := context.Background()
	for _, hops := range []int{1, 2} {
		for i := 0; i < 5; i++ {
			start := gen.Res("entity", i)
			nb, err := FindNeighborhood(ctx, st, start, NeighborhoodOptions{Hops: hops})
			if err != nil {
				t.Fatalf("hops=%d start=%s: %v", hops, start, err)
			}
			if len(nb.Nodes) == 0 || !reflect.DeepEqual(nb.Nodes[0], rdf.Term(start)) {
				t.Fatalf("hops=%d start=%s: Nodes[0] = %v, want the start node", hops, start, nb.Nodes)
			}
			if nb.Sampled || nb.Coverage != 1 {
				t.Fatalf("exact traversal reported sampled=%v coverage=%v", nb.Sampled, nb.Coverage)
			}

			want := termNeighborhood(st, start, hops)
			got := map[rdf.Term]bool{}
			for _, n := range nb.Nodes {
				if got[n] {
					t.Fatalf("duplicate node %v", n)
				}
				got[n] = true
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("hops=%d start=%s: node set has %d nodes, oracle has %d", hops, start, len(got), len(want))
			}

			// Every edge is a live statement between reached nodes…
			for _, e := range nb.Edges {
				tr := rdf.Triple{S: nb.Nodes[e.From], P: e.Pred, O: nb.Nodes[e.To]}
				if !st.Contains(tr) {
					t.Fatalf("edge %v is not a statement in the store", tr)
				}
			}
			// …and exact mode returns the complete induced subgraph.
			induced := 0
			st.ForEach(store.Pattern{}, func(tr rdf.Triple) bool {
				if tr.O.Kind() != rdf.KindLiteral && got[tr.S] && got[tr.O] {
					induced++
				}
				return true
			})
			if len(nb.Edges) != induced {
				t.Fatalf("hops=%d start=%s: %d edges, induced subgraph has %d", hops, start, len(nb.Edges), induced)
			}
		}
	}
}

func TestNeighborhoodNotFound(t *testing.T) {
	st := linkedStore(t)
	ctx := context.Background()
	cases := []rdf.Term{
		nil,
		rdf.NewLiteral("just text"),
		rdf.IRI("http://nowhere/else"),
		gen.Prop("cat0"), // in the dictionary, but never a subject or object
	}
	for _, start := range cases {
		if _, err := FindNeighborhood(ctx, st, start, NeighborhoodOptions{Hops: 1}); err != ErrNodeNotFound {
			t.Fatalf("start=%v: err = %v, want ErrNodeNotFound", start, err)
		}
	}
}

// starStore wires one hub to n leaves (half outgoing, half incoming) plus a
// couple of literal statements that count toward the hub's fan-out.
func starStore(t *testing.T, n int) (*store.Store, rdf.IRI) {
	t.Helper()
	hub := rdf.IRI("http://x/hub")
	var triples []rdf.Triple
	for i := 0; i < n; i++ {
		leaf := rdf.IRI(fmt.Sprintf("http://x/leaf%d", i))
		if i%2 == 0 {
			triples = append(triples, rdf.Triple{S: hub, P: "http://x/out", O: leaf})
		} else {
			triples = append(triples, rdf.Triple{S: leaf, P: "http://x/in", O: hub})
		}
	}
	triples = append(triples,
		rdf.Triple{S: hub, P: rdf.RDFSLabel, O: rdf.NewLiteral("hub")},
		rdf.Triple{S: hub, P: "http://x/size", O: rdf.NewInteger(int64(n))},
	)
	st, err := store.Load(triples)
	if err != nil {
		t.Fatal(err)
	}
	return st, hub
}

func TestNeighborhoodSamplingDeterministic(t *testing.T) {
	st, hub := starStore(t, 100)
	ctx := context.Background()
	opt := NeighborhoodOptions{Hops: 1, Sample: 8, Seed: 3}
	nb1, err := FindNeighborhood(ctx, st, hub, opt)
	if err != nil {
		t.Fatal(err)
	}
	nb2, err := FindNeighborhood(ctx, st, hub, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(nb1, nb2) {
		t.Fatal("same (sample, seed) produced different neighborhoods")
	}
	if !nb1.Sampled {
		t.Fatal("fan-out 102 with sample 8 should report Sampled")
	}
	if nb1.Coverage <= 0 || nb1.Coverage >= 1 {
		t.Fatalf("Coverage = %v, want in (0,1)", nb1.Coverage)
	}
	if nodes := len(nb1.Nodes) - 1; nodes > 8 {
		t.Fatalf("sampled expansion reached %d nodes, want <= 8", nodes)
	}
	for _, e := range nb1.Edges {
		tr := rdf.Triple{S: nb1.Nodes[e.From], P: e.Pred, O: nb1.Nodes[e.To]}
		if !st.Contains(tr) {
			t.Fatalf("sampled edge %v is not a statement in the store", tr)
		}
	}
}

func TestNeighborhoodSampleAboveFanoutIsExact(t *testing.T) {
	st, hub := starStore(t, 40)
	nb, err := FindNeighborhood(context.Background(), st, hub, NeighborhoodOptions{Hops: 1, Sample: 1000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if nb.Sampled || nb.Coverage != 1 {
		t.Fatalf("sample above fan-out reported sampled=%v coverage=%v", nb.Sampled, nb.Coverage)
	}
	if len(nb.Nodes) != 41 {
		t.Fatalf("reached %d nodes, want 41 (hub + 40 leaves, literals excluded)", len(nb.Nodes))
	}
}

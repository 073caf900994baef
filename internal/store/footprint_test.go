package store

import (
	"fmt"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
)

// footprintStore is a small typed dataset: e0..e3 of class A or B with a
// category and a link each, and loose, an untyped subject.
func footprintStore(t *testing.T) (*Store, func(string) ID) {
	t.Helper()
	st := New()
	var ts []rdf.Triple
	for i := 0; i < 4; i++ {
		e := rdf.IRI(fmt.Sprintf("e%d", i))
		ts = append(ts,
			rdf.T(e, rdf.RDFType, rdf.IRI([]string{"A", "B"}[i%2])),
			rdf.T(e, rdf.IRI("cat"), rdf.NewLiteral([]string{"x", "y"}[i/2])),
			rdf.T(e, rdf.IRI("link"), rdf.IRI(fmt.Sprintf("e%d", (i+1)%4))),
		)
	}
	ts = append(ts, rdf.T(rdf.IRI("loose"), rdf.IRI("note"), rdf.NewLiteral("n")))
	if _, err := st.AddBatch(ts); err != nil {
		t.Fatal(err)
	}
	id := func(s string) ID {
		t.Helper()
		for _, term := range []rdf.Term{rdf.IRI(s), rdf.NewLiteral(s)} {
			if id, ok := st.LookupTermID(term); ok {
				return id
			}
		}
		t.Fatalf("term %q not in the dictionary", s)
		return 0
	}
	return st, id
}

// digestsSince returns the digest of every change after gen.
func digestsSince(t *testing.T, st *Store, gen uint64) []*Digest {
	t.Helper()
	span, _, ok := st.DigestsSince(gen)
	if !ok {
		t.Fatalf("log does not cover the span since %d", gen)
	}
	return span
}

func TestFootprintRules(t *testing.T) {
	typ := rdf.RDFType
	add := func(s, p string, o rdf.Term) func(*Store) {
		return func(st *Store) {
			if n, err := st.AddBatch([]rdf.Triple{rdf.T(rdf.IRI(s), rdf.IRI(p), o)}); err != nil || n != 1 {
				panic(fmt.Sprint("add: ", n, err))
			}
		}
	}
	del := func(s, p string, o rdf.Term) func(*Store) {
		return func(st *Store) {
			if n, err := st.DeleteBatch([]rdf.Triple{rdf.T(rdf.IRI(s), rdf.IRI(p), o)}); err != nil || n != 1 {
				panic(fmt.Sprint("delete: ", n, err))
			}
		}
	}
	type fp func(id func(string) ID) Footprint
	patterns := func(masks ...[3]string) fp {
		return func(id func(string) ID) Footprint {
			var f Footprint
			for _, m := range masks {
				var t IDTriple
				if m[0] != "" {
					t.S = id(m[0])
				}
				if m[1] != "" {
					t.P = id(m[1])
				}
				if m[2] != "" {
					t.O = id(m[2])
				}
				f.Patterns = append(f.Patterns, t)
			}
			return f
		}
	}
	nodes := func(names ...string) fp {
		return func(id func(string) ID) Footprint {
			var f Footprint
			for _, n := range names {
				f.Nodes = append(f.Nodes, id(n))
			}
			f.Nodes = sortedSet(f.Nodes)
			return f
		}
	}
	// Typed subjects with cat=x: e0 and e1.
	entities := func(id func(string) ID) Footprint {
		return Footprint{Entities: []IDTriple{{P: id(string(typ))}, {P: id("cat"), O: id("x")}}}
	}
	typed := func(id func(string) ID) Footprint {
		return Footprint{Entities: []IDTriple{{P: id(string(typ))}}}
	}

	for _, tc := range []struct {
		name    string
		fp      fp
		writes  []func(*Store)
		touched bool
	}{
		{"whole store", func(func(string) ID) Footprint { return Footprint{} }, []func(*Store){add("loose", "note", rdf.NewLiteral("m"))}, true},

		{"pattern: other predicate", patterns([3]string{"", "cat", ""}), []func(*Store){add("e0", "note", rdf.NewLiteral("m"))}, false},
		{"pattern: the predicate", patterns([3]string{"", "cat", ""}), []func(*Store){add("loose", "cat", rdf.NewLiteral("z"))}, true},
		{"pattern: pair, other object", patterns([3]string{"", "cat", "x"}), []func(*Store){add("loose", "cat", rdf.NewLiteral("y"))}, false},
		{"pattern: pair", patterns([3]string{"", "cat", "x"}), []func(*Store){add("loose", "cat", rdf.NewLiteral("x"))}, true},
		{"pattern: subject, other subject", patterns([3]string{"e0", "", ""}), []func(*Store){add("e1", "note", rdf.NewLiteral("m"))}, false},
		{"pattern: subject", patterns([3]string{"e0", "", ""}), []func(*Store){add("e0", "note", rdf.NewLiteral("m"))}, true},
		{"pattern: object as subject", patterns([3]string{"", "", "e0"}), []func(*Store){add("e0", "note", rdf.NewLiteral("m"))}, false},
		{"pattern: deleted match", patterns([3]string{"", "link", ""}), []func(*Store){del("e0", "link", rdf.IRI("e1"))}, true},
		{"pattern: second of two", patterns([3]string{"", "cat", ""}, [3]string{"", "note", ""}), []func(*Store){add("e0", "note", rdf.NewLiteral("m"))}, true},
		{"pattern: later change of a span", patterns([3]string{"", "cat", ""}), []func(*Store){
			add("e0", "note", rdf.NewLiteral("m")), add("e0", "cat", rdf.NewLiteral("z")), add("e1", "note", rdf.NewLiteral("m")),
		}, true},

		{"nodes: elsewhere", nodes("e0", "e1"), []func(*Store){add("e2", "link", rdf.IRI("e2"))}, false},
		{"nodes: from a node", nodes("e0", "e1"), []func(*Store){add("e1", "note", rdf.NewLiteral("m"))}, true},
		{"nodes: at a node", nodes("e0", "e1"), []func(*Store){add("loose", "link", rdf.IRI("e0"))}, true},
		{"nodes: last triple of a node", nodes("loose"), []func(*Store){del("loose", "note", rdf.NewLiteral("n"))}, true},

		{"entities: untyped subject", entities, []func(*Store){add("loose", "note", rdf.NewLiteral("m"))}, false},
		{"entities: fresh subject", entities, []func(*Store){add("fresh", "note", rdf.NewLiteral("m"))}, false},
		{"entities: typed non-member", entities, []func(*Store){add("e2", "note", rdf.NewLiteral("m"))}, false},
		{"entities: member", entities, []func(*Store){add("e1", "note", rdf.NewLiteral("m"))}, true},
		{"entities: member loses a statement", entities, []func(*Store){del("e0", "link", rdf.IRI("e1"))}, true},
		{"entities: new type", entities, []func(*Store){add("loose", string(typ), rdf.IRI("A"))}, true},
		{"entities: new filter pair", entities, []func(*Store){add("loose", "cat", rdf.NewLiteral("x"))}, true},
		{"entities: other value of the filter predicate", entities, []func(*Store){add("loose", "cat", rdf.NewLiteral("y"))}, false},
		{"entities: pointing at a member", entities, []func(*Store){add("loose", "link", rdf.IRI("e0"))}, false},
		{"entities: unfiltered, typed subject", typed, []func(*Store){add("e3", "note", rdf.NewLiteral("m"))}, true},
		{"entities: unfiltered, untyped subject", typed, []func(*Store){add("loose", "note", rdf.NewLiteral("m"))}, false},
		{"entities: member written, then the set moves", entities, []func(*Store){
			add("e0", "note", rdf.NewLiteral("m")), del("e0", string(typ), rdf.IRI("A")),
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, id := footprintStore(t)
			f := tc.fp(id)
			gen := st.Generation()
			for _, w := range tc.writes {
				w(st)
			}
			if got := st.TouchedBy(&f, digestsSince(t, st, gen)); got != tc.touched {
				t.Fatalf("touched = %v, want %v", got, tc.touched)
			}
			st.Compact() // layout does not enter into it
			if got := st.TouchedBy(&f, digestsSince(t, st, gen)); got != tc.touched {
				t.Fatalf("after Compact: touched = %v, want %v", got, tc.touched)
			}
		})
	}
}

// TestFootprintEntitiesReadingAfterTheSpan: membership is read off the store
// when a digest is first asked, so a span that ended before that reading
// cannot be cleared by it — a write in between may have moved the set. A
// reading made inside the span serves every later, longer span.
func TestFootprintEntitiesReadingAfterTheSpan(t *testing.T) {
	st, id := footprintStore(t)
	f := Footprint{Entities: []IDTriple{{P: id(string(rdf.RDFType))}}}
	gen := st.Generation()
	if _, err := st.AddBatch([]rdf.Triple{rdf.T(rdf.IRI("e0"), rdf.IRI("note"), rdf.NewLiteral("m"))}); err != nil {
		t.Fatal(err)
	}
	span := digestsSince(t, st, gen)
	// e0 stops being typed: read now, the change above names no member.
	if _, err := st.DeleteBatch([]rdf.Triple{rdf.T(rdf.IRI("e0"), rdf.RDFType, rdf.IRI("A"))}); err != nil {
		t.Fatal(err)
	}
	if !st.TouchedBy(&f, span) {
		t.Fatal("a reading made after the span's end cleared an Entities footprint")
	}
	p := Footprint{Patterns: []IDTriple{{P: id("cat")}}}
	if st.TouchedBy(&p, span) {
		t.Fatal("a Patterns footprint depends on nothing but the span")
	}
	if st.TouchedBy(&f, nil) {
		t.Fatal("an empty span touched a footprint")
	}

	// loose is untyped when the first span reads it, and typed later by a
	// change the longer span includes: the old reading is not consulted,
	// the type mask already says touched.
	gen = st.Generation()
	if _, err := st.AddBatch([]rdf.Triple{rdf.T(rdf.IRI("loose"), rdf.IRI("note"), rdf.NewLiteral("m"))}); err != nil {
		t.Fatal(err)
	}
	span = digestsSince(t, st, gen)
	if st.TouchedBy(&f, span) {
		t.Fatal("a write on an untyped subject touched the typed set")
	}
	if _, err := st.AddBatch([]rdf.Triple{rdf.T(rdf.IRI("e1"), rdf.IRI("note"), rdf.NewLiteral("m"))}); err != nil {
		t.Fatal(err)
	}
	longer := append(span, digestsSince(t, st, span[0].Gen)...)
	if !st.TouchedBy(&f, longer) {
		t.Fatal("a later write on a member went unnoticed behind a digest already read")
	}
}

func TestDigestSets(t *testing.T) {
	d := &Digest{Gen: 7, triples: []IDTriple{{1, 2, 3}, {1, 2, 4}, {5, 2, 3}, {1, 2, 3}}}
	d.build()
	if fmt.Sprint(d.Subjects(), d.p, d.o) != "[1 5] [2] [3 4]" || len(d.po) != 2 {
		t.Fatalf("sets = %v %v %v %v", d.Subjects(), d.p, d.o, d.po)
	}
	for _, tc := range []struct {
		m    IDTriple
		want bool
	}{
		{IDTriple{}, true},
		{IDTriple{S: 5}, true},
		{IDTriple{S: 6}, false},
		{IDTriple{P: 2, O: 4}, true},
		{IDTriple{P: 2, O: 9}, false},
		{IDTriple{P: 9, O: 3}, false},
		{IDTriple{O: 4}, true},
		// Positions are tested independently: (5,2,4) is not in the change,
		// but 5 is a subject of it and (2,4) a pair.
		{IDTriple{S: 5, P: 2, O: 4}, true},
	} {
		if got := d.matches(tc.m); got != tc.want {
			t.Errorf("matches(%v) = %v, want %v", tc.m, got, tc.want)
		}
	}
}

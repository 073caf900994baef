package explore

import (
	"context"
	"errors"
	"slices"
	"sort"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/sampling"
	"github.com/lodviz/lodviz/internal/store"
)

// ErrNodeNotFound reports that the requested start term does not occur as a
// resource node (subject or non-literal object) in the dataset.
var ErrNodeNotFound = errors.New("explore: node not found")

// NeighborhoodOptions controls FindNeighborhood.
type NeighborhoodOptions struct {
	// Hops is the BFS radius; values < 1 are treated as 1.
	Hops int
	// Sample, when > 0, bounds how many adjacent statements are expanded
	// per node: nodes whose fan-out exceeds it are expanded through a
	// seed-deterministic reservoir instead of exhaustively, and the result
	// reports the worst per-node coverage fraction. 0 expands everything.
	Sample int
	// Seed drives the reservoirs; the same seed over the same store
	// content yields the same sampled neighborhood regardless of visit
	// order.
	Seed int64
}

// NeighborEdge is one labelled edge between two nodes of a Neighborhood,
// referenced by index into Nodes.
type NeighborEdge struct {
	From int
	To   int
	Pred rdf.IRI
}

// Neighborhood is the k-hop subgraph around a start node.
type Neighborhood struct {
	// Nodes holds the start term first, then every other reached node in
	// ascending dictionary-ID order.
	Nodes []rdf.Term
	// IDs are the dictionary IDs of Nodes, index for index.
	IDs   []store.ID
	Edges []NeighborEdge
	// Coverage is the minimum fraction of adjacent statements expanded at
	// any visited node: 1 for exhaustive traversals, lower when sampling
	// truncated a huge-fanout node. Literal-valued statements count toward
	// the denominator.
	Coverage float64
	// Sampled reports whether any node was expanded through a reservoir.
	Sampled bool
}

// Footprint returns what finding the neighborhood read: statements whose
// subject or object is a reached node. The traversal expands reached nodes
// only, in both directions, and the edges it reports join two of them, so a
// triple with neither end in the set was never looked at and would not be
// if the traversal ran again.
func (nb *Neighborhood) Footprint() store.Footprint {
	nodes := slices.Clone(nb.IDs)
	slices.Sort(nodes)
	return store.Footprint{Nodes: nodes}
}

type edgeRec struct {
	from, to, pred store.ID
}

// kindCache remembers which dictionary IDs decode to resources (IRIs or
// blank nodes), batch-decoding unknowns so literal objects can be filtered
// without a per-triple Terms call.
type kindCache struct {
	src  store.Source
	kind map[store.ID]bool
}

func (kc *kindCache) fill(ids []store.ID) {
	var missing []store.ID
	for _, id := range ids {
		if _, ok := kc.kind[id]; !ok {
			missing = append(missing, id)
		}
	}
	if len(missing) == 0 {
		return
	}
	terms := kc.src.Terms(missing)
	for i, id := range missing {
		kc.kind[id] = terms[i] != nil && terms[i].Kind() != rdf.KindLiteral
	}
}

func (kc *kindCache) resource(id store.ID) bool { return kc.kind[id] }

// nodeSeed mixes the traversal seed with the node ID (splitmix64-style odd
// constant) so each node's reservoir is deterministic under any visit order.
func nodeSeed(seed int64, n store.ID) int64 {
	return seed ^ int64(n.Bits()*0x9E3779B97F4A7C15)
}

// FindNeighborhood BFS-expands the k-hop neighborhood of start directly over
// the store's ID permutations — no materialized graph is built, so the cost
// is proportional to the neighborhood, not the dataset. Out-edges come from
// the subject-bound run, in-edges from the object-bound run; literal objects
// are never nodes. With Sample > 0, huge-fanout nodes are expanded through
// per-node seeded reservoirs and the returned Coverage reports the worst
// truncation; with Sample == 0 the result is the exact induced subgraph over
// the reached node set (every statement between two reached resources).
func FindNeighborhood(ctx context.Context, src store.Source, start rdf.Term, opt NeighborhoodOptions) (*Neighborhood, error) {
	if start == nil || start.Kind() == rdf.KindLiteral {
		return nil, ErrNodeNotFound
	}
	sid, ok := src.LookupTermID(start)
	if !ok {
		return nil, ErrNodeNotFound
	}
	if src.EstimateCountIDs(sid, 0, 0) == 0 && src.EstimateCountIDs(0, 0, sid) == 0 {
		return nil, ErrNodeNotFound
	}
	hops := opt.Hops
	if hops < 1 {
		hops = 1
	}

	kc := &kindCache{src: src, kind: map[store.ID]bool{sid: true}}
	visited := map[store.ID]bool{sid: true}
	frontier := []store.ID{sid}
	coverage := 1.0
	sampled := false
	edgeSet := map[edgeRec]struct{}{}

	for depth := 0; depth < hops; depth++ {
		var next []store.ID
		for _, n := range frontier {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			recs, cov := expandNode(ctx, src, kc, n, opt)
			if cov < coverage {
				coverage = cov
			}
			if cov < 1 {
				sampled = true
			}
			for _, r := range recs {
				if opt.Sample > 0 {
					edgeSet[r] = struct{}{}
				}
				other := r.to
				if other == n {
					other = r.from
				}
				if !visited[other] {
					visited[other] = true
					next = append(next, other)
				}
			}
		}
		frontier = next
	}

	// Node list: start first, remaining reached nodes in ascending ID order.
	rest := make([]store.ID, 0, len(visited)-1)
	for id := range visited {
		if id != sid {
			rest = append(rest, id)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
	nodeIDs := append([]store.ID{sid}, rest...)
	index := make(map[store.ID]int, len(nodeIDs))
	for i, id := range nodeIDs {
		index[id] = i
	}

	if opt.Sample == 0 {
		// Exact induced subgraph: one subject-bound run per reached node
		// captures every statement between reached resources (set
		// membership already implies the object is a resource).
		for _, id := range nodeIDs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			src.ForEachID(id, 0, 0, func(t store.IDTriple) bool {
				if visited[t.O] {
					edgeSet[edgeRec{from: t.S, to: t.O, pred: t.P}] = struct{}{}
				}
				return true
			})
		}
	}

	edges := make([]edgeRec, 0, len(edgeSet))
	for r := range edgeSet {
		edges = append(edges, r)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		if edges[i].pred != edges[j].pred {
			return edges[i].pred < edges[j].pred
		}
		return edges[i].to < edges[j].to
	})

	// One batch decode for node terms and edge predicates.
	predIDs := make([]store.ID, len(edges))
	for i, e := range edges {
		predIDs[i] = e.pred
	}
	terms := src.Terms(append(append([]store.ID{}, nodeIDs...), predIDs...))
	nb := &Neighborhood{
		Nodes:    terms[:len(nodeIDs)],
		IDs:      nodeIDs,
		Edges:    make([]NeighborEdge, 0, len(edges)),
		Coverage: coverage,
		Sampled:  sampled,
	}
	for i, e := range edges {
		iri, ok := terms[len(nodeIDs)+i].(rdf.IRI)
		if !ok {
			continue
		}
		nb.Edges = append(nb.Edges, NeighborEdge{From: index[e.from], To: index[e.to], Pred: iri})
	}
	return nb, nil
}

// expandNode returns the resource-valued adjacent statements of n (both
// directions) and the fraction of its adjacency that was expanded. When the
// fan-out exceeds opt.Sample (> 0), a seed-deterministic reservoir picks
// which statements to follow; otherwise the expansion is exhaustive.
// Cancelling ctx stops the underlying runs early; the caller's own ctx
// check then discards the truncated result.
func expandNode(ctx context.Context, src store.Source, kc *kindCache, n store.ID, opt NeighborhoodOptions) ([]edgeRec, float64) {
	total := src.EstimateCountIDs(n, 0, 0) + src.EstimateCountIDs(0, 0, n)
	if opt.Sample > 0 && total > opt.Sample {
		res, _ := sampling.NewReservoir[edgeRec](opt.Sample, nodeSeed(opt.Seed, n))
		src.ForEachID(n, 0, 0, func(t store.IDTriple) bool {
			res.Add(edgeRec{from: t.S, to: t.O, pred: t.P})
			return ctx.Err() == nil
		})
		src.ForEachID(0, 0, n, func(t store.IDTriple) bool {
			if t.S != n { // self-loops already seen in the out direction
				res.Add(edgeRec{from: t.S, to: t.O, pred: t.P})
			}
			return ctx.Err() == nil
		})
		recs := filterResource(kc, res.Sample(), n)
		cov := float64(opt.Sample) / float64(res.Seen())
		if cov > 1 {
			cov = 1
		}
		return recs, cov
	}
	var recs []edgeRec
	src.ForEachID(n, 0, 0, func(t store.IDTriple) bool {
		recs = append(recs, edgeRec{from: t.S, to: t.O, pred: t.P})
		return ctx.Err() == nil
	})
	src.ForEachID(0, 0, n, func(t store.IDTriple) bool {
		if t.S != n {
			recs = append(recs, edgeRec{from: t.S, to: t.O, pred: t.P})
		}
		return ctx.Err() == nil
	})
	return filterResource(kc, recs, n), 1
}

// filterResource drops statements whose far endpoint from n is a literal.
func filterResource(kc *kindCache, recs []edgeRec, n store.ID) []edgeRec {
	ends := make([]store.ID, 0, len(recs))
	for _, r := range recs {
		if r.to != n {
			ends = append(ends, r.to)
		}
	}
	kc.fill(ends)
	out := recs[:0]
	for _, r := range recs {
		if r.to != n && !kc.resource(r.to) {
			continue
		}
		out = append(out, r)
	}
	return out
}

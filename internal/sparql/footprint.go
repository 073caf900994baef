package sparql

import (
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// Footprint returns what evaluating q against the local store reads: the
// union of its triple patterns anywhere in the group tree, variables as
// wildcards, constants resolved through dict. A changed triple that matches
// no pattern leaves every pattern's match set as it was, and the result is
// a function of those sets alone (filters, BIND and VALUES read no triples;
// the join order may differ after a change, which only shows where the
// query leaves order open).
//
// The whole store is returned when a constant is not in the dictionary —
// there is no ID to watch for, and a later write may introduce the term —
// and for any element this walker does not know, SERVICE among them.
func (q *Query) Footprint(dict interface {
	LookupTermID(rdf.Term) (store.ID, bool)
}) store.Footprint {
	var masks []store.IDTriple
	resolve := func(n Node) (store.ID, bool) {
		if n.IsVar() {
			return 0, true
		}
		return dict.LookupTermID(n.Term)
	}
	var walk func(g *Group) bool
	walk = func(g *Group) bool {
		for _, el := range g.Elems {
			switch el := el.(type) {
			case TriplePattern:
				s, okS := resolve(el.S)
				p, okP := resolve(el.P)
				o, okO := resolve(el.O)
				if !okS || !okP || !okO {
					return false
				}
				masks = append(masks, store.IDTriple{S: s, P: p, O: o})
			case Optional:
				if !walk(el.Inner) {
					return false
				}
			case SubGroup:
				if !walk(el.Inner) {
					return false
				}
			case Union:
				if !walk(el.Left) || !walk(el.Right) {
					return false
				}
			case Bind, Values:
			default:
				return false
			}
		}
		return true
	}
	if !walk(q.Where) {
		return store.Footprint{}
	}
	return store.Footprint{Patterns: masks}
}

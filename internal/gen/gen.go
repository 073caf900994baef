// Package gen produces the deterministic synthetic datasets lodviz's
// examples, tests and benchmarks run on. The module is offline and the
// paper's subject matter — live LOD endpoints like DBpedia — is unreachable
// by construction, so EntityDataset synthesizes a dataset with the same
// *shape*: typed entities with skewed numeric values, dates, categories and
// links. It takes an explicit seed; identical seeds give identical data.
// MiniLOD is the small hand-written demonstration dataset.
package gen

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/lodviz/lodviz/internal/rdf"
)

// NS is the namespace of all generated resources.
const NS = "http://lodviz.example.org/"

func res(kind string, i int) rdf.IRI {
	return rdf.IRI(fmt.Sprintf("%s%s/%d", NS, kind, i))
}

func prop(name string) rdf.IRI { return rdf.IRI(NS + "prop/" + name) }

// EntityOptions configure EntityDataset.
type EntityOptions struct {
	// Entities is the number of generated entities.
	Entities int
	// Classes is how many rdf:type classes to spread them over (Zipf-ish).
	Classes int
	// NumericProps / TemporalProps / CategoryProps count attribute
	// predicates per kind.
	NumericProps  int
	TemporalProps int
	CategoryProps int
	// Categories is the distinct-value count of each categorical property.
	Categories int
	// LinkProps adds object properties wiring entities together.
	LinkProps int
	Seed      int64
}

func (o *EntityOptions) normalize() {
	if o.Entities < 1 {
		o.Entities = 100
	}
	if o.Classes < 1 {
		o.Classes = 5
	}
	if o.Categories < 2 {
		o.Categories = 8
	}
}

// EntityDataset generates a DBpedia-like entity-attribute dataset: typed
// entities with labels, numeric values (log-normal-ish, skewed), temporal
// values, categorical values and random links.
func EntityDataset(opts EntityOptions) []rdf.Triple {
	opts.normalize()
	rng := rand.New(rand.NewSource(opts.Seed))
	var triples []rdf.Triple
	epoch := time.Date(1950, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < opts.Entities; i++ {
		e := res("entity", i)
		// Zipf-ish class assignment: class c with prob ~ 1/(c+1).
		cls := 0
		for cls < opts.Classes-1 && rng.Float64() > 0.5 {
			cls++
		}
		triples = append(triples,
			rdf.T(e, rdf.RDFType, res("class", cls)),
			rdf.T(e, rdf.RDFSLabel, rdf.NewLiteral(fmt.Sprintf("Entity %d of class %d", i, cls))),
		)
		for p := 0; p < opts.NumericProps; p++ {
			// Skewed positive values.
			v := rng.ExpFloat64() * 100 * float64(p+1)
			triples = append(triples, rdf.T(e, prop(fmt.Sprintf("num%d", p)), rdf.NewDouble(v)))
		}
		for p := 0; p < opts.TemporalProps; p++ {
			ts := epoch.Add(time.Duration(rng.Int63n(int64(time.Hour) * 24 * 365 * 70)))
			triples = append(triples, rdf.T(e, prop(fmt.Sprintf("date%d", p)), rdf.NewDateTime(ts)))
		}
		for p := 0; p < opts.CategoryProps; p++ {
			c := rng.Intn(opts.Categories)
			triples = append(triples, rdf.T(e, prop(fmt.Sprintf("cat%d", p)),
				rdf.NewLiteral(fmt.Sprintf("category-%d", c))))
		}
		for p := 0; p < opts.LinkProps; p++ {
			other := rng.Intn(opts.Entities)
			triples = append(triples, rdf.T(e, prop(fmt.Sprintf("rel%d", p)), res("entity", other)))
		}
	}
	return triples
}

// Prop exposes the generated property IRI for name (for queries against
// generated data).
func Prop(name string) rdf.IRI { return prop(name) }

// Res exposes the generated resource IRI for (kind, i).
func Res(kind string, i int) rdf.IRI { return res(kind, i) }

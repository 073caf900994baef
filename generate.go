package lodviz

import (
	"github.com/lodviz/lodviz/internal/gen"
)

// Synthetic dataset generation. The surveyed systems demonstrate on live
// LOD endpoints such as DBpedia; lodviz is offline by design, so this
// deterministic generator produces a dataset with the same shape.

// EntityOptions configures GenerateEntities.
type EntityOptions = gen.EntityOptions

// GenerateEntities returns a DBpedia-like entity-attribute dataset.
func GenerateEntities(opts EntityOptions) (*Dataset, error) {
	return FromTriples(gen.EntityDataset(opts))
}

// GenProp returns the IRI of a generated property (e.g. "num0", "cat0",
// "rel0") for querying generated datasets.
func GenProp(name string) IRI { return gen.Prop(name) }

// GenRes returns the IRI of a generated resource, e.g. GenRes("entity", 0).
func GenRes(kind string, i int) IRI { return gen.Res(kind, i) }

package hetree

import (
	"context"
	"errors"
	"math"
	"slices"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// ErrNoValues reports that the property has no numeric or temporal values to
// build a tree over.
var ErrNoValues = errors.New("hetree: property has no numeric or temporal values")

// FromSource collects a property's Base from the ID-space source and starts
// a tree over it. Nothing is shared with other calls: each one scans and
// sorts the property again, which is what a one-off caller wants; whoever
// asks repeatedly keeps the bases in a Bases and takes trees from there.
//
// The base holds the (value, subject ID) of every statement of prop whose
// object is a finite number or a timestamp (as Unix seconds). Literals that
// parse as NaN or ±Inf have no place on an axis and are left out. No subject
// is decoded here; Items decodes the ones of the node it is given, through
// src, which the tree therefore keeps.
func FromSource(ctx context.Context, src store.Source, prop rdf.IRI, opts Options) (*Tree, error) {
	pid, ok := src.LookupTermID(prop)
	if !ok {
		return nil, ErrNoValues
	}
	base, err := collect(ctx, src, pid)
	if err != nil {
		return nil, err
	}
	return base.tree(src, opts)
}

// tree starts a tree of the given shape over the base; src decodes the
// subjects Items is asked for.
func (b *Base) tree(src store.Source, opts Options) (*Tree, error) {
	if b.Len() == 0 {
		return nil, ErrNoValues
	}
	t := newTree(b, opts)
	t.src = src
	return t, nil
}

// collect builds the base of the predicate with dictionary ID pid: empty
// when no statement of it has a finite numeric or temporal object.
//
// The predicate-bound POS run arrives grouped by object, so each distinct
// object is decoded and parsed (Float or Time) once no matter how many
// subjects share it, in one batch. Everything else stays in ID space: the
// pairs are sorted by (value, subject ID) — one order whatever the split
// between base index and delta buffer — and laid out as parallel arrays.
// ctx is honored while walking large runs.
func collect(ctx context.Context, src store.Source, pid store.ID) (*Base, error) {
	run, ok := src.ScanIDs(0, pid, 0, store.PosAny)
	if !ok {
		return &Base{}, nil
	}
	// The run as groups: objects[g] is carried by subjects[starts[g]:starts[g+1]].
	var (
		objects  []store.ID
		starts   []int
		subjects = make([]store.ID, 0, len(run.Sorted)+len(run.Tail))
		cerr     error
	)
	run.ForEachSorted(func(t store.IDTriple) bool {
		if len(subjects)%8192 == 8191 {
			if cerr = ctx.Err(); cerr != nil {
				return false
			}
		}
		if len(objects) == 0 || objects[len(objects)-1] != t.O {
			objects = append(objects, t.O)
			starts = append(starts, len(subjects))
		}
		subjects = append(subjects, t.S)
		return true
	})
	if cerr != nil {
		return nil, cerr
	}
	starts = append(starts, len(subjects))

	type pair struct {
		value   float64
		subject store.ID
	}
	pairs := make([]pair, 0, len(subjects))
	for g, term := range src.Terms(objects) {
		if v, ok := axisValue(term); ok {
			for _, s := range subjects[starts[g]:starts[g+1]] {
				pairs = append(pairs, pair{v, s})
			}
		}
	}
	// Spelled out: no value is NaN here, and cmp.Compare's NaN ordering
	// costs the sort, most of the build, 40% (BenchmarkFromSource).
	slices.SortFunc(pairs, func(a, b pair) int {
		switch {
		case a.value < b.value:
			return -1
		case a.value > b.value:
			return 1
		case a.subject < b.subject:
			return -1
		case a.subject > b.subject:
			return 1
		}
		return 0
	})
	values := make([]float64, len(pairs))
	subjects = subjects[:len(pairs)]
	for i, p := range pairs {
		values[i], subjects[i] = p.value, p.subject
	}
	return newBase(values, slices.Clip(subjects)), nil
}

// axisValue is the position of an object on a numeric axis: a finite number,
// or a timestamp as Unix seconds.
func axisValue(term rdf.Term) (float64, bool) {
	l, ok := term.(rdf.Literal)
	if !ok {
		return 0, false
	}
	if f, ok := l.Float(); ok {
		return f, !math.IsNaN(f) && !math.IsInf(f, 0)
	}
	if tm, ok := l.Time(); ok {
		return float64(tm.Unix()), true
	}
	return 0, false
}

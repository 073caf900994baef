// Package hetree implements HETree, the hierarchical aggregation model
// behind SynopsViz (Bikakis et al. [25,26] in the survey): a static tree of
// aggregate nodes over a one-dimensional (numeric or temporal) attribute that
// lets a front-end explore any dataset size at a bounded per-screen cost.
//
// Two flavors are provided, following the paper:
//
//   - HETree-C ("content-based"): leaves hold a fixed number of items, so
//     every leaf carries the same weight (equal-frequency partitioning).
//   - HETree-R ("range-based"): leaves span equal value ranges
//     (equal-width partitioning).
//
// The package supports the paper's two scalability mechanisms:
//
//   - Incremental construction (ICO): a tree starts as a bare root; children
//     materialize only when expanded, so exploring k nodes costs O(k·d)
//     materializations instead of building all O(n/ℓ) nodes up front.
//   - Adaptation: the degree and leaf capacity can be changed mid-session;
//     materialized structure is discarded lazily while the sorted data and
//     prefix sums (the expensive part) are reused.
//
// All aggregates are computed in O(1) per node from prefix sums over the
// sorted values.
//
// # Base and Tree
//
// The expensive part — a property's values, sorted, with their prefix sums —
// is a Base: immutable, and when collected from a store (FromSource, Bases)
// pointer-free, 20 bytes a value: the value, the dictionary ID of the
// subject carrying it, and one prefix sum. It holds no rdf.Term and no map,
// so the garbage collector never walks it. A Tree is the cheap part: a mode,
// a degree, a leaf capacity and the nodes materialized so far, a cursor over
// a Base it never modifies. Any number of Trees, of any shape, in any number
// of goroutines, can cut the same Base at once, and Adapt changes a Tree
// without touching it.
//
// Subjects stay dictionary IDs until somebody looks: Items decodes those of
// the node it is asked about, so what decoding costs is bounded by the leaf
// and not by the dataset.
//
// Bases keeps one Base per property across requests and store generations,
// validating it the way the response cache validates the /hetree entry cut
// from it: against the footprint (*, prop, *), in the digests of the store's
// change log (store.DigestsSince, store.TouchedBy). A base
// a write did touch is collected again rather than patched from the log: at
// 10 000 values that is about 2 ms (BenchmarkFromSource), on the rare write
// to a numeric property, and a patch would have to move on average half of
// three arrays to insert one value anyway.
package hetree

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/lodviz/lodviz/internal/store"
)

// Mode selects the partitioning strategy.
type Mode int

const (
	// ContentBased is HETree-C: equal-count leaves.
	ContentBased Mode = iota
	// RangeBased is HETree-R: equal-width leaves.
	RangeBased
)

func (m Mode) String() string {
	if m == ContentBased {
		return "HETree-C"
	}
	return "HETree-R"
}

// Item is one data object with its 1-D ordering value (a number, or a
// timestamp mapped to Unix seconds) and an opaque reference, typically the
// RDF resource the value belongs to.
type Item struct {
	Value float64
	Ref   any
}

// Node is one aggregate node of the tree. Aggregate fields cover every item
// in the node's interval.
type Node struct {
	// Lo and Hi delimit the node's value interval [Lo, Hi]; for content
	// nodes these are the actual min/max of the contained items.
	Lo, Hi float64
	// Count, Sum, Min, Max aggregate the contained items.
	Count    int
	Sum      float64
	Min, Max float64
	// Depth is the node's distance from the root.
	Depth int

	// loIdx/hiIdx delimit the node's slice of the sorted data.
	loIdx, hiIdx int
	// rLo/rHi is the assigned value range for range-based nodes.
	rLo, rHi float64
	children []*Node
	expanded bool
	leaf     bool
}

// Mean returns the node's mean value (0 when empty).
func (n *Node) Mean() float64 {
	if n.Count == 0 {
		return 0
	}
	return n.Sum / float64(n.Count)
}

// IsLeaf reports whether the node is a leaf of the (possibly unmaterialized)
// tree.
func (n *Node) IsLeaf() bool { return n.leaf }

// Base is one attribute's values in ascending order with their prefix sums:
// everything about a hierarchy that depends on the data and not on its
// shape. It is immutable once built, so Trees share it freely.
type Base struct {
	values []float64
	// subjects[i] is the resource carrying values[i]; ties in value are in
	// ascending ID order. Nil for a base made by New, whose references are
	// the caller's own.
	subjects []store.ID
	prefix   []float64 // prefix[i] = sum of values[:i]
}

// newBase takes ownership of the sorted values and their subjects.
func newBase(values []float64, subjects []store.ID) *Base {
	prefix := make([]float64, len(values)+1)
	for i, v := range values {
		prefix[i+1] = prefix[i] + v
	}
	return &Base{values: values, subjects: subjects, prefix: prefix}
}

// Len returns the number of values in the base.
func (b *Base) Len() int { return len(b.values) }

// Tree is a HETree: the nodes materialized so far over a Base, which it only
// reads.
type Tree struct {
	mode    Mode
	degree  int
	leafCap int
	base    *Base
	// What Items resolves a node's slice of the base with: the caller's
	// items in base order (New), or the source that decodes base.subjects.
	items []Item
	src   store.Source
	root  *Node

	// materialized counts nodes created so far — the cost metric for the
	// full-vs-incremental experiment (E5).
	materialized int
}

// Options configure tree construction.
type Options struct {
	// Mode selects HETree-C or HETree-R.
	Mode Mode
	// Degree is the fan-out of internal nodes (default 4).
	Degree int
	// LeafCapacity is the target number of items per leaf for HETree-C, or
	// the target number of leaves' worth of width for HETree-R (default 32).
	LeafCapacity int
	// Incremental, when true, defers all materialization below the root
	// (the paper's ICO strategy). When false the whole tree is built.
	Incremental bool
}

// DefaultOptions is the shape of the hierarchies lodviz serves when nobody
// asks for another — the /hetree endpoint's, and the one core's default
// preferences start a session with: content-based, degree 4, 64 values a
// leaf, materialized on demand (the dynamic setting forbids full
// preprocessing).
func DefaultOptions() Options {
	return Options{Mode: ContentBased, Degree: 4, LeafCapacity: 64, Incremental: true}
}

func (o *Options) normalize() {
	if o.Degree < 2 {
		o.Degree = 4
	}
	if o.LeafCapacity < 1 {
		o.LeafCapacity = 32
	}
}

// ErrNoData is returned when constructing a tree over no items.
var ErrNoData = errors.New("hetree: no items")

// New builds a HETree over items (copied and sorted by value).
func New(items []Item, opts Options) (*Tree, error) {
	if len(items) == 0 {
		return nil, ErrNoData
	}
	data := slices.Clone(items)
	slices.SortFunc(data, func(a, b Item) int { return cmp.Compare(a.Value, b.Value) })
	values := make([]float64, len(data))
	for i, it := range data {
		values[i] = it.Value
	}
	t := newTree(newBase(values, nil), opts)
	t.items = data
	return t, nil
}

// newTree starts a tree of the given shape over a non-empty base.
func newTree(base *Base, opts Options) *Tree {
	opts.normalize()
	t := &Tree{
		mode:    opts.Mode,
		degree:  opts.Degree,
		leafCap: opts.LeafCapacity,
		base:    base,
	}
	t.root = t.rootNode()
	if !opts.Incremental {
		t.expandAll(t.root)
	}
	return t
}

func (t *Tree) rootNode() *Node {
	v := t.base.values
	return t.makeNode(0, len(v), v[0], v[len(v)-1], 0)
}

// makeNode materializes one node covering the base's values[lo:hi].
func (t *Tree) makeNode(lo, hi int, rLo, rHi float64, depth int) *Node {
	t.materialized++
	n := &Node{
		Depth: depth,
		loIdx: lo, hiIdx: hi,
		rLo: rLo, rHi: rHi,
	}
	n.Count = hi - lo
	if n.Count > 0 {
		n.Sum = t.base.prefix[hi] - t.base.prefix[lo]
		n.Min = t.base.values[lo]
		n.Max = t.base.values[hi-1]
	}
	switch t.mode {
	case ContentBased:
		n.Lo, n.Hi = n.Min, n.Max
		n.leaf = n.Count <= t.leafCap
	default:
		n.Lo, n.Hi = rLo, rHi
		// A range node is a leaf when its width reaches the leaf width.
		total := t.base.values[t.base.Len()-1] - t.base.values[0]
		if total <= 0 {
			n.leaf = true
		} else {
			leafWidth := total / float64(t.numRangeLeaves())
			n.leaf = rHi-rLo <= leafWidth*1.0000001 || n.Count <= 1
		}
	}
	return n
}

// numRangeLeaves derives the leaf count for HETree-R from the leaf capacity,
// mirroring HETree-C's granularity.
func (t *Tree) numRangeLeaves() int {
	l := (t.base.Len() + t.leafCap - 1) / t.leafCap
	if l < 1 {
		l = 1
	}
	return l
}

// Root returns the tree's root node.
func (t *Tree) Root() *Node { return t.root }

// Mode returns the tree's partitioning mode.
func (t *Tree) Mode() Mode { return t.mode }

// Len returns the number of items in the tree.
func (t *Tree) Len() int { return t.base.Len() }

// MaterializedNodes returns how many nodes have been created so far.
func (t *Tree) MaterializedNodes() int { return t.materialized }

// Children returns the node's children, materializing them on first access
// (the ICO step). Leaves return nil.
func (t *Tree) Children(n *Node) []*Node {
	if n.leaf {
		return nil
	}
	if n.expanded {
		return n.children
	}
	n.expanded = true
	switch t.mode {
	case ContentBased:
		n.children = t.splitContent(n)
	default:
		n.children = t.splitRange(n)
	}
	return n.children
}

// splitContent splits a content node into ≤ degree children of near-equal
// leaf counts, aligned to leaf boundaries.
func (t *Tree) splitContent(n *Node) []*Node {
	nLeaves := (n.Count + t.leafCap - 1) / t.leafCap
	if nLeaves <= 1 {
		return nil
	}
	perChild := (nLeaves + t.degree - 1) / t.degree
	var out []*Node
	for lo := n.loIdx; lo < n.hiIdx; {
		hi := lo + perChild*t.leafCap
		if hi > n.hiIdx {
			hi = n.hiIdx
		}
		out = append(out, t.makeNode(lo, hi, 0, 0, n.Depth+1))
		lo = hi
	}
	return out
}

// splitRange splits a range node into degree equal-width children.
func (t *Tree) splitRange(n *Node) []*Node {
	width := (n.rHi - n.rLo) / float64(t.degree)
	if width <= 0 {
		return nil
	}
	var out []*Node
	for i := 0; i < t.degree; i++ {
		lo := n.rLo + float64(i)*width
		hi := lo + width
		last := i == t.degree-1
		if last {
			hi = n.rHi
		}
		// Locate the data slice for [lo, hi) — [lo, hi] for the last child —
		// by binary search on the sorted values.
		values := t.base.values
		loIdx := sort.Search(len(values), func(k int) bool { return values[k] >= lo })
		var hiIdx int
		if last {
			hiIdx = sort.Search(len(values), func(k int) bool { return values[k] > hi })
		} else {
			hiIdx = sort.Search(len(values), func(k int) bool { return values[k] >= hi })
		}
		if loIdx < n.loIdx {
			loIdx = n.loIdx
		}
		if hiIdx > n.hiIdx {
			hiIdx = n.hiIdx
		}
		out = append(out, t.makeNode(loIdx, hiIdx, lo, hi, n.Depth+1))
	}
	return out
}

// expandAll materializes the full subtree below n.
func (t *Tree) expandAll(n *Node) {
	for _, c := range t.Children(n) {
		t.expandAll(c)
	}
}

// Items returns the node's items in ascending value order; callers must not
// mutate the result. A tree made by New slices the sorted copy of its input.
// A tree over a store's property decodes the subjects of this node, and of
// no other, into rdf.Term references: the cost is the node's size, so ask
// for a leaf, not for the root.
func (t *Tree) Items(n *Node) []Item {
	if t.items != nil {
		return t.items[n.loIdx:n.hiIdx]
	}
	terms := t.src.Terms(t.base.subjects[n.loIdx:n.hiIdx])
	out := make([]Item, len(terms))
	for i, term := range terms {
		out[i] = Item{Value: t.base.values[n.loIdx+i], Ref: term}
	}
	return out
}

// LevelFor returns the shallowest frontier of the tree whose node count does
// not exceed budget (the "squeeze into the pixel budget" operation): it
// walks down from the root, expanding whole levels while they still fit.
func (t *Tree) LevelFor(budget int) []*Node {
	if budget < 1 {
		budget = 1
	}
	frontier := []*Node{t.root}
	for {
		var next []*Node
		done := false
		for _, n := range frontier {
			cs := t.Children(n)
			if cs == nil {
				done = true
				break
			}
			next = append(next, cs...)
		}
		if done || len(next) == 0 || len(next) > budget {
			return frontier
		}
		frontier = next
	}
}

// RangeQuery returns the maximal materia-lizable nodes covering [lo, hi]
// with at most maxNodes nodes: it descends only into nodes that straddle the
// range boundary, returning fully-covered nodes as-is — the drill-down
// primitive of multilevel exploration.
func (t *Tree) RangeQuery(lo, hi float64, maxNodes int) []*Node {
	if maxNodes < 1 {
		maxNodes = 1
	}
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Count == 0 || n.Max < lo || n.Min > hi {
			return
		}
		if (n.Min >= lo && n.Max <= hi) || n.leaf || len(out) >= maxNodes {
			out = append(out, n)
			return
		}
		for _, c := range t.Children(n) {
			walk(c)
		}
	}
	walk(t.root)
	return out
}

// CheckShape reports whether a degree and a leaf capacity are ones a tree can
// take: what Adapt checks, for callers that validate a shape before there is
// a tree to adapt.
func CheckShape(degree, leafCapacity int) error {
	if degree < 2 {
		return fmt.Errorf("hetree: degree %d < 2", degree)
	}
	if leafCapacity < 1 {
		return fmt.Errorf("hetree: leaf capacity %d < 1", leafCapacity)
	}
	return nil
}

// Adapt changes the tree's degree and leaf capacity, discarding materialized
// structure but reusing the base, which other trees may be reading and which
// it does not touch — the paper's "dynamic and efficient adaptation of the
// hierarchy to the user's preferences".
func (t *Tree) Adapt(degree, leafCapacity int) error {
	if err := CheckShape(degree, leafCapacity); err != nil {
		return err
	}
	t.degree = degree
	t.leafCap = leafCapacity
	t.materialized = 0
	t.root = t.rootNode()
	return nil
}

// Height returns the height of the fully-expanded tree (computed without
// materializing it, from the leaf count and degree).
func (t *Tree) Height() int {
	leaves := (t.base.Len() + t.leafCap - 1) / t.leafCap
	h := 0
	for span := 1; span < leaves; span *= t.degree {
		h++
	}
	return h
}

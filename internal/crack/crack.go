// Package crack implements database cracking (Idreos et al., CIDR 2007 —
// ref [67] in the survey), the adaptive indexing strategy [144] applies to
// exploratory workloads: the index is built incrementally as a side effect
// of the queries actually asked, so the first query pays almost nothing and
// hot regions of the data get progressively more organized.
//
// The package also ships the two baselines cracking is compared against: a
// full scan and a fully sorted index built up front.
package crack

import (
	"errors"
	"sort"
)

// ErrEmptyColumn is returned when constructing over no values.
var ErrEmptyColumn = errors.New("crack: empty column")

// Column is a crackable column: values are physically reorganized
// (partitioned) a little more by every range query.
type Column struct {
	vals []float64
	// bounds are crack positions: bounds[i].pos is the index of the first
	// element >= bounds[i].value. Sorted by value.
	bounds []bound
	// swaps counts element swaps, the physical-work metric.
	swaps int
}

type bound struct {
	value float64
	pos   int
}

// New copies values into a cracker column.
func New(values []float64) (*Column, error) {
	if len(values) == 0 {
		return nil, ErrEmptyColumn
	}
	vals := make([]float64, len(values))
	copy(vals, values)
	return &Column{vals: vals}, nil
}

// Len returns the column size.
func (c *Column) Len() int { return len(c.vals) }

// Swaps returns the cumulative number of element swaps performed by
// cracking so far.
func (c *Column) Swaps() int { return c.swaps }

// Pieces returns the number of contiguous pieces the column is currently
// cracked into.
func (c *Column) Pieces() int { return len(c.bounds) + 1 }

// crack partitions the piece containing v so that elements < v precede
// elements >= v, records the crack position, and returns it.
func (c *Column) crack(v float64) int {
	// Find existing bound, or the piece [lo, hi) to partition.
	i := sort.Search(len(c.bounds), func(k int) bool { return c.bounds[k].value >= v })
	if i < len(c.bounds) && c.bounds[i].value == v {
		return c.bounds[i].pos
	}
	lo := 0
	if i > 0 {
		lo = c.bounds[i-1].pos
	}
	hi := len(c.vals)
	if i < len(c.bounds) {
		hi = c.bounds[i].pos
	}
	// Hoare-style partition of vals[lo:hi] around v.
	p := c.partition(lo, hi, v)
	c.bounds = append(c.bounds, bound{})
	copy(c.bounds[i+1:], c.bounds[i:])
	c.bounds[i] = bound{value: v, pos: p}
	return p
}

func (c *Column) partition(lo, hi int, v float64) int {
	l, r := lo, hi-1
	for l <= r {
		for l <= r && c.vals[l] < v {
			l++
		}
		for l <= r && c.vals[r] >= v {
			r--
		}
		if l < r {
			c.vals[l], c.vals[r] = c.vals[r], c.vals[l]
			c.swaps++
			l++
			r--
		}
	}
	return l
}

// Range returns all values in [lo, hi), cracking the column at both bounds.
// The returned slice aliases the column; callers must not mutate it.
func (c *Column) Range(lo, hi float64) []float64 {
	if hi < lo {
		lo, hi = hi, lo
	}
	p1 := c.crack(lo)
	p2 := c.crack(hi)
	return c.vals[p1:p2]
}

// Count returns the number of values in [lo, hi).
func (c *Column) Count(lo, hi float64) int { return len(c.Range(lo, hi)) }

// Sum returns the sum of values in [lo, hi).
func (c *Column) Sum(lo, hi float64) float64 {
	var s float64
	for _, v := range c.Range(lo, hi) {
		s += v
	}
	return s
}

// CheckInvariant verifies that every piece's values respect the crack
// bounds. It is exported for property tests and costs O(n).
func (c *Column) CheckInvariant() bool {
	prevPos := 0
	var prevVal float64
	hasPrev := false
	for _, b := range c.bounds {
		if b.pos < prevPos || b.pos > len(c.vals) {
			return false
		}
		for i := prevPos; i < b.pos; i++ {
			if hasPrev && c.vals[i] < prevVal {
				return false
			}
			if c.vals[i] >= b.value {
				return false
			}
		}
		prevPos, prevVal, hasPrev = b.pos, b.value, true
	}
	for i := prevPos; i < len(c.vals); i++ {
		if hasPrev && c.vals[i] < prevVal {
			return false
		}
	}
	return true
}

// ScanColumn is the no-index baseline: every range query is a full scan.
type ScanColumn struct{ vals []float64 }

// NewScan copies values into a scan-only column.
func NewScan(values []float64) *ScanColumn {
	vals := make([]float64, len(values))
	copy(vals, values)
	return &ScanColumn{vals: vals}
}

// Range returns all values in [lo, hi) by scanning.
func (s *ScanColumn) Range(lo, hi float64) []float64 {
	var out []float64
	for _, v := range s.vals {
		if v >= lo && v < hi {
			out = append(out, v)
		}
	}
	return out
}

// Count returns the number of values in [lo, hi) by scanning.
func (s *ScanColumn) Count(lo, hi float64) int {
	n := 0
	for _, v := range s.vals {
		if v >= lo && v < hi {
			n++
		}
	}
	return n
}

// SortedColumn is the full-index baseline: pay a complete sort up front,
// then answer with binary search.
type SortedColumn struct{ vals []float64 }

// NewSorted copies and fully sorts the values.
func NewSorted(values []float64) *SortedColumn {
	vals := make([]float64, len(values))
	copy(vals, values)
	sort.Float64s(vals)
	return &SortedColumn{vals: vals}
}

// Range returns all values in [lo, hi) via binary search.
func (s *SortedColumn) Range(lo, hi float64) []float64 {
	i := sort.SearchFloat64s(s.vals, lo)
	j := sort.SearchFloat64s(s.vals, hi)
	return s.vals[i:j]
}

// Count returns the number of values in [lo, hi) via binary search.
func (s *SortedColumn) Count(lo, hi float64) int {
	return sort.SearchFloat64s(s.vals, hi) - sort.SearchFloat64s(s.vals, lo)
}

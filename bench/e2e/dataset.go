package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"time"
)

// The generated vocabulary. The scheme is that of gen.EntityDataset, written
// out again here so that the benchmark's inputs do not move when the
// repository's generator does.
const (
	ns          = "http://lodviz.example.org/"
	rdfType     = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	rdfsLabel   = "http://www.w3.org/2000/01/rdf-schema#label"
	xsdDouble   = "http://www.w3.org/2001/XMLSchema#double"
	xsdDateTime = "http://www.w3.org/2001/XMLSchema#dateTime"

	classes    = 6
	numProps   = 3
	catProps   = 4
	categories = 16
	linkProps  = 2
	// triplesPerEntity: type, label, numerics, one date, categories, links.
	triplesPerEntity = 2 + numProps + 1 + catProps + linkProps
)

func entityIRI(i int) string { return ns + "entity/" + strconv.Itoa(i) }
func classIRI(c int) string  { return ns + "class/" + strconv.Itoa(c) }
func numIRI(p int) string    { return ns + "prop/num" + strconv.Itoa(p) }
func catIRI(p int) string    { return ns + "prop/cat" + strconv.Itoa(p) }
func relIRI(p int) string    { return ns + "prop/rel" + strconv.Itoa(p) }
func catValue(v int) string  { return "category-" + strconv.Itoa(v) }

// dataset is the reference model: the generated rows, kept so that every
// response of the server can be checked against them.
type dataset struct {
	class []uint8
	cat   [catProps][]uint8
	num   [numProps][]float64
	date  []int64
	rel   [linkProps][]int32
	// inDeg[p][i] counts entities whose rel<p> points at entity i.
	inDeg [linkProps][]int32
}

func (d *dataset) entities() int { return len(d.class) }
func (d *dataset) triples() int  { return d.entities() * triplesPerEntity }

// generate draws n entities from seed: a class with probability halving per
// class, skewed positive numerics, a date within seventy years, uniform
// categories and uniform links. Numerics keep three decimals so that the
// value the server parses is exactly the one the model holds.
func generate(seed int64, n int) *dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &dataset{class: make([]uint8, n), date: make([]int64, n)}
	for p := range d.cat {
		d.cat[p] = make([]uint8, n)
	}
	for p := range d.num {
		d.num[p] = make([]float64, n)
	}
	for p := range d.rel {
		d.rel[p] = make([]int32, n)
		d.inDeg[p] = make([]int32, n)
	}
	epoch := time.Date(1950, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	for i := 0; i < n; i++ {
		c := 0
		for c < classes-1 && rng.Float64() > 0.5 {
			c++
		}
		d.class[i] = uint8(c)
		for p := range d.num {
			v := rng.ExpFloat64() * 100 * float64(p+1)
			d.num[p][i], _ = strconv.ParseFloat(strconv.FormatFloat(v, 'f', 3, 64), 64)
		}
		d.date[i] = epoch + rng.Int63n(70*365*24*3600)
		for p := range d.cat {
			d.cat[p][i] = uint8(rng.Intn(categories))
		}
		for p := range d.rel {
			t := rng.Intn(n)
			d.rel[p][i] = int32(t)
			d.inDeg[p][t]++
		}
	}
	return d
}

// writeNT writes the dataset as N-Triples, one entity after another.
func (d *dataset) writeNT(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	for i := 0; i < d.entities(); i++ {
		s := "<" + entityIRI(i) + "> <"
		fmt.Fprintf(bw, "%s%s> <%s> .\n", s, rdfType, classIRI(int(d.class[i])))
		fmt.Fprintf(bw, "%s%s> \"Entity %d of class %d\" .\n", s, rdfsLabel, i, d.class[i])
		for p := range d.num {
			fmt.Fprintf(bw, "%s%s> \"%s\"^^<%s> .\n", s, numIRI(p), strconv.FormatFloat(d.num[p][i], 'f', 3, 64), xsdDouble)
		}
		fmt.Fprintf(bw, "%s%s> \"%s\"^^<%s> .\n", s, ns+"prop/date0",
			time.Unix(d.date[i], 0).UTC().Format("2006-01-02T15:04:05Z"), xsdDateTime)
		for p := range d.cat {
			fmt.Fprintf(bw, "%s%s> \"%s\" .\n", s, catIRI(p), catValue(int(d.cat[p][i])))
		}
		for p := range d.rel {
			fmt.Fprintf(bw, "%s%s> <%s> .\n", s, relIRI(p), entityIRI(int(d.rel[p][i])))
		}
	}
	return bw.Flush()
}

// catFilter restricts one categorical property to one value.
type catFilter struct{ prop, val int }

// selection is a conjunctive restriction: a class (or -1 for any) and
// categorical filters.
type selection struct {
	class int
	cats  []catFilter
}

func (d *dataset) matches(i int, sel selection) bool {
	if sel.class >= 0 && int(d.class[i]) != sel.class {
		return false
	}
	for _, f := range sel.cats {
		if int(d.cat[f.prop][i]) != f.val {
			return false
		}
	}
	return true
}

// count is the number of entities in the selection.
func (d *dataset) count(sel selection) int {
	n := 0
	for i := range d.class {
		if d.matches(i, sel) {
			n++
		}
	}
	return n
}

// countAbove is the number of entities in the selection whose num<p> exceeds x.
func (d *dataset) countAbove(sel selection, p int, x float64) int {
	n := 0
	for i := range d.class {
		if d.num[p][i] > x && d.matches(i, sel) {
			n++
		}
	}
	return n
}

// distinctCat is the number of distinct cat<p> values in the selection.
func (d *dataset) distinctCat(sel selection, p int) int {
	var seen [categories]bool
	n := 0
	for i := range d.class {
		if v := d.cat[p][i]; !seen[v] && d.matches(i, sel) {
			seen[v] = true
			n++
		}
	}
	return n
}

// degree is the number of statements entity i takes part in: its own, and
// the links that point at it.
func (d *dataset) degree(i int) int {
	n := triplesPerEntity
	for p := range d.inDeg {
		n += int(d.inDeg[p][i])
	}
	return n
}

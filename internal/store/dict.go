package store

import (
	"hash/maphash"
	"math/bits"

	"github.com/lodviz/lodviz/internal/rdf"
)

// termTable is the term → ID side of the dictionary (Store.terms is the
// ID → term side): an open-addressed, linearly probed hash table of slot
// words. A word holds a 32-bit hash tag above a 32-bit ID, and 0 means
// empty — IDs start at 1, so no stored word is 0. The table holds no
// pointers, so the garbage collector never scans it, and a probe reads
// 8-byte words from one array; a tag match is confirmed against the term
// the ID names.
//
// The tag is the whole of what the table keeps of a term's hash, and the
// slot a word probes from is the tag's low bits, so growth re-slots the
// stored words into a table twice the size without hashing any term again.
// The table grows past half full.
//
// The hash is hash/maphash under a seed drawn per store, as Go's own maps
// seed theirs, so a client posting triples cannot aim terms at one probe
// chain without knowing it.
type termTable struct {
	seed  maphash.Seed
	slots []uint64 // tag<<32 | ID; len is a power of two
}

func newTermTable() termTable {
	return termTable{seed: maphash.MakeSeed(), slots: make([]uint64, 8)}
}

// tag hashes t's kind and strings down to the 32 bits a slot keeps.
func (tt *termTable) tag(t rdf.Term) uint32 {
	var h uint64
	switch t := t.(type) {
	case rdf.IRI:
		h = maphash.String(tt.seed, string(t))
	case rdf.BlankNode:
		h = mix(maphash.String(tt.seed, string(t)), uint64(rdf.KindBlank))
	case rdf.Literal:
		h = mix(maphash.String(tt.seed, t.Lexical), uint64(rdf.KindLiteral))
		h = mix(h, maphash.String(tt.seed, string(t.Datatype)))
		if t.Lang != "" {
			h = mix(h, maphash.String(tt.seed, t.Lang))
		}
	}
	return uint32(h >> 32)
}

// mix folds v into the hash h (a 64×64→128-bit multiply, high half xor low).
func mix(h, v uint64) uint64 {
	hi, lo := bits.Mul64(h^0xa0761d6478bd642f, v^0xe7037ed1a0b428db)
	return hi ^ lo
}

// find returns the ID of t, whose tag is tag, or 0 and the empty slot where
// it would go. terms is the ID → term side.
func (tt *termTable) find(terms []rdf.Term, t rdf.Term, tag uint32) (ID, int) {
	mask := uint32(len(tt.slots) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		w := tt.slots[i]
		if w == 0 {
			return 0, int(i)
		}
		if uint32(w>>32) == tag && terms[uint32(w)] == t {
			return ID(uint32(w)), int(i)
		}
	}
}

// put stores the new term's id under tag at slot i, the empty slot find
// returned, and grows the table past half full: IDs are dense, so id is the
// number of terms the table holds.
func (tt *termTable) put(i int, tag uint32, id ID) {
	tt.slots[i] = uint64(tag)<<32 | uint64(id)
	if 2*int(id) > len(tt.slots) {
		tt.grow()
	}
}

// grow doubles the table and re-slots every word by its tag.
func (tt *termTable) grow() {
	old := tt.slots
	tt.slots = make([]uint64, 2*len(old))
	mask := uint32(len(tt.slots) - 1)
	for _, w := range old {
		if w == 0 {
			continue
		}
		i := uint32(w>>32) & mask
		for tt.slots[i] != 0 {
			i = (i + 1) & mask
		}
		tt.slots[i] = w
	}
}

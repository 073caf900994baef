// Package snapshot defines the lodviz on-disk snapshot format: a versioned,
// checksummed binary encoding of a dictionary-encoded triple store
// (dictionary terms followed by the sorted SPO index).
//
// The format is sequential — one pass to write, one pass to read, no
// seeking. The writer streams through a bounded buffer; the reader holds the
// whole image in memory and checks its checksum before it decodes a byte, so
// a partial or damaged file never reaches the decoder:
//
//	offset 0   magic   "LODVSNAP" (8 bytes)
//	offset 8   version uint32 LE (Version)
//	offset 12  terms   uint64 LE (dictionary entries; IDs are 1..terms)
//	offset 20  triples uint64 LE
//	           dictionary: per term its rdf.AppendBinary spelling, a kind
//	           byte (rdf.TermKind) and its length-prefixed string fields
//	           (IRI/blank: one field; literal: lexical, datatype, lang)
//	           SPO index: full (s,p,o) delta coding. Per triple
//	           uvarint(ds = s - prevS); if ds > 0, uvarint(p) and
//	           uvarint(o) follow plain. If ds == 0 the subject repeats, so
//	           uvarint(dp = p - prevP); if dp > 0, uvarint(o) follows
//	           plain; if dp == 0 the (s,p) prefix repeats and
//	           uvarint(o - prevO) follows — strictly sorted SPO input makes
//	           every delta on a repeated prefix ≥ 1, so nothing is lost.
//	           Hub subjects with one multi-valued predicate (the common LOD
//	           shape) collapse to ~1 byte per triple.
//	           stats: uvarint(count), then count entries of four uvarints.
//	           The writer writes count 0; the reader skips the entries an
//	           older writer filled in.
//	trailer    crc32   uint32 LE, IEEE, over every preceding byte
//
// Every uvarint has one spelling (rdf.Uvarint). The version rule: a reader
// accepts exactly Version, the version the writer writes; any other version
// is ErrVersion. This package owns only the wire format; the store package
// layers Store.WriteSnapshot / ReadSnapshot on top of it.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/lodviz/lodviz/internal/rdf"
)

// Magic identifies a lodviz snapshot file.
const Magic = "LODVSNAP"

// Version is the format version the writer writes and the reader accepts.
const Version = 2

// headerLen and trailerLen frame the body of an image.
const (
	headerLen  = 28
	trailerLen = 4
)

// Format errors. Read-side failures wrap one of these.
var (
	ErrBadMagic = errors.New("snapshot: bad magic (not a lodviz snapshot)")
	ErrVersion  = errors.New("snapshot: unsupported format version")
	ErrChecksum = errors.New("snapshot: checksum mismatch (truncated or corrupt)")
	ErrCorrupt  = errors.New("snapshot: corrupt payload")
)

// Writer serializes one snapshot. Use NewWriter, then exactly the declared
// number of Term and Triple calls, then Close.
type Writer struct {
	w     io.Writer
	crc   uint32
	buf   []byte // encoded, not yet written
	prevS uint32
	prevP uint32
	prevO uint32
	anyT  bool
}

// flushAt is the buffered size at which the writer passes its buffer on.
const flushAt = 1 << 16

// NewWriter starts a snapshot on w and writes the header, declaring the
// dictionary and triple counts up front.
func NewWriter(w io.Writer, numTerms, numTriples int) (*Writer, error) {
	// Room past flushAt for the entry that crosses it, so a typical
	// snapshot never grows the buffer.
	sw := &Writer{w: w, buf: make([]byte, 0, flushAt+1<<10)}
	sw.buf = append(sw.buf, Magic...)
	sw.buf = binary.LittleEndian.AppendUint32(sw.buf, Version)
	sw.buf = binary.LittleEndian.AppendUint64(sw.buf, uint64(numTerms))
	sw.buf = binary.LittleEndian.AppendUint64(sw.buf, uint64(numTriples))
	if err := sw.flush(); err != nil {
		return nil, fmt.Errorf("snapshot: writing header: %w", err)
	}
	return sw, nil
}

// flush checksums the buffer and writes it out.
func (sw *Writer) flush() error {
	sw.crc = crc32.Update(sw.crc, crc32.IEEETable, sw.buf)
	_, err := sw.w.Write(sw.buf)
	sw.buf = sw.buf[:0]
	return err
}

// spill flushes once the buffer has reached flushAt.
func (sw *Writer) spill() error {
	if len(sw.buf) < flushAt {
		return nil
	}
	return sw.flush()
}

// Term appends one dictionary entry. Terms must be written in ID order.
func (sw *Writer) Term(t rdf.Term) error {
	if t == nil {
		return fmt.Errorf("snapshot: nil term")
	}
	sw.buf = rdf.AppendBinary(sw.buf, t)
	return sw.spill()
}

// Triple appends one SPO entry. Triples must arrive in SPO-sorted order,
// strictly increasing (s,p,o) — what a deduplicated sorted index always
// satisfies; positions are delta-coded against the previous call.
func (sw *Writer) Triple(s, p, o uint32) error {
	if s < sw.prevS {
		return fmt.Errorf("snapshot: triples out of SPO order (subject %d after %d)", s, sw.prevS)
	}
	if ds := s - sw.prevS; ds == 0 && sw.anyT {
		if p < sw.prevP {
			return fmt.Errorf("snapshot: triples out of SPO order (predicate %d after %d under subject %d)", p, sw.prevP, s)
		}
		dp := p - sw.prevP
		if dp == 0 && o <= sw.prevO {
			return fmt.Errorf("snapshot: triples out of SPO order (object %d after %d under subject %d predicate %d)", o, sw.prevO, s, p)
		}
		sw.buf = append(sw.buf, 0)
		sw.buf = binary.AppendUvarint(sw.buf, uint64(dp))
		if dp == 0 {
			sw.buf = binary.AppendUvarint(sw.buf, uint64(o-sw.prevO))
		} else {
			sw.buf = binary.AppendUvarint(sw.buf, uint64(o))
		}
	} else {
		// New subject (the very first triple lands here too: its delta from
		// prevS == 0 is the subject itself, never zero for a valid ID).
		if s == 0 {
			return fmt.Errorf("snapshot: triple subject 0 is not a valid ID")
		}
		sw.buf = binary.AppendUvarint(sw.buf, uint64(ds))
		sw.buf = binary.AppendUvarint(sw.buf, uint64(p))
		sw.buf = binary.AppendUvarint(sw.buf, uint64(o))
	}
	sw.prevS, sw.prevP, sw.prevO, sw.anyT = s, p, o, true
	return sw.spill()
}

// Close seals the snapshot: it writes the empty stats section and the
// checksum trailer. It does not close the underlying writer.
func (sw *Writer) Close() error {
	sw.buf = append(sw.buf, 0) // stats count
	sw.crc = crc32.Update(sw.crc, crc32.IEEETable, sw.buf)
	sw.buf = binary.LittleEndian.AppendUint32(sw.buf, sw.crc)
	if _, err := sw.w.Write(sw.buf); err != nil {
		return fmt.Errorf("snapshot: writing checksum: %w", err)
	}
	return nil
}

// Reader decodes one snapshot image held in memory. Use NewReader, then
// exactly NumTerms Term calls and NumTriples Triple calls, then Close.
type Reader struct {
	body  []byte // between header and trailer
	off   int    // next byte of body to decode
	terms uint64
	tris  uint64
	prevS uint32
	prevP uint32
	prevO uint32
	anyT  bool
}

// NewReader checks image's magic, version and checksum, in that order, before
// anything is decoded. It bounds the header's counts by the image's length (a
// term takes at least two bytes, a triple at least three) and the terms by
// the uint32 IDs that name them, so a caller may allocate by the counts.
func NewReader(image []byte) (*Reader, error) {
	if len(image) >= 8 && string(image[:8]) != Magic {
		return nil, ErrBadMagic
	}
	if len(image) < headerLen+trailerLen {
		return nil, fmt.Errorf("%w: image of %d bytes is shorter than header and trailer", ErrChecksum, len(image))
	}
	if v := binary.LittleEndian.Uint32(image[8:12]); v != Version {
		return nil, fmt.Errorf("%w: got %d, support %d", ErrVersion, v, Version)
	}
	end := len(image) - trailerLen
	if got, want := binary.LittleEndian.Uint32(image[end:]), crc32.ChecksumIEEE(image[:end]); got != want {
		return nil, fmt.Errorf("%w: stored %08x, computed %08x", ErrChecksum, got, want)
	}
	sr := &Reader{
		body:  image[headerLen:end],
		terms: binary.LittleEndian.Uint64(image[12:20]),
		tris:  binary.LittleEndian.Uint64(image[20:28]),
	}
	room := uint64(len(sr.body))
	if sr.terms > min(room/2, 1<<32-2) || sr.tris > (room-2*sr.terms)/3 {
		return nil, corrupt("header claims %d terms and %d triples in a %d-byte body", sr.terms, sr.tris, room)
	}
	return sr, nil
}

// NumTerms returns the declared dictionary size.
func (sr *Reader) NumTerms() uint64 { return sr.terms }

// NumTriples returns the declared triple count.
func (sr *Reader) NumTriples() uint64 { return sr.tris }

// Term decodes the next dictionary entry.
func (sr *Reader) Term() (rdf.Term, error) {
	t, n, err := rdf.DecodeBinary(sr.body[sr.off:])
	if err != nil {
		return nil, corrupt("term at offset %d: %v", headerLen+sr.off, err)
	}
	sr.off += n
	return t, nil
}

func (sr *Reader) uvarint(what string) (uint64, error) {
	v, n := rdf.Uvarint(sr.body[sr.off:])
	if n == 0 {
		return 0, corrupt("%s: bad uvarint at offset %d", what, headerLen+sr.off)
	}
	sr.off += n
	return v, nil
}

// Triple decodes the next SPO entry, undoing the delta coding.
func (sr *Reader) Triple() (s, p, o uint32, err error) {
	ds, err := sr.uvarint("triple subject")
	if err != nil {
		return 0, 0, 0, err
	}
	sv, pv := uint64(sr.prevS)+ds, uint64(sr.prevP)
	var ov uint64
	if ds == 0 && sr.anyT {
		// Repeated subject: predicate delta follows.
		dp, err := sr.uvarint("triple predicate delta")
		if err != nil {
			return 0, 0, 0, err
		}
		if ov, err = sr.uvarint("triple object"); err != nil {
			return 0, 0, 0, err
		}
		if pv += dp; dp == 0 {
			if ov == 0 {
				return 0, 0, 0, corrupt("duplicate triple in SPO stream")
			}
			ov += uint64(sr.prevO)
		}
	} else {
		// New subject: predicate and object arrive plain.
		if pv, err = sr.uvarint("triple predicate"); err != nil {
			return 0, 0, 0, err
		}
		if ov, err = sr.uvarint("triple object"); err != nil {
			return 0, 0, 0, err
		}
	}
	if sv > 1<<32-1 || pv > 1<<32-1 || ov > 1<<32-1 {
		return 0, 0, 0, corrupt("triple ID overflows uint32")
	}
	sr.prevS, sr.prevP, sr.prevO, sr.anyT = uint32(sv), uint32(pv), uint32(ov), true
	return sr.prevS, sr.prevP, sr.prevO, nil
}

// Close skips the stats section, which follows the declared triples, and
// checks that the trailer comes right after it.
func (sr *Reader) Close() error {
	count, err := sr.uvarint("stats count")
	if err != nil {
		return err
	}
	if count > uint64(len(sr.body)-sr.off)/4 {
		return corrupt("stats count %d exceeds the image", count)
	}
	for i := uint64(0); i < 4*count; i++ {
		if _, err := sr.uvarint("stats entry"); err != nil {
			return err
		}
	}
	if rest := len(sr.body) - sr.off; rest != 0 {
		return corrupt("%d bytes after the stats section", rest)
	}
	return nil
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

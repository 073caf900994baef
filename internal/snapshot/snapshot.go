// Package snapshot defines the lodviz on-disk snapshot format: a versioned,
// checksummed binary encoding of a dictionary-encoded triple store
// (dictionary terms followed by the sorted SPO index).
//
// The format is deliberately dumb and sequential — one pass to write, one
// pass to read, no seeking — so snapshots stream through bounded buffers and
// a partial write can never masquerade as a complete snapshot:
//
//	offset 0   magic   "LODVSNAP" (8 bytes)
//	offset 8   version uint32 LE
//	offset 12  terms   uint64 LE (dictionary entries; IDs are 1..terms)
//	offset 20  triples uint64 LE
//	           dictionary: per term a kind byte (rdf.TermKind) and its
//	           length-prefixed string fields (IRI/blank: one field;
//	           literal: lexical, datatype, lang)
//	           SPO index (version 1): per triple uvarint(s - prevS),
//	           uvarint(p), uvarint(o) — subjects are non-decreasing in SPO
//	           order, so delta coding keeps hub-heavy graphs compact
//	           SPO index (version 2): full (s,p,o) delta coding. Per triple
//	           uvarint(ds = s - prevS); if ds > 0, uvarint(p) and
//	           uvarint(o) follow plain. If ds == 0 the subject repeats, so
//	           uvarint(dp = p - prevP); if dp > 0, uvarint(o) follows
//	           plain; if dp == 0 the (s,p) prefix repeats and
//	           uvarint(o - prevO) follows — strictly sorted SPO input makes
//	           every delta on a repeated prefix ≥ 1, so nothing is lost.
//	           Hub subjects with one multi-valued predicate (the common LOD
//	           shape) collapse to ~1 byte per triple.
//	           stats (version 2 only): uvarint(count), then per predicate —
//	           ascending uvarint(pid), uvarint(triples),
//	           uvarint(distinct subjects), uvarint(distinct objects) — the
//	           per-predicate cardinality table, persisted so a restored
//	           store starts with a warm query planner instead of an O(n)
//	           rescan.
//	trailer    crc32   uint32 LE, IEEE, over every preceding byte
//
// This package owns only the wire format; the store package layers
// Store.WriteSnapshot / ReadSnapshot on top of it. Readers accept both
// versions; the writer produces the current one only.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"github.com/lodviz/lodviz/internal/rdf"
)

// Magic identifies a lodviz snapshot file.
const Magic = "LODVSNAP"

// Version is the current (default) format version.
const Version = 2

// VersionV1 is the legacy format: subject-only delta coding, no stats
// section. Readers still accept it (the tests restore committed images of
// it); nothing writes it any more.
const VersionV1 = 1

// maxStringLen bounds one decoded string field; longer lengths are treated
// as corruption rather than honored as allocations.
const maxStringLen = 1 << 30

// maxStatsEntries bounds the decoded stats table; the count is unverified
// until the trailing checksum, so it must not drive allocations.
const maxStatsEntries = 1 << 26

// Format errors. Read-side failures wrap one of these.
var (
	ErrBadMagic = errors.New("snapshot: bad magic (not a lodviz snapshot)")
	ErrVersion  = errors.New("snapshot: unsupported format version")
	ErrChecksum = errors.New("snapshot: checksum mismatch (truncated or corrupt)")
	ErrCorrupt  = errors.New("snapshot: corrupt payload")
)

// PredStat is one persisted per-predicate cardinality record (version 2).
type PredStat struct {
	// Pred is the predicate's dictionary ID.
	Pred uint32
	// Triples, DistinctSubjects and DistinctObjects mirror
	// store.PredCardinality.
	Triples          uint64
	DistinctSubjects uint64
	DistinctObjects  uint64
}

// Writer serializes one snapshot. Use NewWriter, then exactly the declared
// number of Term and Triple calls, optionally Stats, then Close.
type Writer struct {
	bw       *bufio.Writer
	crc      hash.Hash32
	out      io.Writer // bw and crc
	prevS    uint32
	prevP    uint32
	prevO    uint32
	anyT     bool
	statsSet bool
	scratch  [binary.MaxVarintLen64]byte
}

// NewWriter starts a current-version snapshot on w and writes the header,
// declaring the dictionary and triple counts up front.
func NewWriter(w io.Writer, numTerms, numTriples int) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	sw := &Writer{bw: bw, crc: crc32.NewIEEE()}
	sw.out = io.MultiWriter(bw, sw.crc)
	var hdr [28]byte
	copy(hdr[:8], Magic)
	binary.LittleEndian.PutUint32(hdr[8:12], Version)
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(numTerms))
	binary.LittleEndian.PutUint64(hdr[20:28], uint64(numTriples))
	if _, err := sw.out.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("snapshot: writing header: %w", err)
	}
	return sw, nil
}

func (sw *Writer) writeUvarint(v uint64) error {
	n := binary.PutUvarint(sw.scratch[:], v)
	_, err := sw.out.Write(sw.scratch[:n])
	return err
}

func (sw *Writer) writeString(s string) error {
	if err := sw.writeUvarint(uint64(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(sw.out, s)
	return err
}

// Term appends one dictionary entry. Terms must be written in ID order.
func (sw *Writer) Term(t rdf.Term) error {
	if t == nil {
		return fmt.Errorf("snapshot: nil term")
	}
	kind := t.Kind()
	if _, err := sw.out.Write([]byte{byte(kind)}); err != nil {
		return err
	}
	switch v := t.(type) {
	case rdf.IRI:
		return sw.writeString(string(v))
	case rdf.BlankNode:
		return sw.writeString(string(v))
	case rdf.Literal:
		if err := sw.writeString(v.Lexical); err != nil {
			return err
		}
		if err := sw.writeString(string(v.Datatype)); err != nil {
			return err
		}
		return sw.writeString(v.Lang)
	default:
		return fmt.Errorf("snapshot: unsupported term kind %v", kind)
	}
}

// Triple appends one SPO entry. Triples must arrive in SPO-sorted order,
// strictly increasing (s,p,o) — what a deduplicated sorted index always
// satisfies; positions are delta-coded against the previous call.
func (sw *Writer) Triple(s, p, o uint32) error {
	if s < sw.prevS {
		return fmt.Errorf("snapshot: triples out of SPO order (subject %d after %d)", s, sw.prevS)
	}
	ds := s - sw.prevS
	if ds == 0 && sw.anyT {
		if p < sw.prevP {
			return fmt.Errorf("snapshot: triples out of SPO order (predicate %d after %d under subject %d)", p, sw.prevP, s)
		}
		dp := p - sw.prevP
		if dp == 0 && o <= sw.prevO {
			return fmt.Errorf("snapshot: triples out of SPO order (object %d after %d under subject %d predicate %d)", o, sw.prevO, s, p)
		}
		if err := sw.writeUvarint(0); err != nil {
			return err
		}
		if err := sw.writeUvarint(uint64(dp)); err != nil {
			return err
		}
		if dp == 0 {
			if err := sw.writeUvarint(uint64(o - sw.prevO)); err != nil {
				return err
			}
		} else if err := sw.writeUvarint(uint64(o)); err != nil {
			return err
		}
	} else {
		// New subject (the very first triple lands here too: its delta from
		// prevS == 0 is the subject itself, never zero for a valid ID).
		if s == 0 {
			return fmt.Errorf("snapshot: triple subject 0 is not a valid ID")
		}
		if err := sw.writeUvarint(uint64(ds)); err != nil {
			return err
		}
		if err := sw.writeUvarint(uint64(p)); err != nil {
			return err
		}
		if err := sw.writeUvarint(uint64(o)); err != nil {
			return err
		}
	}
	sw.prevS, sw.prevP, sw.prevO, sw.anyT = s, p, o, true
	return nil
}

// Stats appends the per-predicate cardinality table (at most once, after the
// triples). Entries must arrive sorted by ascending Pred.
func (sw *Writer) Stats(stats []PredStat) error {
	if sw.statsSet {
		return fmt.Errorf("snapshot: stats written twice")
	}
	sw.statsSet = true
	if err := sw.writeUvarint(uint64(len(stats))); err != nil {
		return err
	}
	prev := uint32(0)
	for i, st := range stats {
		if st.Pred == 0 || (i > 0 && st.Pred <= prev) {
			return fmt.Errorf("snapshot: stats not sorted by predicate ID at entry %d", i)
		}
		prev = st.Pred
		if err := sw.writeUvarint(uint64(st.Pred)); err != nil {
			return err
		}
		if err := sw.writeUvarint(st.Triples); err != nil {
			return err
		}
		if err := sw.writeUvarint(st.DistinctSubjects); err != nil {
			return err
		}
		if err := sw.writeUvarint(st.DistinctObjects); err != nil {
			return err
		}
	}
	return nil
}

// Close seals the snapshot: an empty stats section is streamed if none was
// written, then the checksum trailer is appended and flushed. It does not
// close the underlying writer.
func (sw *Writer) Close() error {
	if !sw.statsSet {
		if err := sw.Stats(nil); err != nil {
			return err
		}
	}
	var tr [4]byte
	binary.LittleEndian.PutUint32(tr[:], sw.crc.Sum32())
	if _, err := sw.bw.Write(tr[:]); err != nil {
		return fmt.Errorf("snapshot: writing checksum: %w", err)
	}
	if err := sw.bw.Flush(); err != nil {
		return fmt.Errorf("snapshot: flush: %w", err)
	}
	return nil
}

// crcReader feeds every byte read through the running checksum.
type crcReader struct {
	r   *bufio.Reader
	crc hash.Hash32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.crc.Write(p[:n])
	}
	return n, err
}

func (c *crcReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.crc.Write([]byte{b})
	}
	return b, err
}

// Reader deserializes one snapshot. Use NewReader, then exactly NumTerms
// Term calls and NumTriples Triple calls, optionally Stats (version 2), then
// Close to verify the checksum.
type Reader struct {
	raw       *bufio.Reader
	cr        *crcReader
	version   uint32
	terms     uint64
	tris      uint64
	prevS     uint32
	prevP     uint32
	prevO     uint32
	anyT      bool
	statsRead bool
}

// NewReader reads and validates the snapshot header on r. Both format
// versions are accepted; Version reports which one the stream uses.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	sr := &Reader{raw: br, cr: &crcReader{r: br, crc: crc32.NewIEEE()}}
	var hdr [28]byte
	if _, err := io.ReadFull(sr.cr, hdr[:]); err != nil {
		return nil, fmt.Errorf("snapshot: reading header: %w", err)
	}
	if string(hdr[:8]) != Magic {
		return nil, ErrBadMagic
	}
	sr.version = binary.LittleEndian.Uint32(hdr[8:12])
	if sr.version != VersionV1 && sr.version != Version {
		return nil, fmt.Errorf("%w: got %d, support %d and %d", ErrVersion, sr.version, VersionV1, Version)
	}
	sr.terms = binary.LittleEndian.Uint64(hdr[12:20])
	sr.tris = binary.LittleEndian.Uint64(hdr[20:28])
	return sr, nil
}

// Version returns the stream's format version.
func (sr *Reader) Version() int { return int(sr.version) }

// NumTerms returns the declared dictionary size.
func (sr *Reader) NumTerms() uint64 { return sr.terms }

// NumTriples returns the declared triple count.
func (sr *Reader) NumTriples() uint64 { return sr.tris }

func (sr *Reader) readString() (string, error) {
	n, err := binary.ReadUvarint(sr.cr)
	if err != nil {
		return "", corrupt("string length: %v", err)
	}
	if n > maxStringLen {
		return "", corrupt("string length %d exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(sr.cr, buf); err != nil {
		return "", corrupt("string body: %v", err)
	}
	return string(buf), nil
}

// Term reads the next dictionary entry.
func (sr *Reader) Term() (rdf.Term, error) {
	kind, err := sr.cr.ReadByte()
	if err != nil {
		return nil, corrupt("term kind: %v", err)
	}
	switch rdf.TermKind(kind) {
	case rdf.KindIRI:
		s, err := sr.readString()
		if err != nil {
			return nil, err
		}
		return rdf.IRI(s), nil
	case rdf.KindBlank:
		s, err := sr.readString()
		if err != nil {
			return nil, err
		}
		return rdf.BlankNode(s), nil
	case rdf.KindLiteral:
		lex, err := sr.readString()
		if err != nil {
			return nil, err
		}
		dt, err := sr.readString()
		if err != nil {
			return nil, err
		}
		lang, err := sr.readString()
		if err != nil {
			return nil, err
		}
		return rdf.Literal{Lexical: lex, Datatype: rdf.IRI(dt), Lang: lang}, nil
	default:
		return nil, corrupt("unknown term kind %d", kind)
	}
}

// Triple reads the next SPO entry, undoing the version's delta coding.
func (sr *Reader) Triple() (s, p, o uint32, err error) {
	ds, err := binary.ReadUvarint(sr.cr)
	if err != nil {
		return 0, 0, 0, corrupt("triple subject: %v", err)
	}
	if sr.version == VersionV1 {
		pv, err := binary.ReadUvarint(sr.cr)
		if err != nil {
			return 0, 0, 0, corrupt("triple predicate: %v", err)
		}
		ov, err := binary.ReadUvarint(sr.cr)
		if err != nil {
			return 0, 0, 0, corrupt("triple object: %v", err)
		}
		sv := uint64(sr.prevS) + ds
		if sv > 1<<32-1 || pv > 1<<32-1 || ov > 1<<32-1 {
			return 0, 0, 0, corrupt("triple ID overflows uint32")
		}
		sr.prevS = uint32(sv)
		return uint32(sv), uint32(pv), uint32(ov), nil
	}
	if ds == 0 && sr.anyT {
		// Repeated subject: predicate delta follows.
		dp, err := binary.ReadUvarint(sr.cr)
		if err != nil {
			return 0, 0, 0, corrupt("triple predicate delta: %v", err)
		}
		var ov uint64
		if dp == 0 {
			do, err := binary.ReadUvarint(sr.cr)
			if err != nil {
				return 0, 0, 0, corrupt("triple object delta: %v", err)
			}
			if do == 0 {
				return 0, 0, 0, corrupt("duplicate triple in SPO stream")
			}
			ov = uint64(sr.prevO) + do
		} else {
			ov, err = binary.ReadUvarint(sr.cr)
			if err != nil {
				return 0, 0, 0, corrupt("triple object: %v", err)
			}
		}
		pv := uint64(sr.prevP) + dp
		if pv > 1<<32-1 || ov > 1<<32-1 {
			return 0, 0, 0, corrupt("triple ID overflows uint32")
		}
		sr.prevP, sr.prevO = uint32(pv), uint32(ov)
		return sr.prevS, sr.prevP, sr.prevO, nil
	}
	// New subject: predicate and object arrive plain.
	pv, err := binary.ReadUvarint(sr.cr)
	if err != nil {
		return 0, 0, 0, corrupt("triple predicate: %v", err)
	}
	ov, err := binary.ReadUvarint(sr.cr)
	if err != nil {
		return 0, 0, 0, corrupt("triple object: %v", err)
	}
	sv := uint64(sr.prevS) + ds
	if sv > 1<<32-1 || pv > 1<<32-1 || ov > 1<<32-1 {
		return 0, 0, 0, corrupt("triple ID overflows uint32")
	}
	sr.prevS, sr.prevP, sr.prevO, sr.anyT = uint32(sv), uint32(pv), uint32(ov), true
	return sr.prevS, sr.prevP, sr.prevO, nil
}

// Stats reads the version-2 per-predicate cardinality table; it must be
// called after the declared triples. Version-1 streams have none and return
// nil. Entries arrive sorted by ascending predicate ID referencing the
// declared dictionary.
func (sr *Reader) Stats() ([]PredStat, error) {
	if sr.version == VersionV1 {
		return nil, nil
	}
	if sr.statsRead {
		return nil, corrupt("stats section read twice")
	}
	sr.statsRead = true
	count, err := binary.ReadUvarint(sr.cr)
	if err != nil {
		return nil, corrupt("stats count: %v", err)
	}
	if count > maxStatsEntries {
		return nil, corrupt("stats count %d exceeds limit", count)
	}
	const maxHint = 1 << 16
	out := make([]PredStat, 0, min(count, maxHint))
	prev := uint64(0)
	for i := uint64(0); i < count; i++ {
		pid, err := binary.ReadUvarint(sr.cr)
		if err != nil {
			return nil, corrupt("stats predicate: %v", err)
		}
		if pid == 0 || pid <= prev || pid > sr.terms {
			return nil, corrupt("stats predicate ID %d invalid at entry %d", pid, i)
		}
		prev = pid
		var vals [3]uint64
		for j := range vals {
			if vals[j], err = binary.ReadUvarint(sr.cr); err != nil {
				return nil, corrupt("stats entry %d: %v", i, err)
			}
		}
		out = append(out, PredStat{
			Pred:             uint32(pid),
			Triples:          vals[0],
			DistinctSubjects: vals[1],
			DistinctObjects:  vals[2],
		})
	}
	return out, nil
}

// Close reads the checksum trailer and verifies it against everything read
// so far. It must be called after the declared terms and triples have been
// consumed; a version-2 stats section not consumed via Stats is read and
// discarded so the checksum still covers the whole stream.
func (sr *Reader) Close() error {
	if sr.version != VersionV1 && !sr.statsRead {
		if _, err := sr.Stats(); err != nil {
			return err
		}
	}
	want := sr.cr.crc.Sum32()
	var tr [4]byte
	if _, err := io.ReadFull(sr.raw, tr[:]); err != nil {
		return fmt.Errorf("%w: missing checksum trailer: %v", ErrChecksum, err)
	}
	if got := binary.LittleEndian.Uint32(tr[:]); got != want {
		return fmt.Errorf("%w: stored %08x, computed %08x", ErrChecksum, got, want)
	}
	return nil
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
)

var testTerms = []rdf.Term{
	rdf.IRI("http://e/s"),
	rdf.BlankNode("b0"),
	rdf.NewLiteral("plain"),
	rdf.NewLangLiteral("hello", "en"),
	rdf.NewTypedLiteral("42", rdf.IRI("http://www.w3.org/2001/XMLSchema#integer")),
}

type id3 struct{ s, p, o uint32 }

var testTriples = []id3{{1, 1, 2}, {1, 1, 3}, {2, 1, 4}, {5, 1, 1}}

func encode(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, len(testTerms), len(testTriples))
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range testTerms {
		if err := w.Term(tm); err != nil {
			t.Fatal(err)
		}
	}
	for _, tr := range testTriples {
		if err := w.Triple(tr.s, tr.p, tr.o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	checkDecodes(t, encode(t))
}

// checkDecodes reads image back as testTerms and testTriples.
func checkDecodes(t *testing.T, image []byte) {
	t.Helper()
	r, err := NewReader(image)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumTerms() != uint64(len(testTerms)) || r.NumTriples() != uint64(len(testTriples)) {
		t.Fatalf("header counts = %d/%d", r.NumTerms(), r.NumTriples())
	}
	for i, want := range testTerms {
		got, err := r.Term()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("term %d = %v, want %v", i, got, want)
		}
	}
	for i, want := range testTriples {
		s, p, o, err := r.Triple()
		if err != nil {
			t.Fatal(err)
		}
		if (id3{s, p, o}) != want {
			t.Fatalf("triple %d = {%d %d %d}, want %v", i, s, p, o, want)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatalf("end of image: %v", err)
	}
}

func TestBadMagic(t *testing.T) {
	data := encode(t)
	data[0] ^= 0xFF
	if _, err := NewReader(data); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestUnsupportedVersion(t *testing.T) {
	for _, v := range []byte{99, 1} {
		data := encode(t)
		data[8] = v
		if _, err := NewReader(data); !errors.Is(err, ErrVersion) {
			t.Fatalf("version %d: err = %v, want ErrVersion", v, err)
		}
	}
}

func TestChecksumDetectsFlippedByte(t *testing.T) {
	data := encode(t)
	data[30] ^= 0x01 // inside the dictionary payload
	if _, err := NewReader(data); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestTruncationDetected(t *testing.T) {
	data := encode(t)
	for _, cut := range []int{len(data) - 1, len(data) - 4, 27, 10} {
		if _, err := NewReader(data[:cut]); !errors.Is(err, ErrChecksum) {
			t.Fatalf("truncation at %d: err = %v, want ErrChecksum", cut, err)
		}
	}
}

func TestWriterRejectsOutOfOrderSubjects(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Triple(2, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Triple(1, 1, 1); err == nil {
		t.Fatal("out-of-order subject accepted")
	}
}

// TestCorruptStringLength: a string length the writer cannot have written,
// under a valid checksum, is refused by the decoder — an absurd one, and one
// padded to a second byte (every uvarint has one spelling).
func TestCorruptStringLength(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Term(rdf.IRI("http://e/x")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// data[29] is the IRI's one-byte length.
	for _, length := range [][]byte{
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
		{data[29] | 0x80, 0x00},
	} {
		image := append(append(append([]byte{}, data[:29]...), length...), data[30:len(data)-4]...)
		image = binary.LittleEndian.AppendUint32(image, crc32.ChecksumIEEE(image))
		r, err := NewReader(image)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Term(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("length %x: err = %v, want ErrCorrupt", length, err)
		}
	}
}

// TestSkipsFilledStatsSection: an image whose stats section an older writer
// filled in reads as the same terms and triples. The image is the shared
// fixture as the last writer of a filled section wrote it, with two entries.
func TestSkipsFilledStatsSection(t *testing.T) {
	data, err := os.ReadFile("testdata/fixture-stats.snap")
	if err != nil {
		t.Fatal(err)
	}
	checkDecodes(t, data)
}

// TestV2RejectsUnsortedInput pins the v2 writer's strict-order checks and the
// reader's duplicate detection.
func TestV2RejectsUnsortedInput(t *testing.T) {
	newW := func() *Writer {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, 5, 2)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	w := newW()
	if err := w.Triple(2, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Triple(2, 1, 1); err == nil {
		t.Fatal("duplicate triple accepted")
	}
	w = newW()
	if err := w.Triple(2, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Triple(2, 1, 5); err == nil {
		t.Fatal("descending predicate under one subject accepted")
	}
	w = newW()
	if err := w.Triple(0, 1, 1); err == nil {
		t.Fatal("subject ID 0 accepted")
	}
}

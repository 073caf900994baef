package snapshot

import (
	"bytes"
	"errors"
	"io"
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
	data := encode(t)
	r, err := NewReader(bytes.NewReader(data))
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
		t.Fatalf("checksum verify: %v", err)
	}
}

func TestBadMagic(t *testing.T) {
	data := encode(t)
	data[0] ^= 0xFF
	if _, err := NewReader(bytes.NewReader(data)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestUnsupportedVersion(t *testing.T) {
	data := encode(t)
	data[8] = 99
	if _, err := NewReader(bytes.NewReader(data)); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestChecksumDetectsFlippedByte(t *testing.T) {
	data := encode(t)
	data[30] ^= 0x01 // inside the dictionary payload
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var readErr error
	for i := 0; i < len(testTerms) && readErr == nil; i++ {
		_, readErr = r.Term()
	}
	for i := 0; i < len(testTriples) && readErr == nil; i++ {
		_, _, _, readErr = r.Triple()
	}
	if readErr == nil {
		readErr = r.Close()
	}
	if readErr == nil {
		t.Fatal("flipped payload byte went undetected")
	}
}

func TestTruncationDetected(t *testing.T) {
	data := encode(t)
	for _, cut := range []int{len(data) - 1, len(data) - 4, 27, 10} {
		r, err := NewReader(bytes.NewReader(data[:cut]))
		if err != nil {
			continue // truncated inside the header: already an error
		}
		var readErr error
		for i := 0; i < len(testTerms) && readErr == nil; i++ {
			_, readErr = r.Term()
		}
		for i := 0; i < len(testTriples) && readErr == nil; i++ {
			_, _, _, readErr = r.Triple()
		}
		if readErr == nil {
			readErr = r.Close()
		}
		if readErr == nil {
			t.Fatalf("truncation at %d went undetected", cut)
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

func TestCorruptStringLength(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 1, 0)
	w.Term(rdf.IRI("http://e/x"))
	w.Close()
	data := buf.Bytes()
	// Overwrite the IRI length varint with an absurd value (10 bytes, all
	// continuation bits set except the last).
	big := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	corrupted := append(append(append([]byte{}, data[:29]...), big...), data[30:]...)
	r, err := NewReader(bytes.NewReader(corrupted))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Term(); !errors.Is(err, ErrCorrupt) && err != io.ErrUnexpectedEOF {
		if err == nil {
			t.Fatal("absurd string length accepted")
		}
	}
}

// TestV1RoundTrip pins backward compatibility: a legacy-format stream decodes
// to the same terms and triples through the same Reader. The image is the
// shared fixture as the last commit that could write version 1 wrote it.
func TestV1RoundTrip(t *testing.T) {
	data, err := os.ReadFile("testdata/fixture-v1.snap")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != VersionV1 {
		t.Fatalf("Version() = %d, want %d", r.Version(), VersionV1)
	}
	for range testTerms {
		if _, err := r.Term(); err != nil {
			t.Fatal(err)
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
	if stats, err := r.Stats(); err != nil || stats != nil {
		t.Fatalf("v1 Stats() = %v, %v; want nil, nil", stats, err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("checksum verify: %v", err)
	}
}

// TestStatsRoundTrip pins the v2 stats section, including that Close skips
// an unread section without breaking the checksum.
func TestStatsRoundTrip(t *testing.T) {
	stats := []PredStat{
		{Pred: 1, Triples: 4, DistinctSubjects: 3, DistinctObjects: 4},
		{Pred: 3, Triples: 7, DistinctSubjects: 1, DistinctObjects: 7},
	}
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
	if err := w.Stats(stats); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != Version {
		t.Fatalf("Version() = %d, want %d", r.Version(), Version)
	}
	for range testTerms {
		if _, err := r.Term(); err != nil {
			t.Fatal(err)
		}
	}
	for range testTriples {
		if _, _, _, err := r.Triple(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(stats) {
		t.Fatalf("got %d stats entries, want %d", len(got), len(stats))
	}
	for i := range got {
		if got[i] != stats[i] {
			t.Fatalf("stats[%d] = %+v, want %+v", i, got[i], stats[i])
		}
	}
	if err := r.Close(); err != nil {
		t.Fatalf("checksum verify: %v", err)
	}

	// Reading the same stream but never calling Stats must still checksum.
	r2, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for range testTerms {
		if _, err := r2.Term(); err != nil {
			t.Fatal(err)
		}
	}
	for range testTriples {
		if _, _, _, err := r2.Triple(); err != nil {
			t.Fatal(err)
		}
	}
	if err := r2.Close(); err != nil {
		t.Fatalf("checksum verify with skipped stats: %v", err)
	}
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
	w = newW()
	if err := w.Stats([]PredStat{{Pred: 2}, {Pred: 2}}); err == nil {
		t.Fatal("unsorted stats accepted")
	}
}

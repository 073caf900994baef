package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/snapshot"
)

// buildMixedStore returns a store exercising every term kind plus pending
// delta entries and tombstones (i.e. deliberately not compacted).
func buildMixedStore(t *testing.T) *Store {
	t.Helper()
	st := New()
	var batch []rdf.Triple
	for i := 0; i < 50; i++ {
		batch = append(batch, tr(fmt.Sprintf("s%d", i%10), fmt.Sprintf("p%d", i%3), fmt.Sprintf("o%d", i)))
	}
	batch = append(batch,
		rdf.T(rdf.BlankNode("b1"), iri("p0"), rdf.NewLiteral("plain")),
		rdf.T(iri("s0"), iri("label"), rdf.NewLangLiteral("athens", "en")),
		rdf.T(iri("s1"), iri("pop"), rdf.NewInteger(664046)),
	)
	if _, err := st.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	st.Compact()
	// Leave uncompacted state behind: a delta insert and a tombstone.
	if err := st.Add(tr("sX", "pX", "oX")); err != nil {
		t.Fatal(err)
	}
	if !st.Delete(tr("s0", "p0", "o0")) {
		t.Fatal("delete failed")
	}
	return st
}

func snapshotEqual(t *testing.T, a, b *Store) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("Len: %d != %d", a.Len(), b.Len())
	}
	at, bt := a.Triples(), b.Triples()
	seen := make(map[rdf.Triple]struct{}, len(at))
	for _, tr := range at {
		seen[tr] = struct{}{}
	}
	for _, tr := range bt {
		if _, ok := seen[tr]; !ok {
			t.Fatalf("restored store missing triple %v", tr)
		}
	}
	if len(at) != len(bt) {
		t.Fatalf("triple counts differ: %d != %d", len(at), len(bt))
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	st := buildMixedStore(t)
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	snapshotEqual(t, st, got)
	if got.NumTerms() != st.NumTerms() {
		t.Fatalf("NumTerms: %d != %d", got.NumTerms(), st.NumTerms())
	}
	if got.Generation() == 0 {
		t.Fatal("restored non-empty store must have a non-zero generation")
	}
	// The restored store must answer pattern queries identically.
	for _, p := range []Pattern{{}, {S: iri("s1")}, {P: iri("p0")}, {O: iri("o3")}} {
		if a, b := st.Count(p), got.Count(p); a != b {
			t.Fatalf("Count(%v): %d != %d", p, a, b)
		}
	}
	// And remain fully writable.
	if err := got.Add(tr("new", "new", "new")); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotEmptyStore(t *testing.T) {
	var buf bytes.Buffer
	if err := New().WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.Generation() != 0 {
		t.Fatalf("empty snapshot: Len=%d gen=%d", got.Len(), got.Generation())
	}
}

func TestSnapshotDetectsCorruption(t *testing.T) {
	st := buildMixedStore(t)
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, off := range []int{9, 40, len(data) / 2, len(data) - 2} {
		mutated := append([]byte{}, data...)
		mutated[off] ^= 0x10
		if _, err := ReadSnapshot(bytes.NewReader(mutated)); err == nil {
			t.Fatalf("corruption at offset %d went undetected", off)
		}
	}
	for _, cut := range []int{5, 20, len(data) / 3, len(data) - 1} {
		if _, err := ReadSnapshot(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d went undetected", cut)
		}
	}
}

// TestSnapshotRejectsAbsurdHeaderCounts: header counts are unverified until
// the trailing checksum, so a tampered header claiming 2^60 terms must come
// back as an error — not abort the process in an allocation.
func TestSnapshotRejectsAbsurdHeaderCounts(t *testing.T) {
	st := buildMixedStore(t)
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, tc := range []struct {
		name string
		off  int
	}{
		{"terms", 12},
		{"triples", 20},
	} {
		mutated := append([]byte{}, data...)
		binary.LittleEndian.PutUint64(mutated[tc.off:tc.off+8], 1<<60)
		if _, err := ReadSnapshot(bytes.NewReader(mutated)); err == nil {
			t.Fatalf("absurd %s count accepted", tc.name)
		}
	}
	// A large-but-plausible count with no matching payload must also fail
	// cleanly (runs out of input) rather than pre-allocating for it.
	mutated := append([]byte{}, data...)
	binary.LittleEndian.PutUint64(mutated[12:20], 50_000_000)
	if _, err := ReadSnapshot(bytes.NewReader(mutated)); err == nil {
		t.Fatal("oversized term count with truncated payload accepted")
	}
}

func TestSnapshotFileAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.snap")
	st := buildMixedStore(t)
	if err := st.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a grown store; the file must be replaced wholesale.
	if err := st.Add(tr("more", "more", "more")); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snapshotEqual(t, st, got)
	// No temp debris left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("snapshot dir holds %d entries, want 1", len(entries))
	}
}

// TestSnapshotConcurrentWriters snapshots while writers mutate the store;
// under -race this pins the capture-outside-the-lock serialization path.
func TestSnapshotConcurrentWriters(t *testing.T) {
	st := buildMixedStore(t)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				st.Add(tr(fmt.Sprintf("cw%d", w), "p", fmt.Sprintf("o%d", i)))
				if i%7 == 0 {
					st.Delete(tr(fmt.Sprintf("cw%d", w), "p", fmt.Sprintf("o%d", i/2)))
				}
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := st.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSnapshot(&buf); err != nil {
			t.Fatalf("snapshot %d failed verification: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestSnapshotRestoresStatsImage: an image whose stats section is filled in
// restores to an identical store, and this build writes the same store as the
// same bytes up to that section, which it leaves empty. The image,
// testdata/mixed-stats.snap, is this store as the last writer of a filled
// section wrote it.
func TestSnapshotRestoresStatsImage(t *testing.T) {
	st := buildMixedStore(t)
	st.Compact()
	image, err := os.ReadFile("testdata/mixed-stats.snap")
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshotFile("testdata/mixed-stats.snap")
	if err != nil {
		t.Fatalf("restoring the image: %v", err)
	}
	snapshotEqual(t, st, got)
	// A restore builds no tally: the restored store counts on first use,
	// like any other store.
	if got.Observe().TallyBuilds != 0 {
		t.Fatal("restore built a statistics tally nobody asked for")
	}
	if !reflect.DeepEqual(got.Cardinalities(), recountCardinalities(got)) {
		t.Fatal("restored store's cardinalities differ from a recount")
	}

	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	mine := buf.Bytes()
	n := len(mine) - 5 // before the empty stats section and the trailer
	if !bytes.Equal(mine[:n], image[:n]) || mine[n] != 0 || image[n] == 0 {
		t.Fatalf("image differs before the stats section:\n got  %x\n want %x", mine, image)
	}
}

// TestSnapshotRejectsInvalidTriple: restore refuses, under a valid checksum,
// the triples AddBatch and WAL replay refuse — a literal subject, an empty
// predicate.
func TestSnapshotRejectsInvalidTriple(t *testing.T) {
	for _, terms := range [][]rdf.Term{
		{rdf.NewLiteral("x"), iri("p"), iri("o")},
		{iri("s"), rdf.IRI(""), iri("o")},
	} {
		var buf bytes.Buffer
		sw, err := snapshot.NewWriter(&buf, len(terms), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, tm := range terms {
			if err := sw.Term(tm); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.Triple(1, 2, 3); err != nil {
			t.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSnapshot(&buf); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("%v: ReadSnapshot = %v; want ErrCorrupt", terms, err)
		}
	}
}

package main

import (
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"sort"
	"testing"

	"github.com/lodviz/lodviz/internal/ledger"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
	"github.com/lodviz/lodviz/internal/wal"
)

func rt(s, o string) rdf.Triple {
	return rdf.Triple{S: rdf.IRI("http://r/" + s), P: "http://r/p", O: rdf.NewLiteral(o)}
}

// model is the set of acknowledged triples, in Triple.String form.
type model map[string]bool

func (m model) apply(t *testing.T, st *store.Store, op wal.Op, batch ...rdf.Triple) {
	t.Helper()
	var err error
	if op == wal.OpAdd {
		_, err = st.AddBatch(batch)
	} else {
		_, err = st.DeleteBatch(batch)
	}
	if err != nil {
		t.Fatalf("%v %v: %v", op, batch, err)
	}
	for _, tp := range batch {
		m[tp.String()] = op == wal.OpAdd
	}
}

func (m model) sorted() []string {
	var out []string
	for k, present := range m {
		if present {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func storeSet(st *store.Store) []string {
	var out []string
	for _, tp := range st.Triples() {
		out = append(out, tp.String())
	}
	sort.Strings(out)
	return out
}

// TestRecoveryThroughSnapshotterAndOpenWAL drives lodvizd's own durability
// path over two lives: openWAL on an empty log, writes, snapshotter.save
// (which truncates the log through its frontier), more writes and a close;
// then openStore restores the snapshot and openWAL replays the suffix. The
// recovered triples must equal the acknowledged ones, and the rebuilt
// ledger must commit to exactly the records that survived truncation.
func TestRecoveryThroughSnapshotterAndOpenWAL(t *testing.T) {
	dir := t.TempDir()
	snapPath, walPath := filepath.Join(dir, "store.snap"), filepath.Join(dir, "store.wal")
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	acked := model{}

	// First life.
	loaded := []rdf.Triple{rt("base", "0"), rt("kept", "0")}
	st, err := store.Load(loaded)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range loaded {
		acked[tp.String()] = true
	}
	walLog, _, err := openWAL(walPath, wal.SyncAlways, nil, st, logger)
	if err != nil {
		t.Fatal(err)
	}
	acked.apply(t, st, wal.OpAdd, rt("a", "1"), rt("b", "2"), rt("c", "3"))
	acked.apply(t, st, wal.OpDelete, rt("b", "2"), rt("base", "0"))
	acked.apply(t, st, wal.OpAdd, rt("d", "4"))
	frontier := walLog.LastSeq()
	if frontier != 3 {
		t.Fatalf("LastSeq before save = %d, want 3", frontier)
	}

	sn := &snapshotter{path: snapPath, st: st, wal: walLog, logger: logger}
	if err := sn.save("test"); err != nil {
		t.Fatal(err)
	}
	survivors := 0
	if _, err := wal.Replay(walPath, func(wal.Record) error { survivors++; return nil }); err != nil {
		t.Fatal(err)
	}
	if survivors != 0 {
		t.Fatalf("%d records survive the save, want 0 (truncated through %d)", survivors, frontier)
	}

	// After the snapshot: delete a snapshotted triple, re-add a triple the
	// snapshot lacks, and delete-then-re-add one it holds.
	acked.apply(t, st, wal.OpDelete, rt("a", "1"))
	acked.apply(t, st, wal.OpAdd, rt("b", "2"), rt("e", "5"))
	acked.apply(t, st, wal.OpDelete, rt("kept", "0"))
	acked.apply(t, st, wal.OpAdd, rt("kept", "0"))
	if err := walLog.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := storeSet(st), acked.sorted(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("first life holds %v, want %v", got, want)
	}

	// Second life.
	st2, source, err := openStore(snapPath, "")
	if err != nil {
		t.Fatal(err)
	}
	if source != snapPath {
		t.Fatalf("openStore source = %q, want the snapshot %q", source, snapPath)
	}
	walLog2, led, err := openWAL(walPath, wal.SyncAlways, nil, st2, logger)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := walLog2.Close(); err != nil {
			t.Error(err)
		}
	}()
	if got, want := storeSet(st2), acked.sorted(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}

	want := ledger.New()
	if _, err := wal.Replay(walPath, func(rec wal.Record) error {
		want.Append(rec.Seq, rec.Payload)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	got, exp := led.Root(), want.Root()
	if got != exp {
		t.Fatalf("ledger after recovery = %+v, want %+v", got, exp)
	}
	if got.Count != 4 || got.FirstSeq != frontier+1 || got.LastSeq != frontier+4 {
		t.Fatalf("ledger covers %d records, seqs %d..%d; want the 4 after seq %d",
			got.Count, got.FirstSeq, got.LastSeq, frontier)
	}
}

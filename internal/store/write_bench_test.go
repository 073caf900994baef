package store_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/sparql"
	"github.com/lodviz/lodviz/internal/store"
	"github.com/lodviz/lodviz/internal/wal"
)

// BenchmarkWriteSession measures the durable write path: a fixed commit
// session bare, through the WAL without fsync, and through the full
// group-committed fsync pipeline — plus the same synced session while
// concurrent readers keep querying the store, the shape a live exploration
// endpoint sees (reads invalidated by every generation bump). Each timed
// operation is one complete session over a fresh store, so the measurement
// does not drift with the iteration count the benchmark happens to pick.
func BenchmarkWriteSession(b *testing.B) {
	b.Run("bare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			commitSession(b, store.New())
		}
	})
	b.Run("wal_nosync", benchWALSession(wal.SyncNone))
	b.Run("wal_sync", benchWALSession(wal.SyncAlways))

	// The same synced session while two readers each run a fixed number of
	// queries concurrently — each effective batch bumps the generation, so
	// every read replans against fresh state. The reader work is a fixed
	// count (not free-running until the writer finishes) so every timed
	// operation performs identical total work; otherwise the measurement
	// swings with however many reads the scheduler happens to fit in.
	const readerQueries = 60
	b.Run("wal_sync_readers", func(b *testing.B) {
		dir := b.TempDir()
		query, err := sparql.Parse(`SELECT ?s ?v WHERE { ?s <http://bench/value> ?v } LIMIT 20`)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			st, log := newWALStore(b, dir, wal.SyncAlways)
			var wg sync.WaitGroup
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for q := 0; q < readerQueries; q++ {
						if _, err := sparql.EvalCtx(context.Background(), st, query, sparql.Options{Parallelism: 1}); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			commitSession(b, st)
			wg.Wait()
			if err := log.Close(); err != nil {
				b.Fatal(err)
			}
			os.Remove(filepath.Join(dir, "bench.wal"))
		}
	})
}

const (
	// writeBatchSize triples per committed batch, writeBatches batches per
	// timed session.
	writeBatchSize = 100
	writeBatches   = 20
)

// writeBatch builds a fresh, never-before-inserted batch so every timed
// AddBatch is an effective (logged, applied) write.
func writeBatch(i int) []rdf.Triple {
	ts := make([]rdf.Triple, 0, writeBatchSize)
	for j := 0; j < writeBatchSize; j++ {
		ts = append(ts, rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("http://bench/w/e%d-%d", i, j)),
			P: "http://bench/value",
			O: rdf.NewInteger(int64(i*writeBatchSize + j)),
		})
	}
	return ts
}

// newWALStore attaches a fresh WAL under dir to a fresh store.
func newWALStore(b *testing.B, dir string, policy wal.SyncPolicy) (*store.Store, *wal.Log) {
	log, err := wal.Open(filepath.Join(dir, "bench.wal"), wal.Options{Sync: policy})
	if err != nil {
		b.Fatal(err)
	}
	st := store.New()
	st.SetWAL(log)
	return st, log
}

// commitSession drives one fixed write session against st.
func commitSession(b *testing.B, st *store.Store) {
	for i := 0; i < writeBatches; i++ {
		if _, err := st.AddBatch(writeBatch(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWALSession times WAL-backed sessions; the log is recreated per
// iteration (an Open on a removed path is far cheaper than the commits it
// precedes) so every session starts from the same empty state.
func benchWALSession(policy wal.SyncPolicy) func(b *testing.B) {
	return func(b *testing.B) {
		dir := b.TempDir()
		for i := 0; i < b.N; i++ {
			st, log := newWALStore(b, dir, policy)
			commitSession(b, st)
			if err := log.Close(); err != nil {
				b.Fatal(err)
			}
			os.Remove(filepath.Join(dir, "bench.wal"))
		}
	}
}

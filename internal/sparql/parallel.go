package sparql

import (
	"context"
	"runtime"
	"sync/atomic"

	"github.com/lodviz/lodviz/internal/explain"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// The worker pool. The engine has one way to use several cores: split the
// rows a stage works on (ID rows probing the indexes, bindings entering an
// OPTIONAL) into contiguous chunks, run the chunks on workers, and put the
// outputs back together in chunk order. The store's indexes are read-only
// under RLock, so probes never contend on data; every chunk keeps the
// sequential order inside and chunks are joined by index, so the result is
// byte for byte the sequential loop's and queries without ORDER BY stay
// deterministic at every Parallelism.
//
// Worker accounting is engine-wide: an engine holds par-1 spare-worker
// tokens, every parChunks call runs the calling goroutine as one worker and
// borrows extra workers non-blockingly from that budget. Nested fan-out
// (OPTIONAL chunks whose inner groups fan out again) therefore degrades to
// inline evaluation instead of multiplying goroutines, and total concurrency
// stays bounded by Parallelism.

// parallelThreshold is the minimum binding-set size before fan-out pays for
// the goroutine and channel overhead; smaller inputs run sequentially.
const parallelThreshold = 32

// chunksPerWorker oversubscribes chunks relative to workers so a straggler
// chunk (one hub entity with a huge index range) doesn't idle the pool.
const chunksPerWorker = 4

// Options configure query evaluation.
type Options struct {
	// Parallelism is the worker count for basic-graph-pattern evaluation.
	// 0 selects runtime.NumCPU(); values below 0 and 1 force sequential
	// evaluation. Results are identical (including order) at every
	// setting.
	Parallelism int
	// Service evaluates SERVICE clauses against remote endpoints. When nil,
	// SERVICE fails the query and SERVICE SILENT degrades to the local
	// partial result.
	Service ServiceEvaluator
	// Metrics, when set, receives aggregate engine counters (pattern runs,
	// rows, scanned matches/pages, pushdown hits). Nil costs one pointer
	// check per flush site.
	Metrics *Metrics
	// Trace, when set, receives the query's execution span tree:
	// parse/plan/execute spans plus one child per pattern stage with the
	// join strategy and row counts. Nil disables tracing entirely.
	Trace *explain.Trace
}

// workers resolves the option to an effective worker count.
func (o Options) workers() int {
	if o.Parallelism == 0 {
		return runtime.NumCPU()
	}
	if o.Parallelism < 1 {
		return 1
	}
	return o.Parallelism
}

// newEngine builds an engine for one query evaluation.
func newEngine(ctx context.Context, st store.Source, opt Options) *engine {
	e := &engine{ctx: ctx, st: st, par: opt.workers(), svc: opt.Service, met: opt.Metrics, trace: opt.Trace, ids: map[rdf.Term]store.ID{}}
	if e.par > 1 {
		e.sem = make(chan struct{}, e.par-1)
	}
	return e
}

// parChunks runs fn over contiguous [lo,hi) chunks of n items on the
// engine's worker budget and returns the chunk outputs in chunk order, so
// joining them end to end gives exactly fn(0, n)'s sequential output. fn must
// be safe for concurrent calls on disjoint chunks. Fewer than
// parallelThreshold items, an engine with par<=1, or an exhausted worker
// budget evaluate inline with no goroutines spawned.
//
// limit >= 0 says only the first limit rows of the joined output are needed
// (size counts an output's rows; limit < 0 = all of them, size unused). fn
// should then stop at limit rows itself — one chunk alone can never
// contribute more than the whole result — and once the in-order committed
// prefix holds limit rows, workers skip every chunk not yet started (its
// output is T's zero value): the work queue hands chunks out in index
// order, so an unstarted chunk comes after everything already committed and
// cannot reach the output. The first chunk always runs. The caller cuts the
// joined output to limit.
func parChunks[T any](e *engine, n, limit int, size func(T) int, fn func(lo, hi int) (T, error)) ([]T, error) {
	inline := func() ([]T, error) {
		out, err := fn(0, n)
		if err != nil {
			return nil, err
		}
		return []T{out}, nil
	}
	if e.par <= 1 || n < parallelThreshold {
		return inline()
	}
	// Borrow extra workers beyond the calling goroutine. Non-blocking:
	// a nested call finding the budget spent stays inline rather than
	// deadlocking on tokens held by its ancestors.
	extra := 0
acquire:
	for extra < min(e.par, n)-1 {
		select {
		case e.sem <- struct{}{}:
			extra++
		default:
			break acquire
		}
	}
	if extra == 0 {
		return inline()
	}

	nchunks := (extra + 1) * chunksPerWorker
	chunkSize := (n + nchunks - 1) / nchunks
	nchunks = (n + chunkSize - 1) / chunkSize

	type result struct {
		idx int
		out T
		err error
	}
	work := make(chan int, nchunks)
	for i := 0; i < nchunks; i++ {
		work <- i
	}
	close(work)
	results := make(chan result, nchunks)
	// filled flips once the merger has committed limit rows in order; chunks
	// pulled after that are answered empty without touching the store.
	var filled atomic.Bool
	worker := func(drain func()) {
		for idx := range work {
			if filled.Load() {
				results <- result{idx: idx}
				continue
			}
			lo := idx * chunkSize
			out, err := fn(lo, min(lo+chunkSize, n))
			results <- result{idx: idx, out: out, err: err}
			if drain != nil {
				drain()
			}
		}
	}
	for i := 0; i < extra; i++ {
		go func() {
			defer func() { <-e.sem }() // return the token as soon as this worker drains
			worker(nil)
		}()
	}

	// Index-sequenced merge: chunks finish in any order; buffer the
	// out-of-order ones and commit each as its turn comes, so the output
	// (and the reported error, if any) match sequential evaluation. The
	// caller is worker zero AND the merger: it commits whatever results
	// are already available between its own chunks, so filled can flip
	// while later chunks are still queued — that is what makes the skip
	// above reachable.
	pending := make(map[int]result, nchunks)
	received, rows := 0, 0
	outs := make([]T, 0, nchunks)
	var firstErr error
	commit := func(r result) {
		received++
		pending[r.idx] = r
		for {
			c, ok := pending[len(outs)]
			if !ok {
				break
			}
			delete(pending, len(outs))
			outs = append(outs, c.out)
			if firstErr != nil || limit >= 0 && rows >= limit {
				// Past an error nothing counts; past the filled limit a
				// chunk is unreachable in sequential order, and its
				// (cancellation) error must not fail a complete result.
				continue
			}
			if c.err != nil {
				firstErr = c.err
				continue
			}
			if limit >= 0 {
				if rows += size(c.out); rows >= limit {
					filled.Store(true)
				}
			}
		}
	}
	worker(func() {
		for {
			select {
			case r := <-results:
				commit(r)
			default:
				return
			}
		}
	})
	for received < nchunks {
		commit(<-results)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return outs, nil
}

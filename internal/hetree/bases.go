package hetree

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// Bases keeps the Base of every property asked for, across requests and
// across store generations, the way keyword.Lazy keeps its index: a tree at
// any budget and of any shape then costs the nodes it materializes, over a
// base that is already there. When the store has moved on, a base is
// validated as the /hetree response over it is, against the footprint
// (*, prop, *) in the store's change log: carried forward if no write since
// names the predicate, collected again if one does or the log no longer
// covers the span — never patched (see the package comment). It needs no
// capacity: all bases together hold at most one entry per triple in the
// store, 20 bytes each. Safe for concurrent use.
type Bases struct {
	src store.Source
	st  *store.Store

	mu   sync.Mutex
	held map[store.ID]*heldBase // by predicate ID, which the store never reassigns

	built, reused atomic.Uint64
	buildNanos    atomic.Uint64
}

// heldBase is one property's slot; mu admits one builder at a time, so
// requests for a base that is being collected wait for it and share it.
type heldBase struct {
	mu   sync.Mutex
	base *Base  // nil until first collected
	gen  uint64 // every change up to gen is reflected in base
}

// BasesStats is a point-in-time instrumentation view of a Bases (the package
// keeps no metric handles; the server polls this at scrape time).
type BasesStats struct {
	// Built counts the times a tree's base had to be collected from the
	// store, Reused the times the kept one was current or could be carried
	// forward; BuildSeconds is the time the collections took.
	Built, Reused uint64
	BuildSeconds  float64
}

// NewBases returns a holder of bases collected from src, whose writes st's
// change log records; normally both are the one store. Nothing is built
// until first use.
func NewBases(src store.Source, st *store.Store) *Bases {
	return &Bases{src: src, st: st, held: map[store.ID]*heldBase{}}
}

// Stats returns the counters.
func (b *Bases) Stats() BasesStats {
	return BasesStats{
		Built: b.built.Load(), Reused: b.reused.Load(),
		BuildSeconds: time.Duration(b.buildNanos.Load()).Seconds(),
	}
}

// Tree starts a tree of the given shape over the property's base as of the
// store's current contents, collecting the base only if none is kept or a
// write has touched the property since. The tree is the caller's own; the
// base under it is shared and immutable.
func (b *Bases) Tree(ctx context.Context, prop rdf.IRI, opts Options) (*Tree, error) {
	pid, ok := b.src.LookupTermID(prop)
	if !ok {
		return nil, ErrNoValues
	}
	base, err := b.current(ctx, pid)
	if err != nil {
		return nil, err
	}
	return base.tree(b.src, opts)
}

// current returns the predicate's base, reflecting at least every change up
// to the generation the store is at when it is called.
func (b *Bases) current(ctx context.Context, pid store.ID) (*Base, error) {
	// Read before anything is scanned: the collection sees the store at gen
	// or later, and filing the base under gen leaves a write that slipped in
	// between inside the span the next caller checks. Read afterwards, the
	// base would vouch for a write it may not hold.
	gen := b.src.Generation()
	b.mu.Lock()
	h := b.held[pid]
	if h == nil {
		h = &heldBase{}
		b.held[pid] = h
	}
	b.mu.Unlock()

	h.mu.Lock()
	defer h.mu.Unlock()
	if h.base != nil && (h.gen >= gen || b.carry(h, pid)) {
		b.reused.Add(1)
		return h.base, nil
	}
	start := time.Now()
	h.base = nil // release the stale base before collecting its replacement
	base, err := collect(ctx, b.src, pid)
	if err != nil {
		return nil, err
	}
	h.base, h.gen = base, gen
	b.built.Add(1)
	b.buildNanos.Add(uint64(time.Since(start)))
	return base, nil
}

// carry moves h forward to the log's present if no change since h.gen names
// the predicate — such changes cannot have altered its run — and reports
// whether it did. The caller holds h.mu.
func (b *Bases) carry(h *heldBase, pid store.ID) bool {
	span, now, ok := b.st.DigestsSince(h.gen)
	if !ok || b.st.TouchedBy(&store.Footprint{Patterns: []store.IDTriple{{P: pid}}}, span) {
		return false
	}
	h.gen = now
	return true
}

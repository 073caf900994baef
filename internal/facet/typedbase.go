package facet

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// TypedBase keeps the typed-subject base — the ascending IDs of every
// subject with an rdf:type, which every session starts from — across
// requests and store generations, the way hetree.Bases keeps a property's
// values: opening a session then costs its filters, not a pass over the
// store. The base is one immutable slice, shared by every session opened
// over it and filed under the generation read before it was collected. When
// the store has moved on, it is validated against the footprint
// (*, rdf:type, *) in the store's change log: carried forward if no write
// since names rdf:type, collected again if one does or the log no longer
// covers the span — never patched. A store with no typed subject has
// nothing to keep: its sessions start from all subjects, collected per
// session as NewSessionCtx does. Safe for concurrent use.
type TypedBase struct {
	src store.Source
	st  *store.Store

	// mu admits one collector at a time, so sessions opened while the base
	// is being collected wait for it and share it.
	mu   sync.Mutex
	base []store.ID // nil until first collected
	gen  uint64     // every change up to gen is reflected in base

	built, reused atomic.Uint64
	buildNanos    atomic.Uint64
}

// TypedBaseStats is a point-in-time instrumentation view of a TypedBase
// (the server polls it at scrape time).
type TypedBaseStats struct {
	// Built counts the sessions whose base had to be collected from the
	// store, Reused those opened over the kept one; BuildSeconds is the time
	// the collections took.
	Built, Reused uint64
	BuildSeconds  float64
}

// NewTypedBase returns a holder of the base collected from src, whose writes
// st's change log records; normally both are the one store. Nothing is
// collected until the first session.
func NewTypedBase(src store.Source, st *store.Store) *TypedBase {
	return &TypedBase{src: src, st: st}
}

// Stats returns the counters.
func (b *TypedBase) Stats() TypedBaseStats {
	return TypedBaseStats{
		Built: b.built.Load(), Reused: b.reused.Load(),
		BuildSeconds: time.Duration(b.buildNanos.Load()).Seconds(),
	}
}

// Session starts a session with no filters over the base as of the store's
// current contents: what NewSessionCtx returns, without collecting the base
// again unless a write has touched rdf:type since it was. A cancelled
// context aborts a collection with its error.
func (b *TypedBase) Session(ctx context.Context) (*Session, error) {
	// Read before anything is scanned: the collection sees the store at gen
	// or later, and filing the base under gen leaves a write that slipped in
	// between inside the span the next session checks.
	gen := b.src.Generation()
	typeID, typed := b.src.LookupTermID(rdf.RDFType)
	if typed {
		b.mu.Lock()
		defer b.mu.Unlock()
		if b.base != nil && (b.gen >= gen || b.carry(typeID)) {
			b.reused.Add(1)
			return &Session{src: b.src, base: b.base, typeID: typeID}, nil
		}
		b.base = nil // release the stale base before collecting its replacement
	}
	base, baseType, err := b.collect(ctx)
	if err != nil {
		return nil, err
	}
	if typed && baseType != 0 {
		b.base, b.gen = base, gen
	}
	return &Session{src: b.src, base: base, typeID: baseType}, nil
}

// collect runs collectBase and counts it.
func (b *TypedBase) collect(ctx context.Context) ([]store.ID, store.ID, error) {
	start := time.Now()
	base, typeID, err := collectBase(ctx, b.src)
	if err != nil {
		return nil, 0, err
	}
	b.built.Add(1)
	b.buildNanos.Add(uint64(time.Since(start)))
	return base, typeID, nil
}

// carry moves the kept base forward to the log's present if no change since
// b.gen names rdf:type — such changes cannot have moved a subject in or out
// of the typed set — and reports whether it did. The caller holds b.mu.
func (b *TypedBase) carry(typeID store.ID) bool {
	span, now, ok := b.st.DigestsSince(b.gen)
	if !ok || b.st.TouchedBy(&store.Footprint{Patterns: []store.IDTriple{{P: typeID}}}, span) {
		return false
	}
	b.gen = now
	return true
}

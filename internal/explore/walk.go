package explore

import (
	"context"

	"github.com/lodviz/lodviz/internal/store"
)

// DefaultPageSize is how many triples one Walk page visits between lock
// drops, context checks, and Page callbacks.
const DefaultPageSize = 1 << 14

// walkRestartAttempts bounds how many times Walk restarts after a
// layout-epoch change before degrading to one materialized ScanIDs pass,
// mirroring the store's own paged-scan policy.
const walkRestartAttempts = 3

// WalkHandler receives a Walk's progress. Visit sees every matching triple;
// returning false ends the walk early. Page, if set, runs after every page
// with the number of triples visited so far and whether the scan is
// exhausted — the hook progressive aggregates emit estimates from; returning
// false also ends the walk. Reset, if set, runs when a layout-epoch change
// forces the walk to start over: the consumer must discard everything
// accumulated so far, because pages already visited may be re-visited.
type WalkHandler struct {
	Visit func(t store.IDTriple) bool
	Page  func(scanned int, done bool) bool
	Reset func()
}

// Walk streams the triples matching the (s, p, o) mask (0 = wildcard)
// through h, page by page, releasing the store's read lock between pages so
// a long aggregation never holds up writers. Between pages it honors ctx
// cancellation and watches the source's layout epoch: a compaction shifts
// positional cursors, so the walk restarts from scratch (calling h.Reset);
// after walkRestartAttempts restarts it falls back to one sorted ScanIDs
// run, which cannot be invalidated. pageSize <= 0 selects
// DefaultPageSize.
func Walk(ctx context.Context, src store.Source, s, p, o store.ID, pageSize int, h WalkHandler) error {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	for attempt := 0; attempt < walkRestartAttempts; attempt++ {
		ok, err := walkPaged(ctx, src, s, p, o, pageSize, h)
		if ok || err != nil {
			return err
		}
		if h.Reset != nil {
			h.Reset()
		}
	}
	// Fallback: one consistent run, still honoring ctx between page-sized
	// slices of it. ScanIDs lends the index's own range when the store holds
	// no tombstones and copies the live entries when it does; either way the
	// run is read here, never written.
	run, ok := src.ScanIDs(s, p, o, store.PosAny)
	if !ok {
		return nil
	}
	scanned := 0
	stop := false
	run.ForEachSorted(func(t store.IDTriple) bool {
		if !h.Visit(t) {
			stop = true
			return false
		}
		scanned++
		if scanned%pageSize == 0 {
			if err := ctx.Err(); err != nil {
				stop = true
				return false
			}
			if h.Page != nil && !h.Page(scanned, false) {
				stop = true
				return false
			}
		}
		return true
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	if !stop && h.Page != nil {
		h.Page(scanned, true)
	}
	return nil
}

// walkPaged runs one paged attempt. ok=false reports a layout-epoch change
// that invalidated the cursor (the caller restarts); a non-nil error is
// context cancellation.
func walkPaged(ctx context.Context, src store.Source, s, p, o store.ID, pageSize int, h WalkHandler) (ok bool, err error) {
	epoch := src.LayoutEpoch()
	pos, scanned := 0, 0
	for {
		if err := ctx.Err(); err != nil {
			return true, err
		}
		if src.LayoutEpoch() != epoch {
			return false, nil
		}
		stopped := false
		next, done := src.ForEachIDPage(s, p, o, pos, pageSize, func(t store.IDTriple) bool {
			if !h.Visit(t) {
				stopped = true
				return false
			}
			scanned++
			return true
		})
		if stopped {
			return true, nil
		}
		// A compaction during the page means some of it was visited under
		// the new layout with the old cursor; discard and restart.
		if src.LayoutEpoch() != epoch {
			return false, nil
		}
		pos = next
		if h.Page != nil && !h.Page(scanned, done) {
			return true, nil
		}
		if done {
			return true, nil
		}
	}
}

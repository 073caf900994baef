package ctxflowtest

import (
	"context"

	"github.com/lodviz/lodviz/internal/store"
)

func mintRoot() context.Context {
	return context.Background() // want `context.Background\(\) in mintRoot`
}

func mintTODO() {
	ctx := context.TODO() // want `context.TODO\(\) in mintTODO`
	_ = ctx
}

func nestedLiteralMint() {
	f := func() context.Context {
		return context.Background() // want `context.Background\(\) in nestedLiteralMint`
	}
	_ = f
}

func init() {
	_ = context.Background() // init may mint roots
}

func driveScan(st *store.Store) { // want `driveScan drives a paged store scan \(ScanIDs\)`
	_, _ = st.ScanIDs(0, 0, 0, 0)
}

func driveSource(src store.Source) { // want `driveSource drives a paged store scan \(ScanIDs\)`
	_, _ = src.ScanIDs(0, 0, 0, 0)
}

func drivePage(st *store.Store) { // want `drivePage drives a paged store scan \(ForEachPage\)`
	st.ForEachPage(0, 0, 0, func(store.IDTriple) bool { return true })
}

func driveWithCtx(ctx context.Context, st *store.Store) {
	_, _ = st.ScanIDs(0, 0, 0, 0)
	_ = ctx
}

type executor struct {
	ctx context.Context
	st  *store.Store
}

// The executor-state pattern: the context was threaded at construction.
func (e *executor) drive() {
	_, _ = e.st.ScanIDs(0, 0, 0, 0)
}

type wrapper struct{ st *store.Store }

// Interface plumbing: a scan method wrapping an inner scan method has its
// signature fixed by the Source interface; its callers hold the context.
func (w *wrapper) ForEachID(sub, pred, obj store.ID, fn func(store.IDTriple) bool) {
	w.st.ForEachID(sub, pred, obj, fn)
}

func suppressedRoot() context.Context {
	//lint:allow ctxflow compat wrapper: callers without request scope land here
	return context.Background()
}

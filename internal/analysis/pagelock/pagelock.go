// Package pagelock flags store mutations, nested store scans, and store
// mutex acquisition inside page callbacks.
//
// PR 5's per-page lock discipline makes the classic writer deadlock
// "impossible by construction": ForEachPage / ForEachIDPage hold the
// store's read lock only while one page is delivered, so joining,
// emission, and even consumer writes happen *between* pages. That
// construction protects current call sites only — a new callback that
// mutates the store, starts a second scan, or touches the store mutex
// from *inside* the page reintroduces the nested-RLock-behind-a-queued-
// writer deadlock the design removed. This analyzer turns that rule into
// a build failure.
package pagelock

import (
	"go/ast"
	"go/types"

	"github.com/lodviz/lodviz/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name:       "pagelock",
	Doc:        "flag store mutation, nested scans, and store-mutex Lock/RLock inside page callbacks",
	Invariant:  "a page callback runs under the store's read lock: mutate, snapshot, or re-scan between pages, never inside one",
	DocSection: "internal/analysis/README.md#pagelock",
	Run:        run,
}

// mutators are (*store.Store) methods that take the write lock (or, for
// SetWAL, the full lock) — calling one while a page holds the read lock
// deadlocks as soon as any writer is queued.
var mutators = map[string]bool{
	"Add": true, "AddAll": true, "AddBatch": true,
	"Delete": true, "DeleteBatch": true,
	"Compact": true, "SetWAL": true,
}

// lockedReads are store/source methods that acquire the read lock for the
// duration of the call. sync.RWMutex read locks do not nest behind a
// queued writer, so calling any of these from inside a page callback is
// the same deadlock shape as a mutation.
var lockedReads = map[string]bool{
	"ForEach": true, "ForEachID": true, "ForEachPage": true, "ForEachIDPage": true,
	"ScanIDs": true, "Match": true, "Count": true, "Contains": true,
	"Subjects": true, "Objects": true, "Predicates": true, "Triples": true,
	"EstimateCount": true, "EstimateCountIDs": true, "ComputeStats": true,
	"Cardinalities": true, "PredicateCardinality": true, "DegreeHistogram": true,
	"Generation": true, "LayoutEpoch": true, "Observe": true, "Len": true,
	"NumTerms": true, "Term": true, "Terms": true, "LookupTermID": true,
	"WriteSnapshot": true, "WriteSnapshotFile": true,
}

// pageCallbacks maps scan entry points to the argument index of the
// callback that runs with the read lock held.
var pageCallbacks = map[string]int{
	"ForEach":       1,
	"ForEachID":     3,
	"ForEachPage":   3,
	"ForEachIDPage": 5,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.CalleeFunc(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			if idx, ok := pageCallbacks[fn.Name()]; ok && analysis.IsStoreSource(analysis.RecvType(fn)) {
				if idx < len(call.Args) {
					if lit, ok := ast.Unparen(call.Args[idx]).(*ast.FuncLit); ok {
						checkCallback(pass, lit, fn.Name())
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkCallback walks one page-callback literal, skipping the bodies of
// go-launched function literals: a goroutine spawned from the callback
// only runs its store call after the scheduler lets it, and a blocked
// writer there merely waits for the page to end — the lock is not held on
// the goroutine's stack.
func checkCallback(pass *analysis.Pass, lit *ast.FuncLit, scan string) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// The goroutine's store call runs off the callback's stack:
			// a writer queued ahead of it just delays the goroutine, not
			// the page. Check only the eagerly evaluated arguments.
			for _, arg := range n.Call.Args {
				ast.Inspect(arg, walk)
			}
			return false
		case *ast.CallExpr:
			checkCall(pass, n, scan)
		}
		return true
	}
	ast.Inspect(lit.Body, walk)
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, scan string) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	recv := analysis.RecvType(fn)
	name := fn.Name()
	switch {
	case mutators[name] && analysis.IsNamed(recv, "internal/store", "Store"):
		pass.Reportf(call.Pos(), "store mutation %s inside a %s page callback (the page holds the store read lock; mutate between pages)", name, scan)
	case lockedReads[name] && analysis.IsStoreSource(recv):
		pass.Reportf(call.Pos(), "nested store access %s inside a %s page callback (a nested RLock behind a queued writer deadlocks; read between pages)", name, scan)
	case (name == "Lock" || name == "RLock") && isSyncMutex(recv):
		if base := selectorBase(call); base != nil && touchesStore(pass.TypesInfo, base) {
			pass.Reportf(call.Pos(), "%s on the store's mutex inside a %s page callback (the page already holds the read lock)", name, scan)
		}
	}
}

func isSyncMutex(t types.Type) bool {
	return analysis.IsNamed(t, "sync", "Mutex") || analysis.IsNamed(t, "sync", "RWMutex")
}

// selectorBase returns the expression a method call's selector hangs off
// (x in x.mu.Lock()), or nil.
func selectorBase(call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return sel.X
}

// touchesStore reports whether any subexpression is (a pointer to) the
// concrete store — distinguishing st.mu.Lock() from a consumer's own
// unrelated mutex, which is legal inside a callback.
func touchesStore(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if expr, ok := n.(ast.Expr); ok {
			if analysis.IsNamed(info.TypeOf(expr), "internal/store", "Store") {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

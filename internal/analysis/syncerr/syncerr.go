// Package syncerr flags discarded errors on the durability paths.
//
// The write path's guarantee is exactly as strong as its weakest error
// check: an fsync or WAL-append error that nobody observes is
// acknowledged-write loss — the client got a 200, the bytes are gone.
// Two tiers:
//
//   - Acknowledgement-bearing calls — (*wal.Log).Append / Sync / Close,
//     snapshot writer calls ((*snapshot.Writer).Term/Triple/Close),
//     and the store's WriteSnapshot / WriteSnapshotFile — must have their
//     error consumed, period. Even an explicit `_ =` is a finding: if the
//     error truly cannot matter at a site, say why with //lint:allow.
//
//   - (*os.File).Sync anywhere, and (*os.File).Close inside the
//     durability packages (wal, snapshot, disk, ledger, store, lodvizd),
//     must not be dropped silently (bare statement or bare defer). An
//     explicit `_ = f.Close()` is accepted there: error paths closing a
//     file they are abandoning may discard deliberately, and the blank
//     assignment is the visible record of that decision.
package syncerr

import (
	"go/ast"

	"github.com/lodviz/lodviz/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name:       "syncerr",
	Doc:        "flag discarded errors from WAL append/sync, snapshot writes, and file sync/close on durability paths",
	Invariant:  "a dropped error on the durability path is acknowledged-write loss; every sync/append/close error is handled or visibly discarded",
	DocSection: "internal/analysis/README.md#syncerr",
	Run:        run,
}

// durabilityPkgs are the last path elements of packages where even a
// read-side file close must be visibly handled.
var durabilityPkgs = map[string]bool{
	"wal": true, "snapshot": true, "disk": true, "ledger": true,
	"store": true, "lodvizd": true,
}

func run(pass *analysis.Pass) error {
	strict := inDurabilityPkg(pass)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDropped(pass, call, strict, false)
				}
				return false // the call's arguments can't discard results
			case *ast.DeferStmt:
				checkDropped(pass, n.Call, strict, false)
				return false
			case *ast.GoStmt:
				checkDropped(pass, n.Call, strict, false)
				return false
			case *ast.AssignStmt:
				for _, rhs := range n.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok {
						continue
					}
					// The error is always the last result; with multiple
					// rhs values positions align 1:1.
					if len(n.Rhs) == 1 && isBlank(n.Lhs[len(n.Lhs)-1]) {
						checkDropped(pass, call, strict, true)
					}
				}
			}
			return true
		})
	}
	return nil
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func inDurabilityPkg(pass *analysis.Pass) bool {
	path := pass.Pkg.Path()
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			path = path[i+1:]
			break
		}
	}
	return durabilityPkgs[path]
}

// checkDropped reports call if it is a durability call whose error is
// being dropped. explicitBlank marks `_ = call` / `x, _ := call` sites,
// which tier 2 accepts and tier 1 still rejects.
func checkDropped(pass *analysis.Pass, call *ast.CallExpr, strict, explicitBlank bool) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	recv := analysis.RecvType(fn)
	name := fn.Name()
	pos := call.Pos()

	// Tier 1: acknowledgement-bearing calls. Blank assignment is not an
	// acceptable way to drop these.
	switch {
	case analysis.IsNamed(recv, "internal/wal", "Log") && (name == "Append" || name == "Sync" || name == "Close"):
		pass.Reportf(pos, "error from (*wal.Log).%s discarded: an unobserved WAL %s is acknowledged-write loss", name, verb(name))
		return
	case analysis.IsNamed(recv, "internal/snapshot", "Writer") && (name == "Term" || name == "Triple" || name == "Close"):
		pass.Reportf(pos, "error from (*snapshot.Writer).%s discarded: a torn snapshot write must surface at the call site", name)
		return
	case analysis.IsNamed(recv, "internal/store", "Store") && (name == "WriteSnapshot" || name == "WriteSnapshotFile"):
		pass.Reportf(pos, "error from (*store.Store).%s discarded: a failed snapshot silently narrows WAL truncation safety", name)
		return
	}

	// Tier 2: raw file sync/close.
	if analysis.IsNamed(recv, "os", "File") {
		switch {
		case name == "Sync" && !explicitBlank:
			pass.Reportf(pos, "error from (*os.File).Sync discarded: an unchecked fsync is the definition of silent write loss (handle it, or discard visibly with _ =)")
		case name == "Close" && strict && !explicitBlank:
			pass.Reportf(pos, "error from (*os.File).Close discarded on a durability path: a close error can be the only report of a failed flush (handle it, or discard visibly with _ =)")
		}
	}
}

func verb(name string) string {
	switch name {
	case "Append":
		return "append failure"
	case "Sync":
		return "fsync failure"
	default:
		return "close failure"
	}
}

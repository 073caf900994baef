// Package ctxflow enforces context threading on the scan-driving paths.
//
// Every long-running operation in the engine — paged store scans,
// progressive aggregation, federation round-trips — is cancellable only
// if its driver holds a real caller context. Two rules:
//
//  1. context.Background() / context.TODO() may not be called outside
//     package main, init functions, and _test.go files. A library
//     function that mints its own root context detaches everything below
//     it from request cancellation and server shutdown.
//
//  2. A function that drives a paged store scan (ScanIDs, ForEachPage,
//     ForEachIDPage, ForEachID on a store source) must have a
//     context.Context in hand: a parameter, or a context field on its
//     receiver. Paged scans honor cancellation *between* pages, but only
//     if the loop around them can observe a context. Implementations of
//     the scan methods themselves (wrappers satisfying store.Source) are
//     exempt — the interface fixes their signature, and their callers
//     hold the context.
package ctxflow

import (
	"go/ast"
	"go/types"

	"github.com/lodviz/lodviz/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name:       "ctxflow",
	Doc:        "flag context.Background()/TODO() outside main/init/tests and paged-scan drivers without a context",
	Invariant:  "scan drivers accept and thread a caller context; only main, init, and tests mint root contexts",
	DocSection: "internal/analysis/README.md#ctxflow",
	Run:        run,
}

// scanMethods are the paged-scan entry points on a store source whose
// drivers must be cancellable.
var scanMethods = map[string]bool{
	"ScanIDs": true, "ForEachPage": true, "ForEachIDPage": true, "ForEachID": true,
}

func run(pass *analysis.Pass) error {
	isMain := pass.Pkg.Name() == "main"
	inStore := analysis.PkgIs(pass.Pkg, "internal/store")
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !isMain && fd.Name.Name != "init" {
				checkRootContexts(pass, fd)
			}
			if !isMain && !inStore {
				checkScanDriver(pass, fd)
			}
		}
	}
	return nil
}

// checkRootContexts flags context.Background()/context.TODO() anywhere in
// the declaration (including nested literals).
func checkRootContexts(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
			return true
		}
		if fn.Name() == "Background" || fn.Name() == "TODO" {
			pass.Reportf(call.Pos(), "context.%s() in %s: accept a context.Context and thread it (root contexts belong to main, init, and tests)", fn.Name(), fd.Name.Name)
		}
		return true
	})
}

// checkScanDriver flags declarations that drive a paged scan without any
// context in reach.
func checkScanDriver(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Name.Name == "init" || scanMethods[fd.Name.Name] {
		return // interface plumbing: a ForEachPage wrapping an inner ForEachPage
	}
	obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return
	}
	if analysis.HasContextParam(sig) || recvHasContextField(sig) {
		return
	}
	var scanPos ast.Node
	var scanName string
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if scanPos != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || !scanMethods[fn.Name()] {
			return true
		}
		if analysis.IsStoreSource(analysis.RecvType(fn)) {
			scanPos, scanName = call, fn.Name()
		}
		return true
	})
	if scanPos != nil {
		pass.Reportf(fd.Name.Pos(), "%s drives a paged store scan (%s) but has no context.Context parameter or receiver field: the scan cannot be cancelled", fd.Name.Name, scanName)
	}
}

// recvHasContextField reports whether the method's receiver is a struct
// carrying a context.Context field (the executor-state pattern: the
// context is threaded once at construction).
func recvHasContextField(sig *types.Signature) bool {
	if sig.Recv() == nil {
		return false
	}
	named := analysis.NamedType(sig.Recv().Type())
	if named == nil {
		return false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if analysis.IsContextType(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Type- and callee-resolution helpers shared by the five analyzers.
//
// Package identity is matched by import-path *suffix* ("internal/store"
// matches both github.com/lodviz/lodviz/internal/store and a fixture
// module's internal/store). That keeps the analyzers testable against
// stub packages and fixture modules without weakening them in practice:
// nothing else in the build ends in these suffixes.

// PkgIs reports whether pkg's import path equals suffix or ends in
// "/"+suffix.
func PkgIs(pkg *types.Package, suffix string) bool {
	if pkg == nil {
		return false
	}
	return PathIs(pkg.Path(), suffix)
}

// PathIs reports whether path equals suffix or ends in "/"+suffix.
func PathIs(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// CalleeFunc resolves the function or method a call statically invokes,
// or nil for calls through function values, builtins, and conversions.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		// Package-qualified call: pkg.Fn(...).
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// Deref strips one level of pointer.
func Deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// NamedType returns t as a *types.Named after stripping pointers and
// aliases, or nil.
func NamedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(Deref(types.Unalias(t)))
	n, _ := t.(*types.Named)
	return n
}

// IsNamed reports whether t (or *t) is the named type pkgSuffix.name.
func IsNamed(t types.Type, pkgSuffix, name string) bool {
	n := NamedType(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && PkgIs(obj.Pkg(), pkgSuffix)
}

// RecvType returns the receiver type of a method, or nil for plain
// functions.
func RecvType(f *types.Func) types.Type {
	if f == nil {
		return nil
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

// IsStoreSource reports whether t is the concrete store (internal/store's
// Store) or a store-shaped source interface. The source interface
// (store.Source, and test doubles wrapping it) is recognized structurally
// by the LayoutEpoch method — the epoch contract is what makes a type a
// paged-scan source in this codebase.
func IsStoreSource(t types.Type) bool {
	if t == nil {
		return false
	}
	if IsNamed(t, "internal/store", "Store") {
		return true
	}
	iface, ok := Deref(types.Unalias(t)).Underlying().(*types.Interface)
	if !ok {
		return false
	}
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == "LayoutEpoch" {
			return true
		}
	}
	return false
}

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	return IsNamed(t, "context", "Context")
}

// HasContextParam reports whether the function type has a
// context.Context parameter.
func HasContextParam(sig *types.Signature) bool {
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if IsContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// FuncIsTestFile reports whether the position's file is a _test.go file.
// (The framework already drops such diagnostics; analyzers use this to
// skip whole-file work early.)
func FuncIsTestFile(filename string) bool {
	return strings.HasSuffix(filename, "_test.go")
}

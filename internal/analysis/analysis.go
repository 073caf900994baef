// Package analysis is lodviz's project-specific static-analysis framework:
// a deliberately small, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis surface that the five lodvizvet analyzers
// (pagelock, ctxflow, syncerr, idspace, obshandle) are written against.
//
// The vendored x/tools module is unavailable in the hermetic build
// environment, so the framework is built on the standard library only:
// go/ast + go/types for the analyses themselves, go/importer's
// gc-export-data mode for offline type-checking, and the cmd/vet
// unitchecker protocol for `go vet -vettool` integration (see the
// unitchecker subpackage), which is the suite's one entry point.
//
// Every analyzer names the invariant it enforces and the document section
// that explains it; diagnostics carry both so a build-time failure points
// straight at the design rule it protects. Individual findings can be
// waived with a justified suppression comment on the offending line (or
// the line directly above it):
//
//	//lint:allow <analyzer> <why this site is safe>
//
// A suppression without a justification is itself a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow comments. Lower-case, no spaces.
	Name string

	// Doc is a one-line description of what the analyzer reports.
	Doc string

	// Invariant is the engine invariant the analyzer enforces, phrased as
	// the rule a violation breaks. It is appended to every diagnostic.
	Invariant string

	// DocSection names where the invariant is documented
	// (e.g. "internal/analysis/README.md#pagelock").
	DocSection string

	// Run applies the analyzer to one package, reporting findings
	// through the pass.
	Run func(*Pass) error
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// A Diagnostic is one finding at one position. Message is the
// site-specific text; the framework appends the analyzer's invariant when
// formatting.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Finding is a diagnostic resolved against the file set and attributed
// to its analyzer, after suppression filtering.
type Finding struct {
	Analyzer *Analyzer
	Pos      token.Position
	Message  string
}

// String renders the finding the way the drivers print it: position,
// site message, analyzer name, and the invariant the site violates.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s: %s — see %s]",
		f.Pos, f.Message, f.Analyzer.Name, f.Analyzer.Invariant, f.Analyzer.DocSection)
}

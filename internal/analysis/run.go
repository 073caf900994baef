package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Run applies the analyzers to one type-checked package and returns the
// surviving findings, ordered by position.
//
// Three filters sit between an analyzer's Reportf and the returned set:
//
//   - diagnostics in _test.go files are dropped: tests deliberately
//     violate engine invariants (writing mid-scan to prove a run holds
//     still, dropping sync errors to prove recovery), and gating them
//     would train people to sprinkle suppressions;
//   - diagnostics waived by a justified //lint:allow are dropped;
//   - a //lint:allow with no justification is converted into a finding of
//     its own (attributed to the analyzer it names), and waives nothing.
func Run(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Finding, error) {
	dirs := parseAllows(fset, files)
	byName := make(map[string]*Analyzer, len(analyzers))
	var out []Finding
	for _, a := range analyzers {
		byName[a.Name] = a
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path(), err)
		}
		for _, d := range pass.diags {
			pos := fset.Position(d.Pos)
			if strings.HasSuffix(pos.Filename, "_test.go") {
				continue
			}
			if suppressed(dirs, a.Name, pos) {
				continue
			}
			out = append(out, Finding{Analyzer: a, Pos: pos, Message: d.Message})
		}
	}
	for _, d := range dirs {
		a, ok := byName[d.analyzer]
		if !ok {
			continue // directive for an analyzer not in this run
		}
		if d.reason != "" {
			continue
		}
		pos := fset.Position(d.pos)
		if strings.HasSuffix(pos.Filename, "_test.go") {
			continue
		}
		out = append(out, Finding{
			Analyzer: a,
			Pos:      pos,
			Message:  fmt.Sprintf("lint:allow %s has no justification; write //lint:allow %s <why this site is safe>", d.analyzer, d.analyzer),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer.Name < b.Analyzer.Name
	})
	return out, nil
}

// NewInfo returns a types.Info with every map the analyzers consult
// allocated. Shared by all drivers so a forgotten map never silently
// disables a check in one entry point only.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

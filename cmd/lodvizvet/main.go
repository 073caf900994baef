// Command lodvizvet is the engine's own static-analysis suite: five
// analyzers that turn lodviz's cross-cutting invariants — per-page lock
// discipline, context threading, durability error handling, dictionary-ID
// hygiene, and nil-safe metric handles — into build-time failures.
//
// It speaks the go vet tool protocol, so it runs under go vet, which
// caches results per package and covers test variants of every package:
//
//	go vet -vettool=$(pwd)/bin/lodvizvet ./...   # make analyze
//
// Run bare, it prints its usage and the analyzers. Suppress a finding,
// with a justification, via a trailing comment:
//
//	st.Compact() //lint:allow pagelock scan already ended: fn returned false above
//
// See internal/analysis/README.md for what each analyzer enforces and
// which PR introduced the invariant.
package main

import (
	"fmt"
	"os"
	"strings"

	"github.com/lodviz/lodviz/internal/analysis/all"
	"github.com/lodviz/lodviz/internal/analysis/unitchecker"
)

func main() {
	args := os.Args[1:]
	// go vet probes the tool (-V=full, -flags), then hands it one config
	// file per package.
	if isVetInvocation(args) {
		os.Exit(unitchecker.Main("lodvizvet", args, all.Analyzers(), os.Stdout, os.Stderr))
	}
	fmt.Fprintf(os.Stderr, "usage: go vet -vettool=$(pwd)/bin/lodvizvet [packages]\n\nAnalyzers:\n")
	for _, a := range all.Analyzers() {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
	}
	os.Exit(2)
}

func isVetInvocation(args []string) bool {
	for _, a := range args {
		if a == "-V=full" || a == "-flags" || strings.HasSuffix(a, ".cfg") {
			return true
		}
	}
	return false
}

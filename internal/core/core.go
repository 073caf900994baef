// Package core holds the exploration preferences: the shape of the numeric
// hierarchies /hetree serves. It stays only because the end-to-end
// benchmark's replay (bench/e2e/replay.go) reads DefaultPreferences, and it
// goes when that replay does (ROADMAP item 1(b): the harness speaks only
// HTTP).
package core

import "github.com/lodviz/lodviz/internal/hetree"

// Preferences configures hierarchical exploration.
type Preferences struct {
	// TreeDegree and LeafCapacity are the hierarchy's fan-out and leaf size.
	TreeDegree   int
	LeafCapacity int
}

// DefaultPreferences returns the hierarchy shape the /hetree endpoint
// serves (hetree.DefaultOptions).
func DefaultPreferences() Preferences {
	tree := hetree.DefaultOptions()
	return Preferences{TreeDegree: tree.Degree, LeafCapacity: tree.LeafCapacity}
}

package core

import (
	"testing"

	"github.com/lodviz/lodviz/internal/hetree"
)

func TestDefaultPreferencesMatchHETree(t *testing.T) {
	p, o := DefaultPreferences(), hetree.DefaultOptions()
	if p.TreeDegree != o.Degree || p.LeafCapacity != o.LeafCapacity {
		t.Errorf("DefaultPreferences = %+v, want degree %d and leaf capacity %d", p, o.Degree, o.LeafCapacity)
	}
}

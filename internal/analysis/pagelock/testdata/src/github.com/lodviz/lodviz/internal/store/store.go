// Stub of internal/store: just enough surface for the pagelock fixtures.
package store

import "sync"

type ID uint32

type IDTriple struct{ S, P, O ID }

type Pattern struct{ S, P, O string }

type Store struct {
	// Mu stands in for the store's mutex; exported so fixtures can
	// exercise the mutex-acquisition check from outside the package.
	Mu sync.RWMutex
}

func New() *Store { return &Store{} }

type Source interface {
	ScanIDs(sub, pred, obj ID, lead int) (int, bool)
	ForEachID(sub, pred, obj ID, fn func(IDTriple) bool)
}

func (s *Store) LayoutEpoch() uint64 { return 0 }
func (s *Store) Generation() uint64  { return 0 }
func (s *Store) Len() int            { return 0 }

func (s *Store) Add(t IDTriple) bool    { return false }
func (s *Store) Delete(t IDTriple) bool { return false }
func (s *Store) Compact()               {}

func (s *Store) Count(p Pattern) int { return 0 }

func (s *Store) ForEach(p Pattern, fn func(IDTriple) bool) {}

func (s *Store) ForEachID(sub, pred, obj ID, fn func(IDTriple) bool) {}

func (s *Store) ForEachPage(sub, pred, obj ID, fn func(IDTriple) bool) {}

func (s *Store) ForEachIDPage(sub, pred, obj ID, limit, resume int, fn func(IDTriple) bool) {}

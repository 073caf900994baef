// Stub of internal/store: just enough surface for the ctxflow fixtures.
package store

type ID uint32

type IDTriple struct{ S, P, O ID }

type Store struct{}

// Source is the store's read contract, recognized by its ScanIDs method.
type Source interface {
	ScanIDs(sub, pred, obj ID, lead int) (int, bool)
}

func (s *Store) ScanIDs(sub, pred, obj ID, lead int) (int, bool) { return 0, false }

func (s *Store) ForEachID(sub, pred, obj ID, fn func(IDTriple) bool) {}

func (s *Store) ForEachPage(sub, pred, obj ID, fn func(IDTriple) bool) {}

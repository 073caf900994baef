// A fixture-module store: the analyzers match package identity by import
// path suffix, so this internal/store is recognized like the real one.
package store

type ID uint32

type IDTriple struct{ S, P, O ID }

type Store struct{}

func (s *Store) ScanIDs(sub, pred, obj ID, lead int) (int, bool) { return 0, false }

// Stub of internal/snapshot: just enough surface for the syncerr fixtures.
package snapshot

type Writer struct{}

func (w *Writer) Term(s string) error   { return nil }
func (w *Writer) Triple(s string) error { return nil }
func (w *Writer) Close() error          { return nil }

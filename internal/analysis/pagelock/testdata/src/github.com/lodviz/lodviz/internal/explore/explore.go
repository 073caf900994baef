// Stub of internal/explore: the Walk entry point and its handler.
package explore

import (
	"context"

	"github.com/lodviz/lodviz/internal/store"
)

type WalkHandler struct {
	Visit func(store.IDTriple) bool
	Page  func(scanned int, done bool) bool
	Reset func()
}

func Walk(ctx context.Context, src store.Source, sub, pred, obj store.ID, page int, h WalkHandler) error {
	return nil
}

package pagelocktest

import (
	"sync"

	"github.com/lodviz/lodviz/internal/store"
)

func mutationsInsidePage(st *store.Store) {
	st.ForEachPage(0, 0, 0, func(t store.IDTriple) bool {
		st.Add(t)                                                        // want `store mutation Add inside a ForEachPage page callback`
		st.Compact()                                                     // want `store mutation Compact inside a ForEachPage page callback`
		_ = st.Count(store.Pattern{})                                    // want `nested store access Count inside a ForEachPage page callback`
		st.ForEachID(0, 0, 0, func(store.IDTriple) bool { return true }) // want `nested store access ForEachID inside a ForEachPage page callback`
		st.Mu.RLock()                                                    // want `RLock on the store's mutex inside a ForEachPage page callback`
		return true
	})
}

func goroutineEscapesPage(st *store.Store) {
	st.ForEachIDPage(0, 0, 0, 128, 0, func(t store.IDTriple) bool {
		// A go-launched store call runs off the callback's stack: the
		// blocked writer merely delays the goroutine, not the page.
		go st.Compact()
		go func() {
			st.Add(t)
		}()
		return true
	})
}

func ownMutexIsFine(st *store.Store) {
	var mu sync.Mutex
	st.ForEach(store.Pattern{}, func(t store.IDTriple) bool {
		mu.Lock() // a consumer's own mutex, not the store's
		mu.Unlock()
		return true
	})
}

func betweenPagesIsFine(st *store.Store) {
	var pending []store.IDTriple
	st.ForEachPage(0, 0, 0, func(t store.IDTriple) bool {
		pending = append(pending, t)
		return true
	})
	for _, t := range pending {
		st.Add(t) // after the scan: legal
	}
}

func suppressedMutation(st *store.Store) {
	st.ForEach(store.Pattern{}, func(t store.IDTriple) bool {
		//lint:allow pagelock fixture: store is freshly built here and has no concurrent writers
		st.Add(t)
		return false
	})
}

// A source interface is recognized by its ScanIDs method: its ForEachID
// callback holds the read lock like the store's own.
func nestedThroughSource(src store.Source) {
	src.ForEachID(0, 0, 0, func(store.IDTriple) bool {
		_, _ = src.ScanIDs(0, 0, 0, 0) // want `nested store access ScanIDs inside a ForEachID page callback`
		return true
	})
}

package store

// Instrumentation snapshot. The store keeps no metric handles of its own —
// it stays dependency-free — and instead exposes one cheap snapshot the
// observability layer polls at scrape time (obs.GaugeFunc/CounterFunc in
// the server wire the fields to metric families).

// Observed is a point-in-time instrumentation view of the store.
type Observed struct {
	// Triples is the live triple count; Terms the dictionary size, and
	// DictSlots the slots of its term → ID table (dict.go): 8 bytes each,
	// at most half of them holding a term.
	Triples   int
	Terms     int
	DictSlots int
	// Delta counts inserted triples not yet merged into the sorted
	// indexes; Tombstones counts deletes awaiting physical removal.
	Delta      int
	Tombstones int
	// Generation counts content mutations, LayoutEpoch physical index
	// reshuffles (see the Store fields of the same names).
	Generation  uint64
	LayoutEpoch uint64
	// ScanPages counts ForEachPage/ForEachIDPage calls since startup —
	// each call pulls one page under the read lock.
	ScanPages uint64
	// ScanRunsLent and ScanRunsCopied count the ScanIDs runs since startup
	// that lent the index's own range (no tombstones) or copied the live
	// entries out of it.
	ScanRunsLent, ScanRunsCopied uint64
	// TallyEntries is the size of the statistics tally (stats.go) in map
	// entries, 0 before it is built; TallyBuilds counts the walks that built
	// it, which stays at 1 once anything has asked for statistics.
	TallyEntries int
	TallyBuilds  uint64
}

// Observe returns the store's instrumentation snapshot.
func (st *Store) Observe() Observed {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return Observed{
		Triples:        st.size,
		Terms:          len(st.terms) - 1,
		DictSlots:      len(st.dict.slots),
		Delta:          len(st.delta),
		Tombstones:     len(st.deleted),
		Generation:     st.gen,
		LayoutEpoch:    st.layout,
		ScanPages:      st.scanPages.Load(),
		ScanRunsLent:   st.scanRunsLent.Load(),
		ScanRunsCopied: st.scanRunsCopied.Load(),
		TallyEntries:   st.tally.entries(),
		TallyBuilds:    st.tallyBuilds,
	}
}

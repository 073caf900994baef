// Package disk provides the external-memory substrate lodviz uses to escape
// the "load everything in main memory" assumption the survey criticizes in
// Section 4: a file-backed page store with fixed 4 KiB pages and a buffer
// manager with LRU eviction and pin/unpin semantics.
//
// A graphVizdb-style tile index can store its records through this layer,
// so only the pages backing the current viewport are resident.
package disk

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// PageSize is the fixed page size in bytes.
const PageSize = 4096

// PageID identifies a page within a store.
type PageID uint32

// ErrPageBounds is returned for out-of-range page reads.
var ErrPageBounds = errors.New("disk: page id out of range")

// PageStore is a file-backed array of pages.
type PageStore struct {
	mu    sync.Mutex
	f     *os.File
	pages int
	// Reads and Writes count physical page I/Os.
	Reads, Writes int
}

// Create creates a fresh page store at path, truncating any existing file.
// Use OpenExisting to reopen a store without destroying it.
func Create(path string) (*PageStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("disk: create %s: %w", path, err)
	}
	return &PageStore{f: f}, nil
}

// OpenExisting opens a page store previously written at path, recovering the
// allocated page count from the file size. A size that is not a whole number
// of pages indicates a torn write or foreign file and is rejected.
func OpenExisting(path string) (*PageStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("disk: open %s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		// Abandoning the fd; the stat error wins.
		_ = f.Close()
		return nil, fmt.Errorf("disk: stat %s: %w", path, err)
	}
	if fi.Size()%PageSize != 0 {
		// Abandoning the fd; the store was never usable.
		_ = f.Close()
		return nil, fmt.Errorf("disk: %s: size %d is not a multiple of the %d-byte page size", path, fi.Size(), PageSize)
	}
	return &PageStore{f: f, pages: int(fi.Size() / PageSize)}, nil
}

// Close closes the backing file.
func (ps *PageStore) Close() error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err := ps.f.Close(); err != nil {
		return fmt.Errorf("disk: close: %w", err)
	}
	return nil
}

// Alloc appends a zeroed page and returns its id.
func (ps *PageStore) Alloc() (PageID, error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	id := PageID(ps.pages)
	ps.pages++
	var zero [PageSize]byte
	if _, err := ps.f.WriteAt(zero[:], int64(id)*PageSize); err != nil {
		return 0, fmt.Errorf("disk: alloc page %d: %w", id, err)
	}
	ps.Writes++
	return id, nil
}

// NumPages returns the number of allocated pages.
func (ps *PageStore) NumPages() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.pages
}

// Read fills buf (length PageSize) with the page's content.
func (ps *PageStore) Read(id PageID, buf []byte) error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if int(id) >= ps.pages {
		return ErrPageBounds
	}
	if _, err := ps.f.ReadAt(buf[:PageSize], int64(id)*PageSize); err != nil {
		return fmt.Errorf("disk: read page %d: %w", id, err)
	}
	ps.Reads++
	return nil
}

// Write stores buf (length PageSize) as the page's content.
func (ps *PageStore) Write(id PageID, buf []byte) error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if int(id) >= ps.pages {
		return ErrPageBounds
	}
	if _, err := ps.f.WriteAt(buf[:PageSize], int64(id)*PageSize); err != nil {
		return fmt.Errorf("disk: write page %d: %w", id, err)
	}
	ps.Writes++
	return nil
}

// frame is one buffer-pool slot.
type frame struct {
	id    PageID
	data  [PageSize]byte
	dirty bool
	pins  int
	// LRU links.
	prev, next *frame
}

// BufferPool caches pages with LRU eviction. Pinned pages are never evicted.
type BufferPool struct {
	mu       sync.Mutex
	store    *PageStore
	capacity int
	frames   map[PageID]*frame
	// lruHead is most-recently used; lruTail least.
	lruHead, lruTail *frame
	// Hits, Misses, Evictions are cache statistics.
	Hits, Misses, Evictions int
}

// ErrPoolFull is returned when every frame is pinned.
var ErrPoolFull = errors.New("disk: buffer pool exhausted (all pages pinned)")

// NewBufferPool wraps a store with an n-frame cache.
func NewBufferPool(store *PageStore, n int) *BufferPool {
	if n < 1 {
		n = 1
	}
	return &BufferPool{store: store, capacity: n, frames: make(map[PageID]*frame, n)}
}

// Get returns the page content, pinning the page in memory. Callers must
// Unpin when done. The returned slice aliases the frame: it is valid until
// Unpin.
func (bp *BufferPool) Get(id PageID) ([]byte, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if fr, ok := bp.frames[id]; ok {
		bp.Hits++
		fr.pins++
		bp.touch(fr)
		return fr.data[:], nil
	}
	bp.Misses++
	fr, err := bp.allocFrame()
	if err != nil {
		return nil, err
	}
	if err := bp.store.Read(id, fr.data[:]); err != nil {
		// The frame was never linked into the LRU; drop it.
		return nil, err
	}
	fr.id = id
	fr.pins = 1
	fr.dirty = false
	bp.frames[id] = fr
	bp.pushFront(fr)
	return fr.data[:], nil
}

// Unpin releases a pin; markDirty schedules the page for write-back on
// eviction or Flush.
func (bp *BufferPool) Unpin(id PageID, markDirty bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	fr, ok := bp.frames[id]
	if !ok || fr.pins == 0 {
		return
	}
	fr.pins--
	if markDirty {
		fr.dirty = true
	}
}

// Flush writes back all dirty pages.
func (bp *BufferPool) Flush() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, fr := range bp.frames {
		if fr.dirty {
			if err := bp.store.Write(fr.id, fr.data[:]); err != nil {
				return err
			}
			fr.dirty = false
		}
	}
	return nil
}

// Resident returns the number of cached pages.
func (bp *BufferPool) Resident() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return len(bp.frames)
}

// HitRate returns the fraction of Gets served from memory.
func (bp *BufferPool) HitRate() float64 {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	total := bp.Hits + bp.Misses
	if total == 0 {
		return 0
	}
	return float64(bp.Hits) / float64(total)
}

// allocFrame returns a free frame, evicting the LRU unpinned page if needed.
// Caller holds bp.mu.
func (bp *BufferPool) allocFrame() (*frame, error) {
	if len(bp.frames) < bp.capacity {
		return &frame{}, nil
	}
	// Evict from the tail (least recently used) skipping pinned frames.
	for fr := bp.lruTail; fr != nil; fr = fr.prev {
		if fr.pins > 0 {
			continue
		}
		if fr.dirty {
			if err := bp.store.Write(fr.id, fr.data[:]); err != nil {
				return nil, err
			}
		}
		bp.unlink(fr)
		delete(bp.frames, fr.id)
		bp.Evictions++
		return fr, nil
	}
	return nil, ErrPoolFull
}

func (bp *BufferPool) pushFront(fr *frame) {
	fr.prev = nil
	fr.next = bp.lruHead
	if bp.lruHead != nil {
		bp.lruHead.prev = fr
	}
	bp.lruHead = fr
	if bp.lruTail == nil {
		bp.lruTail = fr
	}
}

func (bp *BufferPool) unlink(fr *frame) {
	if fr.prev != nil {
		fr.prev.next = fr.next
	} else {
		bp.lruHead = fr.next
	}
	if fr.next != nil {
		fr.next.prev = fr.prev
	} else {
		bp.lruTail = fr.prev
	}
	fr.prev, fr.next = nil, nil
}

func (bp *BufferPool) touch(fr *frame) {
	bp.unlink(fr)
	bp.pushFront(fr)
}

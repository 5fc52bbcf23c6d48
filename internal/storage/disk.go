package storage

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// DiskManager persists pages. Implementations must be safe for concurrent
// use.
type DiskManager interface {
	// Allocate reserves a new page id.
	Allocate() (PageID, error)
	// Read fills buf (PageSize bytes) with the page contents.
	Read(id PageID, buf []byte) error
	// Write persists buf (PageSize bytes) as the page contents.
	Write(id PageID, buf []byte) error
	// View runs fn on the page contents, which fn must neither modify
	// nor keep. The caller keeps every writer of id out until View
	// returns, so a disk that holds its pages in memory may lend its
	// own bytes instead of copying them.
	View(id PageID, fn func(b []byte) error) error
	// NumPages reports how many pages have been allocated.
	NumPages() int
	// Close releases resources.
	Close() error
}

// MemDisk is an in-memory DiskManager used by tests and benchmarks.
// Fault injection lives in ChaosDisk, not here. A page's bytes never
// move, and Allocate publishes each new page list atomically as well, so
// View reads a page without taking the mutex.
type MemDisk struct {
	mu    sync.Mutex
	pages [][]byte
	lent  atomic.Pointer[[][]byte] // pages, as View reads them
}

// NewMemDisk returns an empty in-memory disk.
func NewMemDisk() *MemDisk { return &MemDisk{} }

// Allocate implements DiskManager.
func (d *MemDisk) Allocate() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pages = append(d.pages, make([]byte, PageSize))
	pages := d.pages
	d.lent.Store(&pages)
	return PageID(len(pages) - 1), nil
}

// Read implements DiskManager.
func (d *MemDisk) Read(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= len(d.pages) {
		return fmt.Errorf("storage: read of unallocated page %d", id)
	}
	copy(buf, d.pages[id])
	return nil
}

// View implements DiskManager: fn reads the disk's own bytes, which no
// Write changes while the caller keeps writers of id out.
func (d *MemDisk) View(id PageID, fn func(b []byte) error) error {
	pages := d.lent.Load()
	if pages == nil || int(id) >= len(*pages) {
		return fmt.Errorf("storage: read of unallocated page %d", id)
	}
	return fn((*pages)[id])
}

// Write implements DiskManager.
func (d *MemDisk) Write(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= len(d.pages) {
		return fmt.Errorf("storage: write of unallocated page %d", id)
	}
	copy(d.pages[id], buf)
	return nil
}

// NumPages implements DiskManager.
func (d *MemDisk) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pages)
}

// Close implements DiskManager.
func (d *MemDisk) Close() error { return nil }

// FileDisk is a file-backed DiskManager storing pages contiguously.
type FileDisk struct {
	mu   sync.Mutex
	f    *os.File
	next PageID
}

// OpenFileDisk opens (or creates) the file at path.
func OpenFileDisk(path string) (*FileDisk, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open disk file: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileDisk{f: f, next: PageID(st.Size() / PageSize)}, nil
}

// Allocate implements DiskManager.
func (d *FileDisk) Allocate() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.next
	d.next++
	// Extend the file so reads of the new page succeed.
	zero := make([]byte, PageSize)
	if _, err := d.f.WriteAt(zero, int64(id)*PageSize); err != nil {
		return 0, fmt.Errorf("storage: extend disk file: %w", err)
	}
	return id, nil
}

// Read implements DiskManager.
func (d *FileDisk) Read(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id >= d.next {
		return fmt.Errorf("storage: read of unallocated page %d", id)
	}
	_, err := d.f.ReadAt(buf[:PageSize], int64(id)*PageSize)
	return err
}

// View implements DiskManager, reading the page into a pooled buffer.
func (d *FileDisk) View(id PageID, fn func(b []byte) error) error { return viewCopy(d, id, fn) }

// pageBufs recycles the buffers viewCopy reads pages into.
var pageBufs = sync.Pool{New: func() any { return new([PageSize]byte) }}

// viewCopy is View for a disk that cannot lend its bytes: fn reads a
// copy made by d.Read into a pooled buffer.
func viewCopy(d DiskManager, id PageID, fn func(b []byte) error) error {
	buf := pageBufs.Get().(*[PageSize]byte)
	defer pageBufs.Put(buf)
	if err := d.Read(id, buf[:]); err != nil {
		return err
	}
	return fn(buf[:])
}

// Write implements DiskManager.
func (d *FileDisk) Write(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id >= d.next {
		return fmt.Errorf("storage: write of unallocated page %d", id)
	}
	_, err := d.f.WriteAt(buf[:PageSize], int64(id)*PageSize)
	return err
}

// NumPages implements DiskManager.
func (d *FileDisk) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int(d.next)
}

// Close implements DiskManager.
func (d *FileDisk) Close() error { return d.f.Close() }

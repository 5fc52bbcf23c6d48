package storage

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"aidb/internal/obs"
)

// BufferPool caches pages in memory with LRU eviction of unpinned frames.
// Point reads and writes go through Fetch and stay cached; heap scans go
// through View and do not enter the pool: a scan larger than the pool
// would otherwise evict every page the point traffic keeps hot, and pay
// an eviction and a copy under the pool mutex for each page it reads.
// All methods are safe for concurrent use.
type BufferPool struct {
	mu       sync.Mutex
	disk     DiskManager
	capacity int
	frames   map[PageID]*Page
	lru      *list.List // front = most recently used; holds *Page

	// Stats counts pool activity for the monitoring experiments.
	Stats PoolStats
}

// PoolStats counts buffer-pool events. The counters are atomic so
// exported readers (monitoring, obs gauge funcs) never race mutators
// and the counts are overflow-safe by wrap-around rather than torn
// reads; read them with Load, or grab a plain-struct copy via
// Snapshot.
type PoolStats struct {
	Hits, Misses, Evictions, Flushes atomic.Uint64
}

// PoolStatsSnapshot is a point-in-time plain-value copy of PoolStats.
type PoolStatsSnapshot struct {
	Hits, Misses, Evictions, Flushes uint64
}

// Snapshot copies the counters.
func (s *PoolStats) Snapshot() PoolStatsSnapshot {
	return PoolStatsSnapshot{
		Hits:      s.Hits.Load(),
		Misses:    s.Misses.Load(),
		Evictions: s.Evictions.Load(),
		Flushes:   s.Flushes.Load(),
	}
}

// ErrPoolFull is returned when every frame is pinned.
var ErrPoolFull = errors.New("storage: buffer pool full (all pages pinned)")

// NewBufferPool creates a pool of the given frame capacity over disk.
// It returns an error (not a panic: library code must survive bad
// config) when capacity is not positive.
func NewBufferPool(disk DiskManager, capacity int) (*BufferPool, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("storage: buffer pool capacity must be positive, got %d", capacity)
	}
	return &BufferPool{
		disk:     disk,
		capacity: capacity,
		frames:   make(map[PageID]*Page),
		lru:      list.New(),
	}, nil
}

// NewPage allocates a fresh page and returns it pinned and zeroed.
func (bp *BufferPool) NewPage() (*Page, error) {
	id, err := bp.disk.Allocate()
	if err != nil {
		return nil, err
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	p, err := bp.frame(id)
	if err != nil {
		return nil, err
	}
	p.dirty = true
	p.Data = [PageSize]byte{}
	return p, nil
}

// Fetch pins and returns the page, loading it from disk on a miss.
func (bp *BufferPool) Fetch(id PageID) (*Page, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if p, ok := bp.frames[id]; ok {
		bp.Stats.Hits.Add(1)
		p.pinCount++
		bp.lru.MoveToFront(p.lru)
		return p, nil
	}
	bp.Stats.Misses.Add(1)
	p, err := bp.frame(id)
	if err != nil {
		return nil, err
	}
	if err := bp.disk.Read(id, p.Data[:]); err != nil {
		delete(bp.frames, id)
		bp.lru.Remove(p.lru)
		return nil, err
	}
	return p, nil
}

// View runs fn on the bytes of each page ids names, in that order,
// read-only, without making any page resident. The pages resident when
// View starts are pinned for it under one hold of the pool mutex, as
// Fetch pins them (hits); the disk lends every other through its View,
// outside the mutex, and it is never installed (a miss): the frames,
// their LRU order and the eviction count are as they were. An in-memory
// disk lends its own bytes, so a miss copies nothing; a file or chaos
// disk reads a copy. The pins are released under one more hold, and the
// pages read are counted as hits and misses once per call. View stops at
// the first error fn or the disk returns, and returns it. fn must
// neither modify b nor keep it. The caller must keep writers of ids out
// until View returns (catalog holds the table's read lock, which every
// heap-page write excludes): then a non-resident page's disk copy is
// current, because frame writes a dirty page back before dropping it,
// and nothing writes it while fn reads.
func (bp *BufferPool) View(ids []PageID, fn func(b []byte) error) error {
	// A morsel's few pages fit on the stack; a longer list allocates once.
	var buf [16]*Page
	frames, pinned := buf[:0], false
	if len(ids) > len(buf) {
		frames = make([]*Page, 0, len(ids))
	}
	bp.mu.Lock()
	for _, id := range ids {
		p := bp.frames[id]
		if p != nil {
			p.pinCount++
			bp.lru.MoveToFront(p.lru)
			pinned = true
		}
		frames = append(frames, p)
	}
	bp.mu.Unlock()
	var hits, misses uint64
	var err error
	for i, p := range frames {
		if p != nil {
			hits++
			err = fn(p.Data[:])
		} else {
			misses++
			err = bp.disk.View(ids[i], fn)
		}
		if err != nil {
			break
		}
	}
	if hits > 0 {
		bp.Stats.Hits.Add(hits)
	}
	if misses > 0 {
		bp.Stats.Misses.Add(misses)
	}
	if pinned {
		bp.mu.Lock()
		for _, p := range frames {
			if p != nil {
				p.pinCount--
			}
		}
		bp.mu.Unlock()
	}
	return err
}

// Unpin releases one pin; dirty marks the page modified.
func (bp *BufferPool) Unpin(id PageID, dirty bool) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	p, ok := bp.frames[id]
	if !ok {
		return fmt.Errorf("storage: unpin of non-resident page %d", id)
	}
	if p.pinCount <= 0 {
		return fmt.Errorf("storage: unpin of unpinned page %d", id)
	}
	p.pinCount--
	if dirty {
		p.dirty = true
	}
	return nil
}

// FlushAll writes every dirty unpinned page to disk. A pinned page may be
// changing under its pin; it is written by a later flush or when it is
// evicted.
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for id, p := range bp.frames {
		if p.pinCount == 0 && p.dirty {
			if err := bp.disk.Write(id, p.Data[:]); err != nil {
				return err
			}
			p.dirty = false
			bp.Stats.Flushes.Add(1)
		}
	}
	return nil
}

// Resident reports the number of cached pages.
func (bp *BufferPool) Resident() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return len(bp.frames)
}

// HitRate returns hits / (hits + misses), or 0 before any access. It
// reads the atomic counters directly, so it is safe to call from
// monitoring threads without touching the pool lock.
func (bp *BufferPool) HitRate() float64 {
	hits := bp.Stats.Hits.Load()
	total := hits + bp.Stats.Misses.Load()
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// Instrument exports the pool's counters and hit rate on reg under the
// storage.bufferpool.* namespace, sampled at exposition time.
func (bp *BufferPool) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("storage.bufferpool.hits", func() float64 { return float64(bp.Stats.Hits.Load()) })
	reg.GaugeFunc("storage.bufferpool.misses", func() float64 { return float64(bp.Stats.Misses.Load()) })
	reg.GaugeFunc("storage.bufferpool.evictions", func() float64 { return float64(bp.Stats.Evictions.Load()) })
	reg.GaugeFunc("storage.bufferpool.flushes", func() float64 { return float64(bp.Stats.Flushes.Load()) })
	reg.GaugeFunc("storage.bufferpool.hit_rate", bp.HitRate)
	reg.GaugeFunc("storage.bufferpool.resident", func() float64 { return float64(bp.Resident()) })
}

// frame makes id resident and pinned once, at the front of the LRU list,
// and returns its page for the caller to fill: a new page while the pool
// is below capacity, else the memory and list element of the least
// recently used unpinned page, evicted (and written back when dirty). A
// miss therefore allocates nothing once the pool is full. Reuse is safe
// because a page is read only while pinned, and the caller overwrites
// every byte (disk.Read fills the page, NewPage zeroes it). Caller
// holds mu.
func (bp *BufferPool) frame(id PageID) (*Page, error) {
	var p *Page
	if len(bp.frames) < bp.capacity {
		p = &Page{}
		p.lru = bp.lru.PushFront(p)
	} else {
		for el := bp.lru.Back(); el != nil; el = el.Prev() {
			if victim := el.Value.(*Page); victim.pinCount == 0 {
				p = victim
				break
			}
		}
		if p == nil {
			return nil, ErrPoolFull
		}
		if p.dirty {
			if err := bp.disk.Write(p.ID, p.Data[:]); err != nil {
				return nil, err
			}
			bp.Stats.Flushes.Add(1)
		}
		delete(bp.frames, p.ID)
		bp.Stats.Evictions.Add(1)
		bp.lru.MoveToFront(p.lru)
	}
	p.ID, p.pinCount, p.dirty = id, 1, false
	bp.frames[id] = p
	return p, nil
}

package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"sync"
	"testing"

	"aidb/internal/chaos"
)

// mustPool builds a buffer pool or fails the test; used by every
// storage test since NewBufferPool returns an error for bad config.
func mustPool(t *testing.T, disk DiskManager, capacity int) *BufferPool {
	t.Helper()
	bp, err := NewBufferPool(disk, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

func TestNewBufferPoolRejectsBadCapacity(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		if _, err := NewBufferPool(NewMemDisk(), capacity); err == nil {
			t.Errorf("capacity %d must be rejected with an error, not a panic", capacity)
		}
	}
}

// Failure injection now flows through the chaos injector: the buffer
// pool must surface injected disk write errors instead of silently
// dropping dirty pages.

func TestBufferPoolEvictionSurfacesWriteFailure(t *testing.T) {
	inj := chaos.New(1).Add(chaos.Rule{Site: SiteDiskWrite, Kind: chaos.Error})
	disk := WrapDisk(NewMemDisk(), inj)
	bp := mustPool(t, disk, 2)
	for i := 0; i < 2; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		p.Data[0] = 'x'
		bp.Unpin(p.ID, true)
	}
	// Allocating a third page must evict a dirty one -> write -> failure.
	if _, err := bp.NewPage(); !errors.Is(err, chaos.ErrInjected) {
		t.Errorf("eviction write failure must propagate, got %v", err)
	}
}

func TestBufferPoolFlushAllSurfacesWriteFailure(t *testing.T) {
	inj := chaos.New(2).Add(chaos.Rule{Site: SiteDiskWrite, Kind: chaos.Error})
	disk := WrapDisk(NewMemDisk(), inj)
	bp := mustPool(t, disk, 4)
	p, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	copy(p.Data[:], "dirty")
	bp.Unpin(p.ID, true)
	if err := bp.FlushAll(); !errors.Is(err, chaos.ErrInjected) {
		t.Errorf("FlushAll must propagate write failures, got %v", err)
	}
}

// The chaos schedule (After/Limit) reproduces the old FailAfterWrites
// semantics exactly: the first N writes succeed, later ones fail.
func TestChaosDiskFailAfterNWrites(t *testing.T) {
	inj := chaos.New(3).Add(chaos.Rule{Site: SiteDiskWrite, Kind: chaos.Error, After: 2})
	disk := WrapDisk(NewMemDisk(), inj)
	buf := make([]byte, PageSize)
	var ids []PageID
	for i := 0; i < 3; i++ {
		id, err := disk.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := disk.Write(ids[0], buf); err != nil {
		t.Fatalf("write 1 should succeed: %v", err)
	}
	if err := disk.Write(ids[1], buf); err != nil {
		t.Fatalf("write 2 should succeed: %v", err)
	}
	if err := disk.Write(ids[2], buf); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("write 3 should fail, got %v", err)
	}
}

// An injected read-path corruption must be visible to the caller (the
// bytes differ) while the underlying page stays intact.
func TestChaosDiskReadCorruption(t *testing.T) {
	inj := chaos.New(4).Add(chaos.Rule{Site: SiteDiskRead, Kind: chaos.Corrupt, Every: 2})
	mem := NewMemDisk()
	disk := WrapDisk(mem, inj)
	id, _ := disk.Allocate()
	want := make([]byte, PageSize)
	for i := range want {
		want[i] = byte(i)
	}
	if err := disk.Write(id, want); err != nil {
		t.Fatal(err)
	}
	clean := make([]byte, PageSize)
	if err := disk.Read(id, clean); err != nil {
		t.Fatal(err)
	}
	if string(clean) != string(want) {
		t.Fatal("first read (no fault scheduled) must be clean")
	}
	dirty := make([]byte, PageSize)
	if err := disk.Read(id, dirty); err != nil {
		t.Fatal(err)
	}
	if string(dirty) == string(want) {
		t.Error("second read should have been corrupted by the Every:2 rule")
	}
	// The media itself is untouched.
	underlying := make([]byte, PageSize)
	if err := mem.Read(id, underlying); err != nil {
		t.Fatal(err)
	}
	if string(underlying) != string(want) {
		t.Error("read corruption must not damage the stored page")
	}
}

// TestChaosDiskViewCorruptsACopy: a Corrupt rule at storage.disk.read
// reaches the bytes a ChaosDisk View hands its callback and never the
// MemDisk bytes under it, which MemDisk's own View lends uncopied.
func TestChaosDiskViewCorruptsACopy(t *testing.T) {
	inj := chaos.New(4).Add(chaos.Rule{Site: SiteDiskRead, Kind: chaos.Corrupt, Every: 1})
	mem := NewMemDisk()
	disk := WrapDisk(mem, inj)
	id, err := disk.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, PageSize)
	for i := range want {
		want[i] = byte(i)
	}
	if err := mem.Write(id, want); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := disk.View(id, func(b []byte) error {
			if bytes.Equal(b, want) {
				t.Errorf("view %d: the Corrupt rule did not reach what View saw", i)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := mem.View(id, func(b []byte) error {
		if &b[0] != &mem.pages[id][0] {
			t.Error("MemDisk.View copied the page instead of lending it")
		}
		if !bytes.Equal(b, want) {
			t.Error("a corrupted view damaged the stored page")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := mem.View(PageID(9), func([]byte) error { return nil }); err == nil {
		t.Error("a view of an unallocated page must fail")
	}
}

// WAL corruption: a flipped bit in a record with more log after it is
// mid-log corruption and must fail loudly — it cannot be a torn write.
func TestWALDetectsMidLogCorruption(t *testing.T) {
	w := NewWAL()
	w.Append(1, WALUpdate, []byte("important-payload"))
	lsn := w.Append(1, WALCommit, nil)
	w.Flush(lsn)
	// Flip one payload byte in the *first* record of the encoded log.
	w.buf[25] ^= 0xFF
	_, err := w.Recover()
	if err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("mid-log corruption not detected: err = %v", err)
	}
}

// A torn tail — the final record cut short by a crash — is a clean
// truncation point: recovery returns every earlier record and no error.
func TestWALTornTailIsCleanTruncation(t *testing.T) {
	w := NewWAL()
	l1 := w.Append(1, WALUpdate, []byte("first"))
	l2 := w.Append(1, WALUpdate, []byte("second"))
	w.Flush(l2)
	w.buf = w.buf[:len(w.buf)-3] // torn write on the final record
	recs, info, err := w.RecoverInfo()
	if err != nil {
		t.Fatalf("torn tail must not fail recovery: %v", err)
	}
	if len(recs) != 1 || recs[0].LSN != l1 {
		t.Fatalf("recovered %d records, want just LSN %d", len(recs), l1)
	}
	if !info.TornTail || info.TruncatedBytes == 0 {
		t.Errorf("info = %+v, want a reported torn tail", info)
	}
}

// A CRC-corrupt *final* record is likewise a torn write, not an error.
func TestWALCorruptFinalRecordIsTornTail(t *testing.T) {
	w := NewWAL()
	l1 := w.Append(1, WALUpdate, []byte("keep-me"))
	l2 := w.Append(1, WALUpdate, []byte("torn-me"))
	w.Flush(l2)
	w.buf[len(w.buf)-6] ^= 0x01 // damage the final record's payload
	recs, info, err := w.RecoverInfo()
	if err != nil {
		t.Fatalf("corrupt final record must truncate, not error: %v", err)
	}
	if len(recs) != 1 || recs[0].LSN != l1 {
		t.Fatalf("recovered %d records, want just LSN %d", len(recs), l1)
	}
	if !info.TornTail {
		t.Error("torn tail not reported")
	}
}

// A length field inflated past the remaining bytes is indistinguishable
// from a torn write: recovery must truncate, and above all must not
// fabricate a phantom record from garbage.
func TestWALLengthLieTruncates(t *testing.T) {
	w := NewWAL()
	lsn := w.Append(1, WALUpdate, []byte("abc"))
	w.Flush(lsn)
	binary.LittleEndian.PutUint32(w.buf[17:21], 1<<20)
	recs, info, err := w.RecoverInfo()
	if err != nil {
		t.Fatalf("length-lie tail must truncate, not error: %v", err)
	}
	if len(recs) != 0 {
		t.Errorf("recovered %d phantom records from a corrupt length field", len(recs))
	}
	if !info.TornTail {
		t.Error("torn tail not reported")
	}
}

// Chaos-corrupted appends land damaged on media; the CRC must expose
// them during recovery rather than let garbage decode.
func TestWALChaosAppendCorruptionDetected(t *testing.T) {
	w := NewWAL()
	w.Chaos = chaos.New(5).Add(chaos.Rule{Site: SiteWALAppend, Kind: chaos.Corrupt, Every: 1, Limit: 1})
	l1 := w.Append(1, WALUpdate, []byte("to-be-damaged"))
	l2 := w.Append(1, WALUpdate, []byte("fine"))
	w.Flush(l2)
	_ = l1
	// First record corrupt with a valid record after it: loud failure.
	if _, err := w.Recover(); err == nil {
		t.Error("chaos append corruption with a valid successor must fail recovery")
	}
}

// Concurrency: the buffer pool's invariants must hold under parallel
// fetch/unpin traffic (run with -race).
func TestBufferPoolConcurrentAccess(t *testing.T) {
	disk := NewMemDisk()
	bp := mustPool(t, disk, 8)
	var ids []PageID
	for i := 0; i < 16; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		p.Data[0] = byte(i)
		ids = append(ids, p.ID)
		bp.Unpin(p.ID, true)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g*7 + i) % len(ids)
				id := ids[k]
				p, err := bp.Fetch(id)
				if err != nil {
					continue // pool can be transiently full of pins
				}
				if p.Data[0] != byte(k) {
					t.Errorf("page %d lost its contents", id)
				}
				bp.Unpin(id, false)
			}
		}(g)
	}
	wg.Wait()
	// Every page still intact afterwards.
	for i, id := range ids {
		p, err := bp.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if p.Data[0] != byte(i) {
			t.Errorf("page %d corrupted after concurrent traffic", id)
		}
		bp.Unpin(id, false)
	}
}

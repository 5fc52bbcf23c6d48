package storage

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"testing/quick"

	"aidb/internal/chaos"
)

func TestPageInsertGet(t *testing.T) {
	var p Page
	p.InitPage()
	slot, err := p.Insert([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Get(slot)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Errorf("Get = %q, want hello", got)
	}
	if p.NumRecords() != 1 {
		t.Errorf("NumRecords = %d, want 1", p.NumRecords())
	}
}

func TestPageDelete(t *testing.T) {
	var p Page
	p.InitPage()
	s0, _ := p.Insert([]byte("a"))
	s1, _ := p.Insert([]byte("b"))
	if err := p.Delete(s0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(s0); !errors.Is(err, ErrRecordDeleted) {
		t.Errorf("Get deleted slot: err = %v, want ErrRecordDeleted", err)
	}
	if err := p.Delete(s0); !errors.Is(err, ErrRecordDeleted) {
		t.Errorf("double Delete: err = %v, want ErrRecordDeleted", err)
	}
	got, err := p.Get(s1)
	if err != nil || string(got) != "b" {
		t.Errorf("surviving record corrupted: %q, %v", got, err)
	}
	if p.NumRecords() != 1 {
		t.Errorf("NumRecords = %d, want 1", p.NumRecords())
	}
}

func TestPageFull(t *testing.T) {
	var p Page
	p.InitPage()
	rec := make([]byte, 500)
	inserted := 0
	for {
		_, err := p.Insert(rec)
		if errors.Is(err, ErrPageFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		inserted++
		if inserted > 100 {
			t.Fatal("page never filled")
		}
	}
	// 4096 bytes / ~504 per record => 8 records.
	if inserted < 7 || inserted > 8 {
		t.Errorf("inserted %d records of 500B into a 4KB page", inserted)
	}
}

// TestPageInsertReusesDeadSlot: a full page takes a new record into the
// space of a deleted one that was at least as long — same slot, live
// neighbours untouched — and still refuses one that is longer.
func TestPageInsertReusesDeadSlot(t *testing.T) {
	var p Page
	p.InitPage()
	var slots []int
	for i := 0; ; i++ {
		s, err := p.Insert(bytes.Repeat([]byte{byte('a' + i)}, 500))
		if errors.Is(err, ErrPageFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	victim := slots[2]
	if err := p.Delete(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Insert(make([]byte, 501)); !errors.Is(err, ErrPageFull) {
		t.Fatalf("a longer record must not fit a 500-byte hole: %v", err)
	}
	shorter := bytes.Repeat([]byte{'z'}, 400) // still too long to append
	got, err := p.Insert(shorter)
	if err != nil || got != victim {
		t.Fatalf("Insert into a full page with a hole = slot %d, %v; want slot %d", got, err, victim)
	}
	if b, _ := p.Get(victim); !bytes.Equal(b, shorter) {
		t.Errorf("reused slot holds %q", b)
	}
	for i, s := range slots {
		if s == victim {
			continue
		}
		if b, err := p.Get(s); err != nil || !bytes.Equal(b, bytes.Repeat([]byte{byte('a' + i)}, 500)) {
			t.Errorf("live record in slot %d changed: %v", s, err)
		}
	}
	if p.Slots() != len(slots) || p.NumRecords() != len(slots) {
		t.Errorf("slots = %d, live = %d, want both %d", p.Slots(), p.NumRecords(), len(slots))
	}
}

func TestPageRejectsOversizeRecord(t *testing.T) {
	var p Page
	p.InitPage()
	if _, err := p.Insert(make([]byte, PageSize)); err == nil {
		t.Error("expected error for oversized record")
	}
}

func TestPageSlotBoundsChecks(t *testing.T) {
	var p Page
	p.InitPage()
	if _, err := p.Get(0); err == nil {
		t.Error("Get on empty page should fail")
	}
	if err := p.Delete(3); err == nil {
		t.Error("Delete of invalid slot should fail")
	}
}

// Property: any sequence of inserted records reads back intact.
func TestPageRoundTripProperty(t *testing.T) {
	f := func(recs [][]byte) bool {
		var p Page
		p.InitPage()
		var stored [][]byte
		var slots []int
		for _, r := range recs {
			if len(r) > 1000 {
				r = r[:1000]
			}
			slot, err := p.Insert(r)
			if errors.Is(err, ErrPageFull) {
				break
			}
			if err != nil {
				return false
			}
			stored = append(stored, r)
			slots = append(slots, slot)
		}
		for i, slot := range slots {
			got, err := p.Get(slot)
			if err != nil || !bytes.Equal(got, stored[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMemDiskReadWrite(t *testing.T) {
	d := NewMemDisk()
	id, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	copy(buf, "payload")
	if err := d.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := d.Read(id, got); err != nil {
		t.Fatal(err)
	}
	if string(got[:7]) != "payload" {
		t.Errorf("read back %q", got[:7])
	}
	if err := d.Read(PageID(99), got); err == nil {
		t.Error("read of unallocated page should fail")
	}
}

func TestMemDiskFaultInjection(t *testing.T) {
	// Fault injection is the chaos injector's job now: the same
	// fail-after-N-writes schedule, expressed as a rule on the wrapped
	// disk instead of a bespoke counter on MemDisk.
	inj := chaos.New(1).Add(chaos.Rule{Site: SiteDiskWrite, Kind: chaos.Error, After: 1})
	d := WrapDisk(NewMemDisk(), inj)
	id, _ := d.Allocate()
	buf := make([]byte, PageSize)
	if err := d.Write(id, buf); err != nil {
		t.Fatal("first write should succeed:", err)
	}
	if err := d.Write(id, buf); err == nil {
		t.Error("second write should fail with injection")
	}
}

func TestFileDiskPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	d, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	id, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	copy(buf, "durable")
	if err := d.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.NumPages() != 1 {
		t.Fatalf("reopened disk has %d pages, want 1", d2.NumPages())
	}
	got := make([]byte, PageSize)
	if err := d2.Read(id, got); err != nil {
		t.Fatal(err)
	}
	if string(got[:7]) != "durable" {
		t.Errorf("read back %q after reopen", got[:7])
	}
}

func TestBufferPoolFetchUnpin(t *testing.T) {
	bp := mustPool(t, NewMemDisk(), 4)
	p, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Insert([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := bp.Unpin(p.ID, true); err != nil {
		t.Fatal(err)
	}
	p2, err := bp.Fetch(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p2.Get(0)
	if err != nil || string(got) != "x" {
		t.Errorf("fetched page lost data: %q %v", got, err)
	}
	bp.Unpin(p.ID, false)
	if got := bp.Stats.Hits.Load(); got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
}

func TestBufferPoolEvictionWritesBack(t *testing.T) {
	disk := NewMemDisk()
	bp := mustPool(t, disk, 2)
	var ids []PageID
	for i := 0; i < 4; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Insert([]byte(fmt.Sprintf("page%d", i))); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, p.ID)
		if err := bp.Unpin(p.ID, true); err != nil {
			t.Fatal(err)
		}
	}
	if bp.Resident() > 2 {
		t.Errorf("resident = %d, want <= 2", bp.Resident())
	}
	if bp.Stats.Evictions.Load() == 0 {
		t.Error("expected evictions")
	}
	// Every page must survive the round trip through disk.
	for i, id := range ids {
		p, err := bp.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Get(0)
		if err != nil || string(got) != fmt.Sprintf("page%d", i) {
			t.Errorf("page %d corrupted after eviction: %q %v", i, got, err)
		}
		bp.Unpin(id, false)
	}
}

// TestBufferPoolMissAllocatesNothing: a scan over twice the pool's pages
// misses on every page, and each miss reuses the evicted page's memory
// and list element instead of allocating fresh ones; what it reads is
// the page asked for, never the one whose memory it took over.
func TestBufferPoolMissAllocatesNothing(t *testing.T) {
	const frames = 16
	bp := mustPool(t, NewMemDisk(), frames)
	var ids []PageID
	for i := 0; i < 2*frames; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Insert([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, p.ID)
		if err := bp.Unpin(p.ID, true); err != nil {
			t.Fatal(err)
		}
	}
	scan := func() {
		for i, id := range ids {
			p, err := bp.Fetch(id)
			if err != nil {
				t.Fatal(err)
			}
			if b, err := p.GetRef(0); err != nil || len(b) != 1 || b[0] != byte(i) {
				t.Fatalf("page %d holds %v (%v)", id, b, err)
			}
			if err := bp.Unpin(id, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	scan() // write the dirty pages back once
	misses := bp.Stats.Misses.Load()
	allocs := testing.AllocsPerRun(10, scan)
	perScan := (bp.Stats.Misses.Load() - misses) / 11
	if perScan != 2*frames {
		t.Fatalf("%d misses per scan, want %d (every page)", perScan, 2*frames)
	}
	if allocs > 1 {
		t.Errorf("%.1f allocations per %d-miss scan, want ~0", allocs, perScan)
	}
}

func TestBufferPoolAllPinned(t *testing.T) {
	bp := mustPool(t, NewMemDisk(), 2)
	if _, err := bp.NewPage(); err != nil {
		t.Fatal(err)
	}
	if _, err := bp.NewPage(); err != nil {
		t.Fatal(err)
	}
	if _, err := bp.NewPage(); !errors.Is(err, ErrPoolFull) {
		t.Errorf("err = %v, want ErrPoolFull", err)
	}
}

func TestBufferPoolUnpinErrors(t *testing.T) {
	bp := mustPool(t, NewMemDisk(), 2)
	if err := bp.Unpin(PageID(7), false); err == nil {
		t.Error("unpin of non-resident page should fail")
	}
	p, _ := bp.NewPage()
	bp.Unpin(p.ID, false)
	if err := bp.Unpin(p.ID, false); err == nil {
		t.Error("double unpin should fail")
	}
}

func TestWALAppendRecover(t *testing.T) {
	w := NewWAL()
	l1 := w.Append(1, WALBegin, nil)
	l2 := w.Append(1, WALUpdate, []byte("k=v"))
	l3 := w.Append(1, WALCommit, nil)
	w.Flush(l3)
	recs, err := w.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want 3", len(recs))
	}
	if recs[0].LSN != l1 || recs[1].LSN != l2 || recs[2].LSN != l3 {
		t.Error("LSN ordering wrong")
	}
	if string(recs[1].Payload) != "k=v" {
		t.Errorf("payload = %q", recs[1].Payload)
	}
}

func TestWALCrashLosesUnflushed(t *testing.T) {
	w := NewWAL()
	l1 := w.Append(1, WALBegin, nil)
	w.Flush(l1)
	w.Append(1, WALUpdate, []byte("lost"))
	w.Truncate() // crash: only flushed records survive
	recs, err := w.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("recovered %d records after crash, want 1", len(recs))
	}
	if recs[0].Kind != WALBegin {
		t.Error("wrong surviving record")
	}
}

func TestWALPayloadRoundTripProperty(t *testing.T) {
	f := func(payloads [][]byte) bool {
		w := NewWAL()
		var last uint64
		for i, p := range payloads {
			last = w.Append(uint64(i), WALUpdate, p)
		}
		w.Flush(last)
		recs, err := w.Recover()
		if err != nil || len(recs) != len(payloads) {
			return false
		}
		for i, r := range recs {
			if !bytes.Equal(r.Payload, payloads[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

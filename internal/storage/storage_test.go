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
	if err := d2.View(id, func(b []byte) error {
		if string(b[:7]) != "durable" {
			t.Errorf("viewed %q after reopen", b[:7])
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestBufferPoolFetchUnpin(t *testing.T) {
	bp := mustPool(t, NewMemDisk(), 4)
	p, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	copy(p.Data[:], "x")
	if err := bp.Unpin(p.ID, true); err != nil {
		t.Fatal(err)
	}
	p2, err := bp.Fetch(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Data[0] != 'x' {
		t.Errorf("fetched page lost data: %q", p2.Data[:1])
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
		copy(p.Data[:], fmt.Sprintf("page%d", i))
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
		if got := string(p.Data[:5]); got != fmt.Sprintf("page%d", i) {
			t.Errorf("page %d corrupted after eviction: %q", i, got)
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
		p.Data[0] = byte(i)
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
			if p.Data[0] != byte(i) {
				t.Fatalf("page %d holds %d", id, p.Data[0])
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

// TestViewReadsPastThePool: with a hot set resident, a View scan over
// twice the pool's pages reads every page it asks for, evicts nothing —
// the resident count, the hot pages and the eviction count are as they
// were — counts a miss per page the disk lent it, and allocates nothing
// per miss.
func TestViewReadsPastThePool(t *testing.T) {
	const frames = 8
	bp := mustPool(t, NewMemDisk(), frames)
	var ids []PageID
	for i := 0; i < 2*frames+frames/2; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		p.Data[0] = byte(i)
		ids = append(ids, p.ID)
		if err := bp.Unpin(p.ID, true); err != nil {
			t.Fatal(err)
		}
	}
	// The scanned pages are the first 2*frames; the hot set is the rest,
	// fetched last so it is resident, dirty pages among it.
	scanned, hot := ids[:2*frames], ids[2*frames:]
	fetchHot := func() {
		for _, id := range hot {
			if _, err := bp.Fetch(id); err != nil {
				t.Fatal(err)
			}
			if err := bp.Unpin(id, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	fetchHot()
	resident, before := bp.Resident(), bp.Stats.Snapshot()
	// One callback serves the whole scan, so what the scan allocates is
	// the pool's and the disk's doing, not the closure's. The scan is
	// one View over the list, resident and lent pages mixed.
	var i int
	read := func(b []byte) error {
		if len(b) != PageSize || b[0] != byte(i) {
			t.Fatalf("page %d read as %d bytes starting %d, want %d", scanned[i], len(b), b[0], i)
		}
		i++
		return nil
	}
	scan := func() {
		i = 0
		if err := bp.View(scanned, read); err != nil || i != len(scanned) {
			t.Fatalf("View read %d of %d pages: %v", i, len(scanned), err)
		}
	}
	scan()
	after := bp.Stats.Snapshot()
	if got := bp.Resident(); got != resident {
		t.Errorf("resident pages %d after the scan, %d before", got, resident)
	}
	if after.Evictions != before.Evictions || after.Flushes != before.Flushes {
		t.Errorf("the scan evicted %d pages and flushed %d", after.Evictions-before.Evictions, after.Flushes-before.Flushes)
	}
	// The scanned pages still resident from loading are hits; the rest miss.
	stillResident := frames - len(hot)
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != uint64(stillResident) || misses != uint64(2*frames-stillResident) {
		t.Errorf("scan: %d hits, %d misses; want %d, %d", hits, misses, stillResident, 2*frames-stillResident)
	}
	before = after
	fetchHot()
	if after := bp.Stats.Snapshot(); after.Hits-before.Hits != uint64(len(hot)) || after.Misses != before.Misses {
		t.Errorf("a hot page left the pool during the scan: %d hits, %d misses refetching %d pages",
			after.Hits-before.Hits, after.Misses-before.Misses, len(hot))
	}
	if raceEnabled {
		return // the race detector drops sync.Pool entries on purpose
	}
	if allocs := testing.AllocsPerRun(10, scan); allocs > 1 {
		t.Errorf("%.1f allocations per %d-page scan, want ~0", allocs, 2*frames)
	}
}

// TestViewStopsAndReleasesPins: View stops at the first error its
// callback returns, counts only the pages it read, and releases the pin
// of every resident page in the list, read or not, so the frames can be
// evicted afterwards.
func TestViewStopsAndReleasesPins(t *testing.T) {
	bp := mustPool(t, NewMemDisk(), 2)
	var ids []PageID
	for i := 0; i < 3; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, p.ID)
		if err := bp.Unpin(p.ID, true); err != nil {
			t.Fatal(err)
		}
	}
	// ids[0] was evicted by ids[2]; the list is lent, resident, resident.
	stop := errors.New("stop")
	calls := 0
	before := bp.Stats.Snapshot()
	err := bp.View([]PageID{ids[0], ids[1], ids[2]}, func([]byte) error {
		if calls++; calls == 2 {
			return stop
		}
		return nil
	})
	if err != stop || calls != 2 {
		t.Fatalf("View returned %v after %d calls, want the callback's error after 2", err, calls)
	}
	after := bp.Stats.Snapshot()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != 1 || misses != 1 {
		t.Errorf("%d hits and %d misses, want 1 and 1", hits, misses)
	}
	for i := 0; i < 2; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatalf("a frame stayed pinned after View: %v", err)
		}
		if err := bp.Unpin(p.ID, false); err != nil {
			t.Fatal(err)
		}
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

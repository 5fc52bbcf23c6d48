package exec

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"aidb/internal/catalog"
	"aidb/internal/storage"
)

// TestPrunedScansSeeCommittedRows runs filtered scans, serial and at
// Parallelism 2, whose zones prune most pages, while a writer inserts
// batches — each more noise rows than a page holds, which the filter
// rejects, and one row it keeps — and deletes noise rows, so later
// batches land in pages already pruned or read. Every kept row
// committed before a scan opened must be among its answer: zones are
// widened under the same table lock as the row is written, before
// InsertRows returns.
func TestPrunedScansSeeCommittedRows(t *testing.T) {
	c := catalog.NewMem()
	tab, err := c.CreateTable("t", catalog.Schema{Columns: []catalog.Column{
		{Name: "seq", Type: catalog.Int64},
		{Name: "v", Type: catalog.Int64},
	}})
	if err != nil {
		t.Fatal(err)
	}
	p := mustPlan(t, c, "SELECT seq FROM t WHERE v > 500")
	var committed atomic.Int64 // the kept rows 1..committed are in the table
	noise := func(i int) catalog.Row { return catalog.Row{int64(-i), int64(i % 100)} }
	var rids []storage.RecordID
	var rows []catalog.Row
	write := func(seq int) {
		var batch []catalog.Row
		for i := 0; i < 400; i++ {
			batch = append(batch, noise(400*seq+i))
		}
		// The kept row goes anywhere in the batch: on the last page, into
		// a hole a delete left or on a new page.
		at := seq * 37 % 400
		batch = slices.Insert(batch, at, catalog.Row{int64(seq), int64(1000 + seq)})
		if err := tab.InsertRows(batch, func(i int, rid storage.RecordID) {
			if i != at {
				rids, rows = append(rids, rid), append(rows, batch[i])
			}
		}); err != nil {
			t.Error(err)
			return
		}
		committed.Store(int64(seq))
		// Delete every third noise row written so far, once.
		for len(rids) > 300 {
			if err := tab.DeleteIf(rids[0], rows[0]); err != nil {
				t.Error(err)
				return
			}
			rids, rows = rids[3:], rows[3:]
		}
	}
	for seq := 1; seq <= 20; seq++ {
		write(seq)
	}
	// Alone, a scan counts the rows of the pages it prunes as scanned.
	ex, prof := New(nil), NewQueryProfile(p, nil)
	if _, err := ex.RunCompiled(context.Background(), p, nil, RunArgs{Profile: prof}); err != nil {
		t.Fatal(err)
	}
	prof.Walk(func(op *OpProfile, _ int) {
		if op.Kind != "Scan" {
			return
		}
		if n := tab.NumRows(); op.ActualRows() != int64(n) || ex.Stats.RowsScanned.Load() != uint64(n) {
			t.Errorf("scan counted %d rows, stats %d; the table has %d", op.ActualRows(), ex.Stats.RowsScanned.Load(), n)
		}
		if read, pruned := op.PagesRead(), op.PagesPruned(); read+pruned != int64(len(tab.PageIDs())) || pruned == 0 {
			t.Errorf("scan read %d pages and pruned %d of %d", read, pruned, len(tab.PageIDs()))
		}
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := 21; ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			write(seq)
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	pruned := 0
	for i := 0; i < 200; i++ {
		prof := NewQueryProfile(p, nil)
		before := committed.Load()
		res, err := New(nil).RunCompiled(context.Background(), p, nil, RunArgs{Profile: prof, Parallelism: 1 + i%2})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int64]bool{}
		for _, r := range res.Rows {
			seen[r[0].(int64)] = true
		}
		for seq := int64(1); seq <= before; seq++ {
			if !seen[seq] {
				t.Fatalf("scan %d: kept row %d, committed before the scan opened, is missing", i, seq)
			}
		}
		prof.Walk(func(op *OpProfile, _ int) { pruned += int(op.PagesPruned()) })
	}
	if pruned == 0 {
		t.Fatal("no scan pruned a page: the test checks nothing")
	}
}

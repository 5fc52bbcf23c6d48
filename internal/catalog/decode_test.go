package catalog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"aidb/internal/storage"
)

// FuzzDecodePage builds a table from its input — a schema of one to six
// INT, FLOAT and TEXT columns, then bursts of inserts (empty strings and
// strings over 1 KB among them), deletes, and replacements whose strings
// alternate long and short, as an UPDATE churning a TEXT column writes
// them, so later inserts reuse dead slots, pages lay themselves out
// again and their dictionaries drop dead entries — over a buffer pool of
// four frames, so most pages are read past the pool. For every subset
// of the columns, DecodePages (in batches that mix resident and lent
// pages, stopped early by row limits), DecodeRecords and Get must agree
// cell for cell with what was written, record ids and their order
// included. Then one page is corrupted — a TEXT code past the
// dictionary, a dictionary entry out of order or past the page, two
// neighbouring entries past the page, an entry count that runs the
// entries into the strings, a slot count past the
// capacity or column areas past the page — and a reader must return an
// error, never panic, when it reads the damage; every read that succeeds
// returns what was written.
func FuzzDecodePage(f *testing.F) {
	// The first byte sets the column count, one byte per column its
	// type (0 INT, 1 FLOAT, 2 TEXT); then each byte is a burst of up to
	// 16 deletes (low bits 0), replacements (3) or inserts (1, 2).
	seed := func(bursts int, types ...byte) []byte {
		ins, del := bytes.Repeat([]byte{0xfd}, bursts), bytes.Repeat([]byte{0x3c}, 3)
		return slices.Concat([]byte{byte(len(types) - 1)}, types, ins, del, ins[:3], del, ins, []byte{0xff, 0xff, 0xff})
	}
	f.Add(seed(6, 0, 2, 1))
	f.Add(seed(6, 2, 0, 2, 1, 2, 1))
	f.Add(seed(28, 0))
	f.Add(seed(12, 1, 1, 0))
	f.Add(seed(6, 2))
	f.Add([]byte{2, 0, 2, 1, 0xfd, 0x01, 0x3c, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzInput{b: data}
		schema := Schema{Columns: make([]Column, 1+in.byte()%6)}
		for i := range schema.Columns {
			schema.Columns[i] = Column{Name: fmt.Sprint("c", i), Type: ColType(in.byte() % 3)}
		}
		pool, err := storage.NewBufferPool(storage.NewMemDisk(), 4)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := New(pool).CreateTable("t", schema)
		if err != nil {
			t.Fatal(err)
		}
		written := map[storage.RecordID]Row{}
		var live, deleted []storage.RecordID
		insert := func(row Row) {
			rid, err := tab.Insert(row)
			if err != nil {
				t.Fatal(err)
			}
			written[rid] = row
			live = append(live, rid)
		}
		remove := func() {
			k := int(in.rand() % uint64(len(live)))
			rid := live[k]
			if err := tab.Delete(rid); err != nil {
				t.Fatal(err)
			}
			delete(written, rid)
			live = slices.Delete(live, k, k+1)
			deleted = append(deleted, rid)
		}
		for ops := 0; ops < 64 && len(in.b) > 0; ops++ {
			op := in.byte()
			n := 1 + int(op>>2)%16
			switch {
			case len(live) == 0 || op&3 == 1 || op&3 == 2:
				for ; n > 0; n-- {
					insert(in.row(&schema))
				}
			case op&3 == 0:
				for ; n > 0 && len(live) > 0; n-- {
					remove()
				}
			default:
				for i := 0; i < n; i++ {
					remove()
					insert(in.sized(&schema, i%2 == 0))
				}
			}
		}
		checkDecoders(t, tab, written, deleted, in)
		corruptOnePage(t, tab, pool, live, written, in)
	})
}

// fuzzInput hands out the fuzzer's bytes, then zeros, and a splitmix64
// stream for the values, so a short input still writes many pages.
type fuzzInput struct {
	b []byte
	n uint64
}

func (in *fuzzInput) byte() byte {
	if len(in.b) == 0 {
		return 0
	}
	c := in.b[0]
	in.b = in.b[1:]
	return c
}

// pick returns a number below n: from the fuzzer's next byte, or, once
// they run out, from the stream, so every choice is still made.
func (in *fuzzInput) pick(n int) int {
	if len(in.b) == 0 {
		return int(in.rand() % uint64(n))
	}
	return int(in.byte()) % n
}

func (in *fuzzInput) rand() uint64 {
	in.n++
	x := in.n * 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// row makes a row of every bit pattern: any int64, any float64 (NaN
// too), and strings of any bytes that are empty, short, or — at most one
// per row, so the record fits a page — over 1 KB.
func (in *fuzzInput) row(s *Schema) Row {
	row := make(Row, len(s.Columns))
	long := false
	for i, c := range s.Columns {
		switch x := in.rand(); c.Type {
		case Int64:
			row[i] = int64(x)
		case Float64:
			row[i] = math.Float64frombits(x)
		default:
			n := 0
			switch x % 4 {
			case 1, 2:
				n = 1 + int(x>>8)%24
			case 3:
				if !long {
					n, long = 1025+int(x>>8)%400, true
				}
			}
			b := make([]byte, n)
			for j := range b {
				b[j] = byte(in.rand())
			}
			row[i] = string(b)
		}
	}
	return row
}

// sized makes a row like row does, with every string long (100 to 399
// bytes) or short (0 to 10).
func (in *fuzzInput) sized(s *Schema, long bool) Row {
	row := in.row(s)
	for i, c := range s.Columns {
		if c.Type == String {
			n := int(in.rand() % 11)
			if long {
				n = 100 + int(in.rand()%300)
			}
			b := make([]byte, n)
			for j := range b {
				b[j] = byte(in.rand())
			}
			row[i] = string(b)
		}
	}
	return row
}

// cell boxes row i of vector v, a column of type typ.
func cell(v *Vector, typ ColType, i int) Value {
	switch typ {
	case Int64:
		return v.I[i]
	case Float64:
		return v.F[i]
	}
	return v.S[i]
}

// sameValue compares a read value with a written one, floats bit for bit.
func sameValue(got, want Value) bool {
	if f, ok := want.(float64); ok {
		g, ok := got.(float64)
		return ok && math.Float64bits(g) == math.Float64bits(f)
	}
	return got == want
}

// columns returns one vector per column in mask, nil for the others.
func columns(ncols, mask int) []*Vector {
	cols := make([]*Vector, ncols)
	for c := range cols {
		if mask&(1<<c) != 0 {
			cols[c] = &Vector{}
		}
	}
	return cols
}

// checkCells requires a decode to have read exactly the records want,
// in that order, n of them, into cols, with the cells written holds.
func checkCells(t *testing.T, how string, tab *Table, cols []*Vector, n int, rids, want []storage.RecordID, written map[storage.RecordID]Row) {
	t.Helper()
	if n != len(want) || !slices.Equal(rids, want) {
		t.Fatalf("%s: %d rows, ids %v; want %v", how, n, rids, want)
	}
	for c, v := range cols {
		if v == nil {
			continue
		}
		if got := len(v.I) + len(v.F) + len(v.S); got != len(want) {
			t.Fatalf("%s: column %d has %d cells, want %d", how, c, got, len(want))
		}
		for i, rid := range want {
			if !sameValue(cell(v, tab.Schema.Columns[c].Type, i), written[rid][c]) {
				t.Fatalf("%s: row %v column %d differs from what was written", how, rid, c)
			}
		}
	}
}

// decodeInBatches decodes pages by DecodePages in batches of one to six
// pages, the pool's resident pages and lent ones mixed, each call with a
// row limit that is often small enough to stop it early: a call must
// read at least one page, stop only once it has limit rows, and go on
// while it has fewer. live counts the live records of each page.
func decodeInBatches(tab *Table, pages []storage.PageID, cols []*Vector, rids *[]storage.RecordID, live map[storage.PageID]int, in *fuzzInput) (int, error) {
	n := 0
	for len(pages) > 0 {
		batch := pages[:min(len(pages), 1+int(in.rand()%6))]
		limit := math.MaxInt
		if in.rand()%2 == 0 {
			limit = 1 + int(in.rand()%300)
		}
		read, got, err := tab.DecodePages(batch, cols, rids, limit)
		if err != nil {
			return n, err
		}
		before := 0
		for _, page := range batch[:max(read-1, 0)] {
			before += live[page]
		}
		if read < 1 || read > len(batch) || before >= limit || (read < len(batch) && got < limit) {
			return n, fmt.Errorf("DecodePages of %d pages with limit %d read %d pages and %d rows, %d before the last", len(batch), limit, read, got, before)
		}
		n += got
		pages = pages[read:]
	}
	return n, nil
}

// checkDecoders decodes tab by page and by record id under every column
// subset, and each record by Get, against written.
func checkDecoders(t *testing.T, tab *Table, written map[storage.RecordID]Row, deleted []storage.RecordID, in *fuzzInput) {
	t.Helper()
	pages := tab.PageIDs()
	heapOrder := map[storage.PageID]int{}
	for i, page := range pages {
		heapOrder[page] = i
	}
	var inHeapOrder []storage.RecordID
	live := map[storage.PageID]int{}
	for rid := range written {
		inHeapOrder = append(inHeapOrder, rid)
		live[rid.Page]++
	}
	slices.SortFunc(inHeapOrder, func(a, b storage.RecordID) int {
		if a.Page != b.Page {
			return heapOrder[a.Page] - heapOrder[b.Page]
		}
		return a.Slot - b.Slot
	})
	// DecodeRecords is asked for the live records in a shuffled order
	// with deleted ones among them, which it must skip.
	asked := append(slices.Clone(inHeapOrder), deleted...)
	for i := len(asked) - 1; i > 0; i-- {
		j := int(in.rand() % uint64(i+1))
		asked[i], asked[j] = asked[j], asked[i]
	}
	var answered []storage.RecordID
	for _, rid := range asked {
		if _, ok := written[rid]; ok {
			answered = append(answered, rid)
		}
	}
	ncols := len(tab.Schema.Columns)
	for mask := 0; mask < 1<<ncols; mask++ {
		cols := columns(ncols, mask)
		var rids []storage.RecordID
		n, err := decodeInBatches(tab, pages, cols, &rids, live, in)
		if err != nil {
			t.Fatal(err)
		}
		checkCells(t, fmt.Sprintf("DecodePages, columns %b", mask), tab, cols, n, rids, inHeapOrder, written)
		cols = columns(ncols, mask)
		rids = rids[:0]
		n, err = tab.DecodeRecords(asked, cols, &rids)
		if err != nil {
			t.Fatal(err)
		}
		checkCells(t, fmt.Sprintf("DecodeRecords, columns %b", mask), tab, cols, n, rids, answered, written)
	}
	for _, rid := range inHeapOrder {
		row, err := tab.Get(rid)
		if err != nil {
			t.Fatalf("Get(%v): %v", rid, err)
		}
		for c := range row {
			if !sameValue(row[c], written[rid][c]) {
				t.Fatalf("Get(%v) column %d differs from what was written", rid, c)
			}
		}
	}
	for _, rid := range deleted {
		if _, ok := written[rid]; !ok {
			if _, err := tab.Get(rid); err == nil {
				t.Fatalf("Get(%v) of a deleted record succeeded", rid)
			}
		}
	}
}

// corruptOnePage damages the page of one live record in one of five
// ways, and requires each reader to fail, never panic, when it reads the
// damage, and every read that succeeds to return exactly what was
// written:
//
//	0: the record's code in one TEXT column past the dictionary. A read
//	   fails exactly when it reads that cell.
//	1: the dictionary entry of that code out of order — above the entry
//	   before it or the end of the page, below the entry after it or the
//	   dictionary's end — and
//	3: an entry count that runs the entries into that entry's string,
//	   and
//	4: two neighbouring entries at or before that entry's past the page,
//	   in order, so a string whose own entries are intact would end past
//	   it. A read fails when it reads that column of the record, and
//	   DecodePages whenever it reads a TEXT column of the page, since it
//	   takes the page's whole dictionary; a read of the page's other
//	   records may fail, as it may share the entry or its neighbours.
//	2: the page's slot count past its capacity, or its column areas or
//	   entries past the page. Every read of the page fails.
//
// Readers check what they dereference, so a TEXT column a scan does not
// read is not looked at.
func corruptOnePage(t *testing.T, tab *Table, pool *storage.BufferPool, live []storage.RecordID, written map[storage.RecordID]Row, in *fuzzInput) {
	t.Helper()
	if len(live) == 0 {
		return
	}
	rid := live[in.rand()%uint64(len(live))]
	p, err := pool.Fetch(rid.Page)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tab.layout.open(p.Data[:], rid.Page)
	if err != nil {
		t.Fatal(err)
	}
	put := func(at, v int) { binary.LittleEndian.PutUint16(p.Data[at:], uint16(v)) }
	mode := in.pick(5)
	text := tab.layout.text
	bad, e := -1, -1 // the TEXT column damaged, and its code at the record
	if len(text) == 0 {
		mode = 2
	} else {
		bad = text[in.rand()%uint64(len(text))]
		e = int(binary.LittleEndian.Uint16(p.Data[h.area(bad)+2*rid.Slot:]))
	}
	// Entries in the page cannot run into a string that ends it.
	if mode == 3 && (h.at(e)-h.dict)/2+1 > (storage.PageSize-h.dict)/2 || mode == 4 && h.k < 2 {
		mode = 1
	}
	switch x := int(in.rand() % 4096); mode {
	case 0:
		put(h.area(bad)+2*rid.Slot, h.k+x%(1<<16-h.k))
	case 1:
		entry := h.dict + 2*e
		switch {
		case x%2 == 0 && e == 0: // past the page
			put(entry, storage.PageSize+1+x%(1<<16-storage.PageSize-1))
		case x%2 == 0: // above the entry before it
			put(entry, h.at(e-1)+1+x%(1<<16-h.at(e-1)-1))
		case e+1 < h.k: // below the entry after it
			put(entry, x%h.at(e+1))
		default: // below the dictionary's end
			put(entry, x%(h.dict+2*h.k))
		}
	case 2:
		switch x % 3 {
		case 0:
			put(0, h.cap+1+x)
		case 1:
			c := h.cap + 1
			for tab.layout.areasEnd(c)+2*h.k <= storage.PageSize {
				c++
			}
			put(2, c+x)
		default:
			put(4, (storage.PageSize-h.dict)/2+1+x)
		}
	case 3:
		lo, hi := (h.at(e)-h.dict)/2+1, (storage.PageSize-h.dict)/2
		put(4, lo+x%(hi-lo+1))
	case 4:
		j := max(e-2, 0)
		y := storage.PageSize + 1 + x%(1<<16-storage.PageSize-1)
		put(h.dict+2*j, y+int(in.rand()%uint64(1<<16-y)))
		put(h.dict+2*j+2, y)
	}
	if err := pool.Unpin(rid.Page, true); err != nil {
		t.Fatal(err)
	}
	// The damaged page's live records and the table's, in heap order.
	pages := tab.PageIDs()
	heapOrder := map[storage.PageID]int{}
	for i, page := range pages {
		heapOrder[page] = i
	}
	all := slices.Clone(live)
	slices.SortFunc(all, func(a, b storage.RecordID) int {
		if a.Page != b.Page {
			return heapOrder[a.Page] - heapOrder[b.Page]
		}
		return a.Slot - b.Slot
	})
	onPage := map[storage.PageID]int{}
	var page []storage.RecordID
	for _, r := range all {
		onPage[r.Page]++
		if r.Page == rid.Page {
			page = append(page, r)
		}
	}
	const (
		pass   = iota // the read must succeed
		fail          // it must fail
		either        // it may fail; if not, it returns what was written
	)
	ncols := len(tab.Schema.Columns)
	for mask := 0; mask < 1<<ncols; mask++ {
		// expect holds a read to want.
		expect := func(how string, want int, n int, err error, rids, records []storage.RecordID, cols []*Vector) {
			t.Helper()
			how = fmt.Sprintf("corruption %d of %v: %s of columns %b", mode, rid, how, mask)
			switch {
			case want == fail && err == nil:
				t.Fatalf("%s succeeded", how)
			case want == pass && err != nil:
				t.Fatalf("%s, which does not read the damage: %v", how, err)
			case err == nil:
				checkCells(t, how, tab, cols, n, rids, records, written)
			}
		}
		readsBad, readsText := pass, pass
		if bad >= 0 && mask&(1<<bad) != 0 {
			readsBad = fail
		}
		for _, k := range text {
			if mask&(1<<k) != 0 {
				readsText = fail
			}
		}
		scan, record, others := readsBad, readsBad, pass
		switch mode {
		case 1, 3, 4:
			scan = readsText
			if readsText == fail {
				others = either
				if record == pass {
					record = either
				}
			}
		case 2:
			scan, record, others = fail, fail, fail
		}
		var rids []storage.RecordID
		cols := columns(ncols, mask)
		_, n, err := tab.DecodePages([]storage.PageID{rid.Page}, cols, &rids, math.MaxInt)
		expect("DecodePages of the page", scan, n, err, rids, page, cols)
		rids, cols = nil, columns(ncols, mask)
		n, err = decodeInBatches(tab, pages, cols, &rids, onPage, in)
		expect("DecodePages of the table", scan, n, err, rids, all, cols)
		rids, cols = nil, columns(ncols, mask)
		n, err = tab.DecodeRecords([]storage.RecordID{rid}, cols, &rids)
		expect("DecodeRecords", record, n, err, rids, []storage.RecordID{rid}, cols)
		// The page's other records share only its header and dictionary
		// with the damage.
		if rest := slices.DeleteFunc(slices.Clone(page), func(r storage.RecordID) bool { return r == rid }); len(rest) > 0 {
			rids, cols = nil, columns(ncols, mask)
			n, err = tab.DecodeRecords(rest, cols, &rids)
			expect("DecodeRecords of the page's other records", others, n, err, rids, rest, cols)
		}
	}
	if _, err := tab.Get(rid); err == nil {
		t.Fatalf("corruption %d of %v: Get succeeded", mode, rid)
	}
}

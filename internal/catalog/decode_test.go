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
// strings over 1 KB among them) and deletes, so later inserts reuse
// deleted slots — over a buffer pool of four frames, so most pages are
// read past the pool. For every subset of the columns, DecodePage,
// DecodeRecords and Get must agree cell for cell with what was written,
// record ids and their order included. Then one page is corrupted — a
// record cut short, a record running past the page, a slot directory
// longer than the page — and every reader must return an error, never
// panic.
func FuzzDecodePage(f *testing.F) {
	// The first byte sets the column count, one byte per column its
	// type (0 INT, 1 FLOAT, 2 TEXT); then each byte is a burst of up to
	// 16 inserts (low bits nonzero) or deletes (low bits zero).
	seed := func(bursts int, types ...byte) []byte {
		ins, del := bytes.Repeat([]byte{0xfd}, bursts), bytes.Repeat([]byte{0x3c}, 3)
		return slices.Concat([]byte{byte(len(types) - 1)}, types, ins, del, ins[:3], del, ins)
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
		for ops := 0; ops < 64 && len(in.b) > 0; ops++ {
			op := in.byte()
			if n := 1 + int(op>>2)%16; op&3 != 0 || len(live) == 0 {
				for ; n > 0; n-- {
					row := in.row(&schema)
					rid, err := tab.Insert(row)
					if err != nil {
						t.Fatal(err)
					}
					written[rid] = row
					live = append(live, rid)
				}
			} else {
				for ; n > 0 && len(live) > 0; n-- {
					k := int(in.rand() % uint64(len(live)))
					rid := live[k]
					if err := tab.Delete(rid); err != nil {
						t.Fatal(err)
					}
					delete(written, rid)
					live = slices.Delete(live, k, k+1)
					deleted = append(deleted, rid)
				}
			}
		}
		checkDecoders(t, tab, written, deleted, in)
		corruptOnePage(t, tab, pool, live, in)
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
	for rid := range written {
		inHeapOrder = append(inHeapOrder, rid)
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
		vs := make([]Vector, ncols)
		cols := make([]*Vector, ncols)
		for c := range cols {
			if mask&(1<<c) != 0 {
				cols[c] = &vs[c]
			}
		}
		check := func(how string, n int, rids, want []storage.RecordID) {
			t.Helper()
			if n != len(want) || !slices.Equal(rids, want) {
				t.Fatalf("%s, columns %b: %d rows, ids %v; want %v", how, mask, n, rids, want)
			}
			for c, v := range cols {
				if v == nil {
					continue
				}
				if got := len(v.I) + len(v.F) + len(v.S); got != len(want) {
					t.Fatalf("%s, columns %b: column %d has %d cells, want %d", how, mask, c, got, len(want))
				}
				for i, rid := range want {
					if !sameValue(cell(v, tab.Schema.Columns[c].Type, i), written[rid][c]) {
						t.Fatalf("%s, columns %b: row %v column %d differs from what was written", how, mask, rid, c)
					}
				}
			}
		}
		var rids []storage.RecordID
		n := 0
		for _, page := range pages {
			got, err := tab.DecodePage(page, cols, &rids)
			if err != nil {
				t.Fatal(err)
			}
			n += got
		}
		check("DecodePage", n, rids, inHeapOrder)
		for i := range vs {
			vs[i].Reset()
		}
		rids = rids[:0]
		n, err := tab.DecodeRecords(asked, cols, &rids)
		if err != nil {
			t.Fatal(err)
		}
		check("DecodeRecords", n, rids, answered)
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

// corruptOnePage damages the page of one live record in one of three
// ways and requires every reader of the damage to fail, whichever
// columns it reads.
func corruptOnePage(t *testing.T, tab *Table, pool *storage.BufferPool, live []storage.RecordID, in *fuzzInput) {
	t.Helper()
	if len(live) == 0 {
		return
	}
	rid := live[in.rand()%uint64(len(live))]
	p, err := pool.Fetch(rid.Page)
	if err != nil {
		t.Fatal(err)
	}
	dir := 4 + 4*rid.Slot // the record's slot directory entry: offset, length
	off := int(binary.LittleEndian.Uint16(p.Data[dir:]))
	l := int(binary.LittleEndian.Uint16(p.Data[dir+2:]))
	mode := in.byte() % 3
	switch x := int(in.rand() % 4096); mode {
	case 0: // cut the record short
		binary.LittleEndian.PutUint16(p.Data[dir+2:], uint16(x%l))
	case 1: // move or stretch it past the end of the page
		if x%2 == 0 {
			binary.LittleEndian.PutUint16(p.Data[dir:], uint16(storage.PageSize-l+1+x%(0x7fff-storage.PageSize)))
		} else {
			binary.LittleEndian.PutUint16(p.Data[dir+2:], uint16(storage.PageSize-off+1+x))
		}
	case 2: // claim more slots than the page has room for
		binary.LittleEndian.PutUint16(p.Data[0:], uint16(storage.PageSize/4+x))
		rid.Slot = storage.PageSize/4 + x%16 // a slot whose entry lies past the page
	}
	if err := pool.Unpin(rid.Page, true); err != nil {
		t.Fatal(err)
	}
	ncols := len(tab.Schema.Columns)
	for mask := 0; mask < 1<<ncols; mask++ {
		vs := make([]Vector, ncols)
		cols := make([]*Vector, ncols)
		for c := range cols {
			if mask&(1<<c) != 0 {
				cols[c] = &vs[c]
			}
		}
		if _, err := tab.DecodePage(rid.Page, cols, nil); err == nil {
			t.Fatalf("corruption %d of %v: DecodePage of columns %b succeeded", mode, rid, mask)
		}
		if _, err := tab.DecodeRecords([]storage.RecordID{rid}, cols, nil); err == nil {
			t.Fatalf("corruption %d of %v: DecodeRecords of columns %b succeeded", mode, rid, mask)
		}
	}
	if _, err := tab.Get(rid); err == nil {
		t.Fatalf("corruption %d of %v: Get succeeded", mode, rid)
	}
}

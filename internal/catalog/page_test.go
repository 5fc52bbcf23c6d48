package catalog

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"aidb/internal/storage"
)

// textSchema is (id INT, s TEXT), the schema the page tests fill pages with.
var textSchema = Schema{Columns: []Column{{Name: "id", Type: Int64}, {Name: "s", Type: String}}}

// pageRows decodes every live row of page b, with its slot.
func pageRows(t *testing.T, l *pageLayout, b []byte) (map[int]Row, heapPage) {
	t.Helper()
	p, err := l.open(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	var v [2]Vector
	var rids []storage.RecordID
	if _, err := p.decode([]*Vector{&v[0], &v[1]}, p.live(nil), 0, &rids, true); err != nil {
		t.Fatal(err)
	}
	rows := map[int]Row{}
	for i, rid := range rids {
		rows[rid.Slot] = Row{v[0].I[i], v[1].S[i]}
	}
	return rows, p
}

// codesInDictionary reports whether the page's dictionary is whole and
// every code of every slot in use, dead ones too, names one of its
// entries, as the format requires.
func codesInDictionary(p *heapPage) bool {
	if _, ok := p.strings(); !ok {
		return false
	}
	for _, k := range p.l.text {
		for s := 0; s < p.n; s++ {
			if int(u16(p.b[p.area(k)+2*s:])) >= p.k {
				return false
			}
		}
	}
	return true
}

func TestPageInsertGet(t *testing.T) {
	l := newPageLayout(&textSchema)
	var b [storage.PageSize]byte
	slot, err := l.insert(b[:], 0, Row{int64(7), "hello"}, nil)
	if err != nil || slot != 0 {
		t.Fatalf("insert = slot %d, %v", slot, err)
	}
	rows, p := pageRows(t, l, b[:])
	if len(rows) != 1 || rows[0][0] != int64(7) || rows[0][1] != "hello" || p.n != 1 {
		t.Errorf("page holds %v in %d slots", rows, p.n)
	}
}

// TestPageDelete: a deleted slot reads as gone, twice deleting it is
// storage.ErrRecordDeleted, its neighbour is untouched, and deleting
// the last slot in use gives up every dead slot at the end.
func TestPageDelete(t *testing.T) {
	l := newPageLayout(&textSchema)
	var b [storage.PageSize]byte
	for i, s := range []string{"a", "b", "c"} {
		if _, err := l.insert(b[:], 0, Row{int64(i), s}, nil); err != nil {
			t.Fatal(err)
		}
	}
	remove := func(slot int, want Row) error {
		p, err := l.open(b[:], 0)
		if err != nil {
			t.Fatal(err)
		}
		return p.remove(0, slot, want)
	}
	if err := remove(1, Row{int64(1), "x"}); !errors.Is(err, storage.ErrRecordDeleted) {
		t.Errorf("removing slot 1 as another row: %v", err)
	}
	if err := remove(1, Row{int64(1), "b"}); err != nil {
		t.Fatal(err)
	}
	if err := remove(1, nil); !errors.Is(err, storage.ErrRecordDeleted) {
		t.Errorf("double remove: err = %v, want ErrRecordDeleted", err)
	}
	rows, p := pageRows(t, l, b[:])
	if len(rows) != 2 || rows[0][1] != "a" || rows[2][1] != "c" || p.n != 3 {
		t.Errorf("after removing slot 1: %v in %d slots", rows, p.n)
	}
	if err := remove(2, nil); err != nil {
		t.Fatal(err)
	}
	if rows, p := pageRows(t, l, b[:]); len(rows) != 1 || rows[0][1] != "a" || p.n != 1 {
		t.Errorf("after removing the last slot: %v in %d slots, want 1", rows, p.n)
	}
	if err := remove(2, nil); !errors.Is(err, storage.ErrRecordDeleted) {
		t.Errorf("removing a slot given up: %v", err)
	}
}

func TestPageFull(t *testing.T) {
	l := newPageLayout(&textSchema)
	var b [storage.PageSize]byte
	inserted := 0
	for {
		_, err := l.insert(b[:], 0, Row{int64(1), strings.Repeat(string(rune('a'+inserted)), 500)}, nil)
		if errors.Is(err, errPageFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if inserted++; inserted > 100 {
			t.Fatal("page never filled")
		}
	}
	// 4090 bytes / (500 + 2 + 10 + 1/8) per row of its own string => 7
	// rows.
	if inserted != 7 {
		t.Errorf("inserted %d rows of 500 distinct TEXT bytes into a 4KB page", inserted)
	}
	// One string over and over takes its bytes once: the cells fill the page.
	b = [storage.PageSize]byte{}
	row := Row{int64(1), strings.Repeat("x", 500)}
	for inserted = 0; ; inserted++ {
		if _, err := l.insert(b[:], 0, row, nil); errors.Is(err, errPageFull) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	// (4090 - 502) bytes / (10 + 1/8) per row => 354 rows.
	if inserted != 354 {
		t.Errorf("inserted %d rows of one 500-byte string into a 4KB page", inserted)
	}
}

// TestPageInsertReusesDeadSlot: a full page takes a new row into a dead
// slot — the same record id, live neighbours untouched — with its string
// in bytes the dead rows left, compacted, and still refuses a row one
// byte longer than the page has room for. A row whose string the page
// holds takes that string's entry and no bytes.
func TestPageInsertReusesDeadSlot(t *testing.T) {
	l := newPageLayout(&textSchema)
	var b [storage.PageSize]byte
	var want []Row
	for i := 0; ; i++ {
		row := Row{int64(i), strings.Repeat(string(rune('a'+i)), 300+40*i)}
		if _, err := l.insert(b[:], 0, row, nil); errors.Is(err, errPageFull) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		want = append(want, row)
	}
	for _, victim := range []int{1, 3} {
		p, _ := l.open(b[:], 0)
		if err := p.remove(0, victim, want[victim]); err != nil {
			t.Fatal(err)
		}
	}
	rows, p := pageRows(t, l, b[:])
	liveText := 0 // each live string's entry and bytes
	for _, r := range rows {
		liveText += 2 + len(r[1].(string))
	}
	room := storage.PageSize - l.areasEnd(p.n) - liveText - 2
	if room <= len(want[3][1].(string)) {
		t.Fatalf("only %d bytes of room after freeing %d", room, len(want[1][1].(string))+len(want[3][1].(string)))
	}
	if _, err := l.insert(b[:], 0, Row{int64(-1), strings.Repeat("z", room+1)}, nil); !errors.Is(err, errPageFull) {
		t.Fatalf("a row longer than the room must not fit: %v", err)
	}
	got, err := l.insert(b[:], 0, Row{int64(-1), strings.Repeat("z", room)}, nil)
	if err != nil || got != 1 {
		t.Fatalf("insert into a full page with dead slots = slot %d, %v; want slot 1", got, err)
	}
	want[1], want[3] = Row{int64(-1), strings.Repeat("z", room)}, nil
	rows, p = pageRows(t, l, b[:])
	for s, w := range want {
		if r, ok := rows[s]; (w == nil) != !ok || ok && (r[0] != w[0] || r[1] != w[1]) {
			t.Errorf("slot %d holds %v, want %v", s, r, w)
		}
	}
	if p.n != len(want) {
		t.Errorf("%d slots in use, want %d", p.n, len(want))
	}
	// A row repeating a live row's string fits the full page: it takes
	// that string's entry, and the dictionary neither grows nor moves.
	if err := p.remove(0, 1, want[1]); err != nil {
		t.Fatal(err)
	}
	if got, err := l.insert(b[:], 0, Row{int64(-2), want[0][1]}, nil); err != nil || got != 1 {
		t.Fatalf("insert of a row repeating slot 0's string = slot %d, %v; want slot 1", got, err)
	}
	rows, q := pageRows(t, l, b[:])
	if q.k != p.k || q.cap != p.cap || q.at(q.k-1) != p.at(p.k-1) || rows[1][1] != want[0][1] || rows[0][1] != want[0][1] {
		t.Errorf("%d entries (were %d), capacity %d (was %d), slot 1 holds %.8q", q.k, p.k, q.cap, p.cap, rows[1])
	}
}

func TestPageRejectsOversizeRecord(t *testing.T) {
	tab, err := NewMem().CreateTable("t", textSchema)
	if err != nil {
		t.Fatal(err)
	}
	fits := storage.PageSize - tab.layout.areasEnd(1) - 2 // a string's bytes and its entry
	if err := tab.checkRow(Row{int64(1), strings.Repeat("x", fits+1)}); err == nil {
		t.Error("a row one byte longer than an empty page must be rejected")
	}
	row := Row{int64(1), strings.Repeat("x", fits)}
	rid, err := tab.Insert(row)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := tab.Get(rid); err != nil || got[1] != row[1] {
		t.Errorf("a row that just fits reads back as %d bytes, %v", len(got[1].(string)), err)
	}
}

// TestPageSlotBoundsChecks: a header that does not hold — a slot count
// past the capacity, column areas or dictionary entries past the page —
// fails every read, and a slot out of range is an error or, at or past
// the slots in use, a deleted record.
func TestPageSlotBoundsChecks(t *testing.T) {
	l := newPageLayout(&textSchema)
	var good [storage.PageSize]byte
	for i := 0; i < 2; i++ {
		if _, err := l.insert(good[:], 0, Row{int64(i), "abc"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	p, _ := l.open(good[:], 0)
	for _, c := range []struct {
		name    string
		n, c, k int
	}{
		{"slots past the capacity", p.cap + 1, p.cap, p.k},
		{"areas past the page", p.n, p.cap + (storage.PageSize-p.dict-2*p.k)/l.slot + 1, p.k},
		{"entries past the page", p.n, p.cap, (storage.PageSize-p.dict)/2 + 1},
		{"entries far past the page", p.n, p.cap, 1<<16 - 1},
	} {
		b := good
		h := heapPage{b: b[:], n: c.n, cap: c.c, k: c.k}
		h.writeHeader()
		if _, err := l.open(b[:], 0); err == nil {
			t.Errorf("%s: open succeeded", c.name)
		}
		if _, err := l.insert(b[:], 0, Row{int64(9), "x"}, nil); err == nil || errors.Is(err, errPageFull) {
			t.Errorf("%s: insert = %v, want a corruption error", c.name, err)
		}
	}
	for slot, want := range map[int]error{2: storage.ErrRecordDeleted, 1 << 20: storage.ErrRecordDeleted} {
		if err := p.remove(0, slot, nil); !errors.Is(err, want) {
			t.Errorf("remove(%d) = %v, want %v", slot, err, want)
		}
	}
	if err := p.remove(0, -1, nil); err == nil || errors.Is(err, storage.ErrRecordDeleted) {
		t.Errorf("remove(-1) = %v, want an error", err)
	}
}

// Property: any sequence of rows inserted, some deleted and their
// slots taken by later rows, reads back intact, floats bit for bit.
func TestPageRoundTripProperty(t *testing.T) {
	schema := Schema{Columns: []Column{{Name: "i", Type: Int64}, {Name: "s", Type: String}, {Name: "f", Type: Float64}}}
	l := newPageLayout(&schema)
	f := func(ints []int64, strs []string, floats []float64, dels []uint8) bool {
		var b [storage.PageSize]byte
		stored := map[int]Row{}
		var order []int // the slots stored, oldest first
		for i, x := range ints {
			s := ""
			if i < len(strs) {
				s = strs[i][:min(len(strs[i]), 600)]
			}
			fl := math.NaN()
			if i < len(floats) {
				fl = floats[i]
			}
			slot, err := l.insert(b[:], 0, Row{x, s, fl}, nil)
			if errors.Is(err, errPageFull) {
				continue
			}
			if err != nil {
				return false
			}
			stored[slot] = Row{x, s, fl}
			order = append(order, slot)
			if i < len(dels) && dels[i]%3 == 0 {
				k := int(dels[i]) % len(order)
				p, _ := l.open(b[:], 0)
				if p.remove(0, order[k], stored[order[k]]) != nil {
					return false
				}
				delete(stored, order[k])
				order = slices.Delete(order, k, k+1)
			}
		}
		p, err := l.open(b[:], 0)
		if err != nil || !codesInDictionary(&p) {
			return false
		}
		var v [3]Vector
		var rids []storage.RecordID
		if _, err := p.decode([]*Vector{&v[0], &v[1], &v[2]}, p.live(nil), 0, &rids, true); err != nil {
			return false
		}
		if len(rids) != len(stored) {
			return false
		}
		for i, rid := range rids {
			w := stored[rid.Slot]
			if w == nil || v[0].I[i] != w[0] || v[1].S[i] != w[1] || math.Float64bits(v[2].F[i]) != math.Float64bits(w[2].(float64)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDecodeWordsPaths holds the block copy of a run of 8-byte cells to
// the word-at-a-time decoder, which big-endian hosts and slot gathers
// take, by calling the latter directly: over an INT and a FLOAT area of
// NaNs with payloads, ±0, ±Inf, the int64 extremes and a subnormal,
// with slots nil and with every slot listed, both must give the cells'
// values bit for bit.
func TestDecodeWordsPaths(t *testing.T) {
	cells := []uint64{
		0x7ff0000000000001, 0x7ff8000000000001, 0xfff4000000c0ffee, // NaN payloads, one signalling
		math.Float64bits(math.Copysign(0, -1)), 0, math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
		uint64(math.MaxInt64), 1 << 63, 1, // MaxInt64, MinInt64 and a subnormal's bits
		math.Float64bits(-1.5), 0x0123456789abcdef,
	}
	area := make([]byte, 8*len(cells))
	for i, c := range cells {
		binary.LittleEndian.PutUint64(area[8*i:], c)
	}
	all := make([]int32, len(cells))
	for i := range all {
		all[i] = int32(i)
	}
	for _, slots := range [][]int32{nil, all} {
		ints := [2][]int64{make([]int64, len(cells)), make([]int64, len(cells))}
		floats := [2][]float64{make([]float64, len(cells)), make([]float64, len(cells))}
		decodeWords(words(ints[0]), area, slots)
		decodeEachWord(words(ints[1]), area, slots)
		decodeWords(words(floats[0]), area, slots)
		decodeEachWord(words(floats[1]), area, slots)
		for i, c := range cells {
			for path := range 2 {
				if uint64(ints[path][i]) != c || math.Float64bits(floats[path][i]) != c {
					t.Fatalf("slots %v, path %d, cell %d: INT %#x, FLOAT %#x, want %#x",
						slots, path, i, uint64(ints[path][i]), math.Float64bits(floats[path][i]), c)
				}
			}
		}
	}
}

package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"sync"
	"unsafe"

	"aidb/internal/storage"
)

// A heap page is laid out by column (PAX, Ailamaki et al., VLDB 2001),
// so a scan reads each column it returns as one run and never touches
// the others, and its TEXT is dictionary-coded (Abadi et al., SIGMOD
// 2006), so a string a page holds many times is stored there once:
//
//	[0:2)  n: slots in use, live or dead; the slots from n on are free
//	[2:4)  capacity: the slots the column areas have room for
//	[4:6)  k: the entries of the page's dictionary
//	then the dead-slot bitmap, ⌈capacity/8⌉ bytes: bit s%8 of byte s/8
//	then one area per column, in schema order, of capacity cells: 8
//	bytes for INT and FLOAT; for TEXT, the 2-byte code of the string's
//	dictionary entry
//	then the dictionary, one 2-byte entry per distinct string, shared by
//	the TEXT columns: entry i is where string i starts, and the string
//	ends where string i-1 starts, or at the end of the page for i = 0
//	and last the strings' bytes, growing down from the end of the page
//
// Numbers are little-endian, and a zeroed page is an empty one. A slot
// is a record id: a live row never changes slot. Slot n-1 is live (a
// delete gives up the dead slots at the end), every code of a slot below
// n is below k, and the entries run down from the end of the page to no
// lower than the dictionary's end, each at or below the one before it.
// An entry only dead slots use stays until the page is laid out again.
const (
	pageHeader = 6
	pageSize   = storage.PageSize
)

// errPageFull reports a row that no layout of the page has room for.
var errPageFull = errors.New("catalog: page full")

// pageLayout is where a schema's columns lie on a heap page.
type pageLayout struct {
	types  []ColType
	width  []int // per column: 8, or 2 for TEXT
	before []int // per column: the width of the columns before it
	slot   int   // the width of every column: one slot's cells
	text   []int // the TEXT columns
}

func newPageLayout(s *Schema) *pageLayout {
	l := &pageLayout{width: make([]int, len(s.Columns)), before: make([]int, len(s.Columns))}
	for k, c := range s.Columns {
		l.types = append(l.types, c.Type)
		l.width[k], l.before[k] = 8, l.slot
		if c.Type == String {
			l.width[k] = 2
			l.text = append(l.text, k)
		}
		l.slot += l.width[k]
	}
	return l
}

// areasEnd is where the column areas of a page of capacity c end.
func (l *pageLayout) areasEnd(c int) int { return pageHeader + (c+7)/8 + c*l.slot }

// rowText is the dictionary bytes row, which fits the schema, takes on
// a page it shares no string with: an entry and the bytes of each of its
// distinct strings.
func (l *pageLayout) rowText(row Row) int {
	n := 0
	for j, k := range l.text {
		if s := row[k].(string); firstOf(row, l.text[:j], s) < 0 {
			n += 2 + len(s)
		}
	}
	return n
}

// firstOf returns the index in cols of the first of row's columns cols
// whose string is s, or -1.
func firstOf(row Row, cols []int, s string) int {
	for i, k := range cols {
		if row[k].(string) == s {
			return i
		}
	}
	return -1
}

// heapPage is a page's bytes with its header read and checked: the
// capacity's column areas and the dictionary's entries lie in the page,
// and n is within the capacity.
type heapPage struct {
	b      []byte
	l      *pageLayout
	n, cap int
	k      int // dictionary entries
	dict   int // where the entries start: the column areas' end
}

func (l *pageLayout) open(b []byte, id storage.PageID) (heapPage, error) {
	b = b[:pageSize]
	n, c, k := int(u16(b)), int(u16(b[2:])), int(u16(b[4:]))
	p := heapPage{b: b, l: l, n: n, cap: c, k: k, dict: l.areasEnd(c)}
	if n > c || p.dict+2*k > pageSize {
		return p, fmt.Errorf("catalog: page %d: %d slots of %d and %d dictionary entries overrun the page", id, n, c, k)
	}
	return p, nil
}

func u16(b []byte) uint16 { return binary.LittleEndian.Uint16(b) }

func (p *heapPage) writeHeader() {
	binary.LittleEndian.PutUint16(p.b, uint16(p.n))
	binary.LittleEndian.PutUint16(p.b[2:], uint16(p.cap))
	binary.LittleEndian.PutUint16(p.b[4:], uint16(p.k))
}

// area is where column k's cells start.
func (p *heapPage) area(k int) int { return pageHeader + (p.cap+7)/8 + p.cap*p.l.before[k] }

func (p *heapPage) dead(s int) bool { return p.b[pageHeader+s/8]&(1<<(s%8)) != 0 }

// bitmap is the part of the dead-slot bitmap that covers the slots in use.
func (p *heapPage) bitmap() []byte { return p.b[pageHeader : pageHeader+(p.n+7)/8] }

// live returns nil when every slot in use is live, else the live slots,
// appended to buf[:0].
func (p *heapPage) live(buf []int32) []int32 {
	for _, x := range p.bitmap() {
		if x != 0 {
			if buf = buf[:0]; buf == nil {
				buf = make([]int32, 0, p.n)
			}
			for s := 0; s < p.n; s++ {
				if !p.dead(s) {
					buf = append(buf, int32(s))
				}
			}
			return buf
		}
	}
	return nil
}

// at reads dictionary entry i, which the caller knows is below k.
func (p *heapPage) at(i int) int { return int(u16(p.b[p.dict+2*i:])) }

// entry returns where entry i's string lies, reporting whether i is
// below k and the entries that bound the string hold their order: from
// entry i+1 or the dictionary's end, whichever is higher, up through
// entries i, i-1 and i-2, or the end of the page if lower, to the end of
// the page. Damage to either end of the string breaks that order, so a
// string entry returns is the one written, and lies in the page.
func (p *heapPage) entry(i int) (off, end int, ok bool) {
	if i >= p.k {
		return 0, 0, false
	}
	lo, top := p.dict+2*p.k, pageSize
	if i+1 < p.k {
		lo = max(lo, p.at(i+1))
	}
	off, end = p.at(i), pageSize
	if i > 0 {
		end = p.at(i - 1)
	}
	if i > 1 {
		top = min(top, p.at(i-2))
	}
	return off, end, lo <= off && off <= end && end <= top
}

// strings checks the whole dictionary — the entries running down from
// the end of the page, each at or below the one before, to no lower than
// the dictionary's end — and returns where the strings start.
func (p *heapPage) strings() (low int, ok bool) {
	low = pageSize
	for i := 0; i < p.k; i++ {
		off := p.at(i)
		if off > low {
			return 0, false
		}
		low = off
	}
	return low, low >= p.dict+2*p.k
}

func errCode(id storage.PageID, s int) error {
	return fmt.Errorf("catalog: page %d: slot %d's TEXT code is not an entry of the page's dictionary", id, s)
}

func errDict(id storage.PageID) error {
	return fmt.Errorf("catalog: page %d: the TEXT dictionary's entries are out of order or outside the page", id)
}

// decode appends to each non-nil entry of cols the cells of slots, or
// of every slot in use when slots is nil, and to *rids, when rids is
// non-nil, their record ids; it returns how many rows. A TEXT column
// takes the page's whole dictionary, checked entry by entry, when whole
// is set (see decodeCodes), and otherwise a copy of each string it reads,
// its entry checked. Each code is checked where it is read. A code or
// entry that does not hold is an error, and the vectors then hold part of
// the page.
func (p *heapPage) decode(cols []*Vector, slots []int32, id storage.PageID, rids *[]storage.RecordID, whole bool) (int, error) {
	rows := len(slots)
	if slots == nil {
		rows = p.n
	}
	for k, v := range cols {
		if v == nil {
			continue
		}
		at := p.area(k)
		switch p.l.types[k] {
		case Int64:
			decodeWords(words(extend(&v.I, rows)), p.b[at:at+8*p.n], slots)
		case Float64:
			decodeWords(words(extend(&v.F, rows)), p.b[at:at+8*p.n], slots)
		default:
			cells := p.b[at : at+2*p.n]
			if whole {
				if err := p.decodeCodes(v, cells, slots, rows, id); err != nil {
					return 0, err
				}
				continue
			}
			for _, s := range slots {
				off, end, ok := p.entry(int(u16(cells[2*s:])))
				if !ok {
					return 0, errCode(id, int(s))
				}
				v.appendString(p.b[off:end])
			}
		}
	}
	if rids != nil {
		dst := extend(rids, rows)
		for i := range dst {
			s := i
			if slots != nil {
				s = int(slots[i])
			}
			dst[i] = storage.RecordID{Page: id, Slot: s}
		}
	}
	return rows, nil
}

// decodeCodes appends the page's dictionary to v.Dict, its strings cut
// from one copy of their bytes, then for each of rows rows — slots, or
// every slot in use when slots is nil — the code in cells renumbered in
// v.Dict to v.Codes and its string to v.S.
func (p *heapPage) decodeCodes(v *Vector, cells []byte, slots []int32, rows int, id storage.PageID) error {
	low, ok := p.strings()
	if !ok {
		return errDict(id)
	}
	text := v.appendText(p.b[low:])
	base := len(v.Dict)
	for i, end := 0, pageSize; i < p.k; i++ {
		off := p.at(i)
		v.Dict = append(v.Dict, text.cut(off-low, end-off))
		end = off
	}
	dict, b := v.Dict[base:], int32(base)
	strs, codes := extend(&v.S, rows), extend(&v.Codes, rows)
	if slots == nil {
		if s := fillCodes(strs, codes, cells, dict, b); s >= 0 {
			return errCode(id, s)
		}
		return nil
	}
	for i, s := range slots {
		c := u16(cells[2*s:])
		if int(c) >= len(dict) {
			return errCode(id, int(s))
		}
		strs[i], codes[i] = dict[c], b+int32(c)
	}
	return nil
}

// fillCodes sets strs[i] to the entry of dict the code of slot i in
// cells names and codes[i] to that code plus base, and returns -1, or
// the first slot whose code dict has no entry for. It is decodeCodes'
// loop over every slot, kept small so its operands stay in registers.
func fillCodes(strs []string, codes []int32, cells []byte, dict []string, base int32) int {
	cells, codes = cells[:2*len(strs)], codes[:len(strs)]
	for i := range strs {
		c := uint(cells[2*i]) | uint(cells[2*i+1])<<8
		if c >= uint(len(dict)) {
			return i
		}
		strs[i], codes[i] = dict[c], base+int32(c)
	}
	return -1
}

// littleEndian is whether the host keeps a word's bytes in the page's
// order, so that a run of cells is its vector's bytes as they lie.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// decodeWords fills dst with the 8-byte cells in area of slots, or of
// slots 0, 1, ... when slots is nil: then, on a little-endian host, with
// one copy of the run's bytes.
func decodeWords(dst []uint64, area []byte, slots []int32) {
	if slots == nil && littleEndian {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), 8*len(dst)), area[:8*len(dst)])
		return
	}
	decodeEachWord(dst, area, slots)
}

// decodeEachWord is decodeWords a word at a time, on any host.
func decodeEachWord(dst []uint64, area []byte, slots []int32) {
	if slots == nil {
		area = area[:8*len(dst)]
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint64(area[8*i:])
		}
		return
	}
	for i, s := range slots {
		dst[i] = binary.LittleEndian.Uint64(area[8*int(s):])
	}
}

// insert writes row, which fits the schema, into page b, in the first
// dead slot or else the slot after those in use, and returns the slot.
// Each of the row's strings takes the dictionary entry of an equal
// string, else a new entry. A page whose column areas are full, or whose
// free bytes have no room for the row's new entries, is laid out again
// first; errPageFull means no layout holds the row beside the live ones.
// Where a row goes, and the bytes it leaves, thus depend on nothing but
// the page's bytes and the row. x, when non-nil, indexes the page's
// dictionary for a writer that keeps the page from row to row; without
// it each string is looked for entry by entry.
func (l *pageLayout) insert(b []byte, id storage.PageID, row Row, x *dictIndex) (int, error) {
	p, err := l.open(b, id)
	if err != nil {
		return 0, err
	}
	slot := p.n
	for i, c := range p.bitmap() {
		if s := 8*i + bits.TrailingZeros8(c); c != 0 && s < p.n {
			slot = s
			break
		}
	}
	var buf [4]int
	codes := buf[:0]
	if len(l.text) > len(buf) {
		codes = make([]int, 0, len(l.text))
	}
	// A page whose column areas are full is laid out again whatever the
	// row's strings: relayout checks the dictionary, and looks the strings
	// up, only once the live slots are known to leave room for the row.
	// Otherwise the dictionary is checked whole first, unless x indexes
	// it: then this writer checked it when it built x and has changed it
	// only since.
	relay := slot >= p.cap
	if !relay && len(l.text) > 0 {
		if p.k == 0 || !x.holds(&p, id) {
			if _, ok := p.strings(); !ok {
				return 0, errDict(id)
			}
			x.index(&p, id)
		}
		var need int
		codes, need = p.lookup(row, x, codes)
		relay = p.low()-(p.dict+2*p.k) < need
	}
	if relay {
		var err error
		if codes, err = p.relayout(id, slot, row, x, codes); err != nil {
			return 0, err
		}
		x.index(&p, id)
		codes, _ = p.lookup(row, x, codes)
	}
	low := p.low()
	for k, v := range row {
		cell := p.area(k) + l.width[k]*slot
		switch v := v.(type) {
		case int64:
			binary.LittleEndian.PutUint64(p.b[cell:], uint64(v))
		case float64:
			binary.LittleEndian.PutUint64(p.b[cell:], math.Float64bits(v))
		}
	}
	for j, k := range l.text {
		e, s := codes[j], row[k].(string)
		if e < 0 {
			if i := firstOf(row, l.text[:j], s); i >= 0 {
				e = codes[i]
			} else {
				e, low = p.k, low-len(s)
				copy(p.b[low:], s)
				binary.LittleEndian.PutUint16(p.b[p.dict+2*e:], uint16(low))
				p.k++
				x.added(&p)
			}
		}
		codes[j] = e
		binary.LittleEndian.PutUint16(p.b[p.area(k)+2*slot:], uint16(e))
	}
	p.b[pageHeader+slot/8] &^= 1 << (slot % 8)
	p.n = max(p.n, slot+1)
	p.writeHeader()
	return slot, nil
}

// low is where p's strings start: its last entry, or the end of the page.
func (p *heapPage) low() int {
	if p.k == 0 {
		return pageSize
	}
	return p.at(p.k - 1)
}

// lookup appends to codes, for each of row's strings, the entry of p's
// dictionary that holds it, or -1, and returns them with the bytes the
// missing strings add: an entry and the bytes of each, counted once. p's
// dictionary has been checked (strings).
func (p *heapPage) lookup(row Row, x *dictIndex, codes []int) ([]int, int) {
	codes, need := codes[:0], 0
	for j, k := range p.l.text {
		s := row[k].(string)
		e := p.find(s, x)
		if e < 0 && firstOf(row, p.l.text[:j], s) < 0 {
			need += 2 + len(s)
		}
		codes = append(codes, e)
	}
	return codes, need
}

// find returns the entry of p's checked dictionary whose string is s, or
// -1: by x when x is non-nil, else by reading each entry.
func (p *heapPage) find(s string, x *dictIndex) int {
	if x != nil {
		return x.find(p, s)
	}
	// An entry's last byte is tested before the strings are compared.
	for i, end := 0, pageSize; i < p.k; i++ {
		off := p.at(i)
		if end-off == len(s) && (off == end || p.b[end-1] == s[len(s)-1]) && string(p.b[off:end]) == s {
			return i
		}
		end = off
	}
	return -1
}

// relayout lays p out again to take row in slot, with the capacity the
// page holds if every slot takes the average slot's bytes, the row and
// the entries it adds counted, though never fewer than the slots in use
// with it. When a live slot has every entry the dictionary stays as it
// is; otherwise it is rebuilt from the live slots' strings, numbered in
// slot order and packed at the end of the page, and dead slots get code
// 0. codes are the entries p has of row's strings (lookup), or empty,
// when relayout looks them up, by x if non-nil, once the live slots are
// known to leave room for the row's cells; it returns them, and leaves x
// indexing the dictionary or stale. It checks the dictionary before it
// reads a string, and whether the row fits is settled before anything
// is written.
func (p *heapPage) relayout(id storage.PageID, slot int, row Row, x *dictIndex, codes []int) ([]int, error) {
	l := p.l
	dead := 0
	for i, c := range p.bitmap() {
		if rest := p.n - 8*i; rest < 8 {
			c &= 1<<rest - 1 // a corrupt page may mark slots past n
		}
		dead += bits.OnesCount8(c)
	}
	// kept marks the entries a live slot has; total is their bytes.
	var kept [pageSize / 2 / 64]uint64
	for _, k := range l.text {
		cells := p.b[p.area(k):][:2*p.n]
		for s := 0; s < p.n; s++ {
			e := int(u16(cells[2*s:]))
			if dead > 0 && p.dead(s) {
				continue
			}
			if e >= p.k {
				return codes, errCode(id, s)
			}
			kept[e/64] |= 1 << (e % 64)
		}
	}
	// total is the dictionary's bytes less those of the entries no live
	// slot has, which are few. Until the dictionary is checked it may be
	// wrong, but reading it stays within the entries.
	total, whole := 2*p.k+pageSize-p.low(), true
	for w, set := range kept[:(p.k+63)/64] {
		unkept := ^set
		if rest := p.k - 64*w; rest < 64 {
			unkept &= 1<<rest - 1
		}
		for ; unkept != 0; unkept &= unkept - 1 {
			total -= 2 + p.length(64*w+bits.TrailingZeros64(unkept))
			whole = false
		}
	}
	used := max(p.n, slot+1)
	if l.areasEnd(used)+total > pageSize {
		return codes, errPageFull
	}
	if _, ok := p.strings(); !ok {
		return codes, errDict(id)
	}
	if len(codes) < len(l.text) {
		x.index(p, id)
		codes, _ = p.lookup(row, x, codes)
	}
	for j, k := range l.text {
		s := row[k].(string)
		if e := codes[j]; (e < 0 || kept[e/64]&(1<<(e%64)) == 0) && firstOf(row, l.text[:j], s) < 0 {
			total += 2 + len(s)
		}
	}
	live := p.n - dead + 1
	c := 8 * live * (pageSize - pageHeader - 1) / (live*(8*l.slot+1) + 8*total)
	if c < used || l.areasEnd(c)+total > pageSize {
		c = used
	}
	if l.areasEnd(c)+total > pageSize {
		return codes, errPageFull
	}
	var out [pageSize]byte
	q := heapPage{b: out[:], l: l, n: p.n, cap: c, dict: l.areasEnd(c)}
	copy(out[pageHeader:], p.bitmap())
	if whole {
		// Every entry is a live slot's: the dictionary stays as it is, x
		// still indexes it, and only the column areas and entries move.
		for k, w := range l.width {
			copy(out[q.area(k):], p.b[p.area(k):][:w*p.n])
		}
		copy(out[q.dict:], p.b[p.dict:][:2*p.k])
		copy(out[p.low():], p.b[p.low():])
		copy(p.b, out[:])
		p.cap, p.dict = c, q.dict
		return codes, nil
	}
	// renum[e] is old entry e's new number, numbered as the live slots
	// first have them.
	var renum [pageSize / 2]uint16
	low := pageSize
	for s := 0; s < p.n; s++ {
		if p.dead(s) {
			continue
		}
		for _, k := range l.text {
			e := int(u16(p.b[p.area(k)+2*s:]))
			if w, bit := e/64, uint64(1)<<(e%64); kept[w]&bit != 0 {
				kept[w] &^= bit
				n := p.length(e)
				low -= n
				copy(out[low:], p.b[p.at(e):][:n])
				binary.LittleEndian.PutUint16(out[q.dict+2*q.k:], uint16(low))
				renum[e] = uint16(q.k)
				q.k++
			}
		}
	}
	for k, w := range l.width {
		from, to := p.area(k), q.area(k)
		if w == 8 {
			copy(out[to:to+8*p.n], p.b[from:from+8*p.n])
			continue
		}
		for s := 0; s < p.n; s++ {
			if !p.dead(s) {
				binary.LittleEndian.PutUint16(out[to+2*s:], renum[u16(p.b[from+2*s:])])
			}
		}
	}
	copy(p.b, out[:])
	x.stale()
	p.cap, p.k, p.dict = c, q.k, q.dict
	return codes, nil
}

// length is the length of entry e's string, on a page whose dictionary
// strings has checked.
func (p *heapPage) length(e int) int {
	if e == 0 {
		return pageSize - p.at(0)
	}
	return p.at(e-1) - p.at(e)
}

// dictIndex finds one page's dictionary entries by their strings, for a
// writer putting many rows on the page, in about one probe each: open
// addressing over entry numbers plus one (0 is empty), each string
// compared where it lies on the page, in a table twice the most entries
// a page has room for, so it never grows. It is built from the page and
// kept beside it, never in it: it indexes page id's first k entries, and
// k is -1 once it is stale. find remembers where the string it last
// missed would go, for add; at is -1 when that is not known.
type dictIndex struct {
	slots  *[pageSize]uint16
	filled []uint16 // the slots in use, for index to clear
	id     storage.PageID
	k      int
	missed string
	at     int
}

// dictIndexes pools the indexes, which a writer of more than one row
// takes two of.
var dictIndexes = sync.Pool{New: func() any { return &dictIndex{slots: new([pageSize]uint16)} }}

var dictSeed = maphash.MakeSeed()

// newDictIndex returns a pooled index, stale; free returns it.
func newDictIndex() *dictIndex {
	x := dictIndexes.Get().(*dictIndex)
	x.k = -1
	return x
}

func (x *dictIndex) free() {
	if x != nil {
		x.missed = ""
		dictIndexes.Put(x)
	}
}

// holds reports whether x, which may be nil, indexes page id's
// dictionary p as it stands.
func (x *dictIndex) holds(p *heapPage, id storage.PageID) bool {
	return x != nil && x.id == id && x.k == p.k
}

// stale marks x, which may be nil, as indexing nothing: its page's
// entries changed other than by add.
func (x *dictIndex) stale() {
	if x != nil {
		x.k = -1
	}
}

// index makes x, unless nil, index page id's dictionary, p, which has
// been checked (strings), building it again unless x holds it already:
// as many of id's entries as p has are p's, since only the writer that
// keeps x changes the page, through insert, which tells x of each change.
func (x *dictIndex) index(p *heapPage, id storage.PageID) {
	if x == nil || x.holds(p, id) {
		return
	}
	for _, i := range x.filled {
		x.slots[i] = 0
	}
	x.filled = x.filled[:0]
	x.id, x.at = id, -1
	for x.k = 0; x.k < p.k; x.k++ {
		x.add(p, x.k)
	}
}

// string is entry e's string as it lies on p, which x indexes.
func (x *dictIndex) string(p *heapPage, e int) string {
	end := pageSize
	if e > 0 {
		end = p.at(e - 1)
	}
	return unsafe.String(unsafe.SliceData(p.b[p.at(e):]), end-p.at(e))
}

// find returns the entry of p whose string is s, or -1.
func (x *dictIndex) find(p *heapPage, s string) int {
	for i := int(maphash.String(dictSeed, s) % pageSize); ; i = (i + 1) % pageSize {
		e := int(x.slots[i]) - 1
		if e < 0 {
			x.missed, x.at = s, i
			return -1
		}
		if x.string(p, e) == s {
			return e
		}
	}
}

// add indexes entry e of p where find last missed its string, unless an
// entry has been put there since, which leaves every slot before it on
// the string's probe sequence full. A string x holds already (a page
// damaged to hold it twice) keeps its first entry.
func (x *dictIndex) add(p *heapPage, e int) {
	if s := x.string(p, e); x.at < 0 || s != x.missed || x.slots[x.at] != 0 {
		if x.find(p, s) >= 0 {
			return
		}
	}
	x.slots[x.at] = uint16(e + 1)
	x.filled = append(x.filled, uint16(x.at))
	x.at = -1
}

// added tells x, unless nil or stale, of p's last entry, just written.
func (x *dictIndex) added(p *heapPage) {
	if x != nil && x.k >= 0 {
		x.add(p, p.k-1)
		x.k = p.k
	}
}

// remove marks slot dead, provided it holds want when want is non-nil
// (storage.ErrRecordDeleted otherwise, as for a slot already dead), and
// gives up the dead slots at the end.
func (p *heapPage) remove(id storage.PageID, slot int, want Row) error {
	switch {
	case slot < 0:
		return fmt.Errorf("catalog: page %d: slot %d out of range", id, slot)
	case slot >= p.n || p.dead(slot):
		return storage.ErrRecordDeleted
	}
	if want != nil {
		same, err := p.holds(id, slot, want)
		if err != nil {
			return err
		}
		if !same {
			return storage.ErrRecordDeleted
		}
	}
	p.b[pageHeader+slot/8] |= 1 << (slot % 8)
	for p.n > 0 && p.dead(p.n-1) {
		p.n--
		p.b[pageHeader+p.n/8] &^= 1 << (p.n % 8)
	}
	p.writeHeader()
	return nil
}

// holds reports whether slot's cells are row's, floats compared by bits.
func (p *heapPage) holds(id storage.PageID, slot int, row Row) (bool, error) {
	for k, v := range row {
		cell := p.b[p.area(k)+p.l.width[k]*slot:]
		switch x := v.(type) {
		case int64:
			if binary.LittleEndian.Uint64(cell) != uint64(x) {
				return false, nil
			}
		case float64:
			if binary.LittleEndian.Uint64(cell) != math.Float64bits(x) {
				return false, nil
			}
		case string:
			off, end, ok := p.entry(int(u16(cell)))
			if !ok {
				return false, errCode(id, slot)
			}
			if string(p.b[off:end]) != x {
				return false, nil
			}
		}
	}
	return true, nil
}

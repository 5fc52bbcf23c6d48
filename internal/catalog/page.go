package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"aidb/internal/storage"
)

// A heap page is laid out by column (PAX, Ailamaki et al., VLDB 2001),
// so a scan reads each column it returns as one run and never touches
// the others:
//
//	[0:2)  n: slots in use, live or dead; the slots from n on are free
//	[2:4)  capacity: the slots the column areas have room for
//	[4:6)  the bytes of TEXT, which end the page
//	then the dead-slot bitmap, ⌈capacity/8⌉ bytes: bit s%8 of byte s/8
//	then one area per column, in schema order, of capacity cells: 8
//	bytes for INT and FLOAT; for TEXT, the 2-byte offset and 2-byte
//	length of the string's bytes in the page
//	and last the TEXT bytes, growing down from the end of the page
//
// Numbers are little-endian, and a zeroed page is an empty one. A slot
// is a record id: a live row never changes slot. Slot n-1 is live (a
// delete gives up the dead slots at the end), and every TEXT reference
// of a slot below n lies in the TEXT bytes.
const (
	pageHeader = 6
	pageSize   = storage.PageSize
)

// errPageFull reports a row that no layout of the page has room for.
var errPageFull = errors.New("catalog: page full")

// pageLayout is where a schema's columns lie on a heap page.
type pageLayout struct {
	types  []ColType
	width  []int // per column: 8, or 4 for TEXT
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
			l.width[k] = 4
			l.text = append(l.text, k)
		}
		l.slot += l.width[k]
	}
	return l
}

// areasEnd is where the column areas of a page of capacity c end.
func (l *pageLayout) areasEnd(c int) int { return pageHeader + (c+7)/8 + c*l.slot }

// rowText is the TEXT bytes of row, which fits the schema.
func (l *pageLayout) rowText(row Row) int {
	n := 0
	for _, k := range l.text {
		n += len(row[k].(string))
	}
	return n
}

// heapPage is a page's bytes with its header read and checked: the
// capacity's column areas lie before the TEXT bytes, and n is within
// the capacity.
type heapPage struct {
	b      []byte
	l      *pageLayout
	n, cap int
	text   int // where the TEXT bytes start
}

func (l *pageLayout) open(b []byte, id storage.PageID) (heapPage, error) {
	b = b[:pageSize]
	n, c, text := int(u16(b)), int(u16(b[2:])), int(u16(b[4:]))
	p := heapPage{b: b, l: l, n: n, cap: c, text: pageSize - text}
	if n > c || l.areasEnd(c) > p.text {
		return p, fmt.Errorf("catalog: page %d: %d slots of %d and %d bytes of TEXT overrun the page", id, n, c, text)
	}
	return p, nil
}

func u16(b []byte) uint16 { return binary.LittleEndian.Uint16(b) }

func (p *heapPage) writeHeader() {
	binary.LittleEndian.PutUint16(p.b, uint16(p.n))
	binary.LittleEndian.PutUint16(p.b[2:], uint16(p.cap))
	binary.LittleEndian.PutUint16(p.b[4:], uint16(pageSize-p.text))
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

// ref reads the TEXT reference at ref, reporting whether it lies in the
// page's TEXT bytes.
func (p *heapPage) ref(ref []byte) (off, n int, ok bool) {
	r := binary.LittleEndian.Uint32(ref)
	off, n = int(r&0xffff), int(r>>16)
	return off, n, off >= p.text && off+n <= pageSize
}

func errText(id storage.PageID, s int) error {
	return fmt.Errorf("catalog: page %d: slot %d's TEXT lies outside the page's TEXT bytes", id, s)
}

// decode appends to each non-nil entry of cols the cells of slots, or
// of every slot in use when slots is nil, and to *rids, when rids is
// non-nil, their record ids; it returns how many rows. Each TEXT
// reference is checked where it is read: one outside the page's TEXT
// bytes is an error, and the vectors then hold part of the page.
func (p *heapPage) decode(cols []*Vector, slots []int32, id storage.PageID, rids *[]storage.RecordID) (int, error) {
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
			refs := p.b[at : at+4*p.n]
			v.S = slices.Grow(v.S, rows)
			// Every string of a page is cut from one copy of its TEXT
			// bytes; chosen slots, maybe a few records, copy their own.
			if slots == nil {
				text := v.appendText(p.b[p.text:])
				for i := 0; i+4 <= len(refs); i += 4 {
					off, n, ok := p.ref(refs[i:])
					if !ok {
						return 0, errText(id, i/4)
					}
					v.S = append(v.S, text.cut(off-p.text, n))
				}
				continue
			}
			for _, s := range slots {
				off, n, ok := p.ref(refs[4*s:])
				if !ok {
					return 0, errText(id, int(s))
				}
				v.appendString(p.b[off : off+n])
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
// A dead slot whose strings were each at least as long as the row's
// takes them in their place. Otherwise a page whose column areas are
// full, or whose TEXT bytes have no room for the row's, is laid out
// again first; errPageFull means no layout holds the row beside the
// live ones. Where a row goes thus depends on nothing but the page's
// bytes and the row.
func (l *pageLayout) insert(b []byte, id storage.PageID, row Row) (int, error) {
	p, err := l.open(b, id)
	if err != nil {
		return 0, err
	}
	slot, text := p.n, l.rowText(row)
	for i, x := range p.bitmap() {
		if s := 8*i + bits.TrailingZeros8(x); x != 0 && s < p.n {
			slot = s
			break
		}
	}
	inPlace := slot < p.n && p.holdsText(slot, row)
	if !inPlace && (slot >= p.cap || p.text-l.areasEnd(p.cap) < text) {
		if err := p.relayout(id, slot, text); err != nil {
			return 0, err
		}
	}
	if !inPlace {
		p.text -= text
	}
	at := p.text
	for k, v := range row {
		cell := p.area(k) + l.width[k]*slot
		switch x := v.(type) {
		case int64:
			binary.LittleEndian.PutUint64(p.b[cell:], uint64(x))
		case float64:
			binary.LittleEndian.PutUint64(p.b[cell:], math.Float64bits(x))
		case string:
			off := at
			if inPlace {
				off, _, _ = p.ref(p.b[cell:])
			} else {
				at += len(x)
			}
			copy(p.b[off:], x)
			binary.LittleEndian.PutUint16(p.b[cell:], uint16(off))
			binary.LittleEndian.PutUint16(p.b[cell+2:], uint16(len(x)))
		}
	}
	p.b[pageHeader+slot/8] &^= 1 << (slot % 8)
	p.n = max(p.n, slot+1)
	p.writeHeader()
	return slot, nil
}

// holdsText reports whether each of row's strings fits the TEXT bytes
// that dead slot's string in its column had.
func (p *heapPage) holdsText(slot int, row Row) bool {
	for _, k := range p.l.text {
		_, n, ok := p.ref(p.b[p.area(k)+4*slot:])
		if !ok || len(row[k].(string)) > n {
			return false
		}
	}
	return true
}

// relayout lays p out again to take a row of text TEXT bytes in slot:
// the live TEXT bytes packed at the end of the page and the capacity
// the page holds if every slot takes the average slot's bytes, this row
// counted, though never fewer than the slots in use with it. Dead
// slots keep their cells, with an empty TEXT reference.
func (p *heapPage) relayout(id storage.PageID, slot, text int) error {
	l := p.l
	dead := 0
	for i, x := range p.bitmap() {
		if rest := p.n - 8*i; rest < 8 {
			x &= 1<<rest - 1 // a corrupt page may mark slots past n
		}
		dead += bits.OnesCount8(x)
	}
	live, total := p.n-dead+1, text
	for _, k := range l.text {
		refs := p.b[p.area(k):][:4*p.n]
		for i := 0; i+4 <= len(refs); i += 4 {
			_, n, ok := p.ref(refs[i:])
			if !ok {
				return errText(id, i/4)
			}
			total += n
		}
		for s := 0; dead > 0 && s < p.n; s++ {
			if p.dead(s) {
				total -= int(u16(refs[4*s+2:]))
			}
		}
	}
	used := max(p.n, slot+1)
	c := 8 * live * (pageSize - pageHeader - 1) / (live*(8*l.slot+1) + 8*total)
	if c < used || l.areasEnd(c)+total > pageSize {
		c = used
	}
	if l.areasEnd(c)+total > pageSize {
		return errPageFull
	}
	var out [pageSize]byte
	q := heapPage{b: out[:], l: l, n: p.n, cap: c, text: pageSize}
	copy(out[pageHeader:], p.bitmap())
	for k, w := range l.width {
		from, to := p.area(k), q.area(k)
		if w == 8 {
			copy(out[to:to+8*p.n], p.b[from:from+8*p.n])
			continue
		}
		for s := 0; s < p.n; s++ {
			off, n := pageSize, 0
			if !p.dead(s) {
				off, n, _ = p.ref(p.b[from+4*s:])
				q.text -= n
				copy(out[q.text:], p.b[off:off+n])
				off = q.text
			}
			binary.LittleEndian.PutUint16(out[to+4*s:], uint16(off))
			binary.LittleEndian.PutUint16(out[to+4*s+2:], uint16(n))
		}
	}
	copy(p.b, out[:])
	p.cap, p.text = c, q.text
	return nil
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
			off, n, ok := p.ref(cell)
			if !ok {
				return false, errText(id, slot)
			}
			if string(p.b[off:off+n]) != x {
				return false, nil
			}
		}
	}
	return true, nil
}

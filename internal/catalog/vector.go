package catalog

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"unsafe"

	"aidb/internal/storage"
)

// Vector holds one column of decoded rows, typed by the column: an Int64
// column's cells are in I, a Float64 column's in F, a String column's in
// S. Decoders append to it; Reset empties it for reuse.
type Vector struct {
	I []int64
	F []float64
	S []string
	// Dict and Codes are a String column as DecodePages reads it off its
	// pages: Dict holds each page's dictionary in turn, and Codes[i] is the
	// entry of Dict that S[i] is, so rows with equal codes have equal
	// strings (equal strings from two pages have two codes). They hold
	// only while len(Codes) == len(S): a vector whose S is written any
	// other way — by DecodeRecords, or by gathering or filling it — has
	// fewer codes than strings, and its codes are stale.
	Dict  []string
	Codes []int32
	// text backs the strings in S and only ever grows at its end: bytes
	// once written are never overwritten, and a full buffer is replaced,
	// not reused. A string taken from S therefore stays valid however
	// long it is kept, after the vector is reset and refilled, and a
	// chunk's strings cost one allocation per buffer, not one per cell.
	text []byte
}

// Reset empties v, keeping its capacity.
func (v *Vector) Reset() {
	v.I, v.F, v.S, v.Dict, v.Codes = v.I[:0], v.F[:0], v.S[:0], v.Dict[:0], v.Codes[:0]
}

// Coded reports whether v's codes hold for every string in S.
func (v *Vector) Coded() bool { return len(v.Codes) == len(v.S) }

// String buffers start small, so a point read's vector stays small, and
// double up to a few pages' worth.
const (
	minText = 64
	maxText = 4 * storage.PageSize
)

// appendString copies b into the text buffer and appends it to S.
func (v *Vector) appendString(b []byte) {
	if len(b) == 0 {
		v.S = append(v.S, "")
		return
	}
	if cap(v.text)-len(v.text) < len(b) {
		v.text = make([]byte, 0, max(len(b), min(2*cap(v.text), maxText), minText))
	}
	off := len(v.text)
	v.text = append(v.text, b...)
	v.S = append(v.S, unsafe.String(&v.text[off], len(b)))
}

// appendText copies b, a page's string bytes, into the text buffer
// whole, for a page's strings to be cut from it without a copy each.
func (v *Vector) appendText(b []byte) textBytes {
	if cap(v.text)-len(v.text) < len(b) {
		v.text = make([]byte, 0, max(len(b), min(2*cap(v.text), maxText), minText))
	}
	off := len(v.text)
	v.text = append(v.text, b...)
	return v.text[off:]
}

// textBytes is a page's string bytes as appendText copied them.
type textBytes []byte

// cut returns the n bytes at off as a string that shares them.
func (t textBytes) cut(off, n int) string {
	if n == 0 {
		return ""
	}
	return unsafe.String(&t[off:][:n][0], n)
}

// DecodePages appends the live rows of the pages ids names, page by
// page in that order and each in slot order, to cols — one entry per
// table column; a nil entry is a column the caller does not read, which
// is never touched — and, when rids is non-nil, each row's record id to
// *rids. It reads ids[0], then each next page while the rows appended
// are fewer than limit, so they pass limit by at most one page's rows,
// and returns how many pages it read and how many rows it appended. It
// takes the table's read lock once and reads the pages through one
// buffer-pool View: the resident ones are pinned, any other is lent by
// the disk, so a scan evicts nothing. A String column takes each page's
// dictionary into Dict and its codes into Codes as well as its strings
// into S. It checks each page's header, each page's dictionary where it
// reads a String column, and each code it reads: a String column it does
// not read is not looked at. On error the vectors may hold part of the
// pages and must be discarded.
func (t *Table) DecodePages(ids []storage.PageID, cols []*Vector, rids *[]storage.RecordID, limit int) (pages, rows int, err error) {
	if err := t.checkCols(cols); err != nil {
		return 0, 0, err
	}
	t.mu.RLock()
	pages, rows, err = t.decodePages(ids, cols, rids, limit)
	t.mu.RUnlock()
	return pages, rows, err
}

// decodePages is DecodePages for a caller that holds the table's lock.
func (t *Table) decodePages(ids []storage.PageID, cols []*Vector, rids *[]storage.RecordID, limit int) (pages, rows int, err error) {
	d := decoders.Get().(*pageDecoder)
	d.t, d.ids, d.cols, d.rids, d.limit, d.pages, d.rows = t, ids, cols, rids, limit, 0, 0
	err = t.pool.View(ids, d.view)
	pages, rows = d.pages, d.rows
	d.t, d.ids, d.cols, d.rids = nil, nil, nil, nil
	decoders.Put(d)
	if err == errLimit {
		err = nil
	}
	return pages, rows, err
}

// DecodeRecords is DecodePages for the records ids names, in that
// order: it takes the table's read lock once, each run of consecutive
// ids on one page shares one pin, and a record deleted since its id was
// read is skipped. It fills S alone of a String column's fields, each
// string copied, so a record read never copies its page's dictionary. It
// checks each page's header, each code it reads and that code's entry.
func (t *Table) DecodeRecords(ids []storage.RecordID, cols []*Vector, rids *[]storage.RecordID) (int, error) {
	if err := t.checkCols(cols); err != nil {
		return 0, err
	}
	t.grow(cols, rids, len(ids))
	d := decoders.Get().(*pageDecoder)
	defer decoders.Put(d)
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for i := 0; i < len(ids); {
		page, j := ids[i].Page, i+1
		for j < len(ids) && ids[j].Page == page {
			j++
		}
		p, err := t.pool.Fetch(page)
		if err != nil {
			return n, err
		}
		m, err := t.decodeRecords(p.Data[:], ids[i:j], cols, rids, &d.slots)
		if uerr := t.pool.Unpin(page, false); err == nil {
			err = uerr
		}
		n += m
		if err != nil {
			return n, err
		}
		i = j
	}
	return n, nil
}

// decodeRecords decodes the records ids names, all on page b, skipping
// the dead ones; slots is scratch.
func (t *Table) decodeRecords(b []byte, ids []storage.RecordID, cols []*Vector, rids *[]storage.RecordID, slots *[]int32) (int, error) {
	page := ids[0].Page
	p, err := t.layout.open(b, page)
	if err != nil {
		return 0, err
	}
	live := (*slots)[:0]
	for _, rid := range ids {
		switch {
		case rid.Slot < 0:
			return 0, fmt.Errorf("catalog: page %d: slot %d out of range", page, rid.Slot)
		case rid.Slot < p.n && !p.dead(rid.Slot):
			live = append(live, int32(rid.Slot))
		}
	}
	*slots = live
	if len(live) == 0 {
		return 0, nil
	}
	return p.decode(cols, live, page, rids, false)
}

func (t *Table) checkCols(cols []*Vector) error {
	if len(cols) != len(t.Schema.Columns) {
		return fmt.Errorf("catalog: scan of %s asks for %d columns, table has %d", t.Name, len(cols), len(t.Schema.Columns))
	}
	return nil
}

// grow makes room for n more rows in every vector decoded into, so ids
// spread over several pages cost one allocation per vector, not one per
// page.
func (t *Table) grow(cols []*Vector, rids *[]storage.RecordID, n int) {
	for i, v := range cols {
		switch {
		case v == nil:
		case t.Schema.Columns[i].Type == Int64:
			v.I = slices.Grow(v.I, n)
		case t.Schema.Columns[i].Type == Float64:
			v.F = slices.Grow(v.F, n)
		default:
			v.S = slices.Grow(v.S, n)
		}
	}
	if rids != nil {
		*rids = slices.Grow(*rids, n)
	}
}

// pageDecoder is the scratch of one decode, pooled so that decoding
// pages allocates nothing: slots holds the slots to read when they are
// not every slot in use. The other fields carry DecodePages' arguments
// and progress to page, which view holds bound once, so the callback
// View takes costs no allocation.
type pageDecoder struct {
	slots []int32
	t     *Table
	ids   []storage.PageID
	cols  []*Vector
	rids  *[]storage.RecordID
	limit int
	pages int // how many of ids page has read
	rows  int
	view  func(b []byte) error
}

var decoders = sync.Pool{New: func() any {
	d := new(pageDecoder)
	d.view = d.page
	return d
}}

// errLimit stops a View once DecodePages has the rows it was asked for.
var errLimit = errors.New("catalog: row limit reached")

// page decodes the bytes b of page d.ids[d.pages] for DecodePages.
func (d *pageDecoder) page(b []byte) error {
	id := d.ids[d.pages]
	p, err := d.t.layout.open(b, id)
	if err != nil {
		return err
	}
	slots := p.live(d.slots)
	if slots != nil {
		d.slots = slots
	}
	n, err := p.decode(d.cols, slots, id, d.rids, true)
	if err != nil {
		return err
	}
	d.pages++
	if d.rows += n; d.rows >= d.limit {
		return errLimit
	}
	return nil
}

// words views a vector's cells as the 8-byte words they decode from.
func words[T int64 | float64](s []T) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

// extend lengthens *s by n elements and returns them, to be overwritten.
func extend[T any](s *[]T, n int) []T {
	m := len(*s)
	*s = slices.Grow(*s, n)[:m+n]
	return (*s)[m:]
}

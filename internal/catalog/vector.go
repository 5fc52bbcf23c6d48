package catalog

import (
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
	// text backs the strings in S and only ever grows at its end: bytes
	// once written are never overwritten, and a full buffer is replaced,
	// not reused. A string taken from S therefore stays valid however
	// long it is kept, after the vector is reset and refilled, and a
	// chunk's strings cost one allocation per buffer, not one per cell.
	text []byte
}

// Reset empties v, keeping its capacity.
func (v *Vector) Reset() { v.I, v.F, v.S = v.I[:0], v.F[:0], v.S[:0] }

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

// appendText copies b, a page's TEXT bytes, into the text buffer whole,
// for a page's strings to be cut from it without a copy each.
func (v *Vector) appendText(b []byte) textBytes {
	if cap(v.text)-len(v.text) < len(b) {
		v.text = make([]byte, 0, max(len(b), min(2*cap(v.text), maxText), minText))
	}
	off := len(v.text)
	v.text = append(v.text, b...)
	return v.text[off:]
}

// textBytes is a page's TEXT bytes as appendText copied them.
type textBytes []byte

// cut returns the n bytes at off as a string that shares them.
func (t textBytes) cut(off, n int) string {
	if n == 0 {
		return ""
	}
	return unsafe.String(&t[off:][:n][0], n)
}

// DecodePage appends the live rows of page id, in slot order, to cols —
// one entry per table column; a nil entry is a column the caller does
// not read, which is never touched — and, when rids is non-nil, each
// row's record id to *rids. It reads the page through the buffer pool's
// View, under the table's read lock: a resident page is pinned once, any
// other is lent by the disk, so a scan evicts nothing. Whichever columns
// it reads, it checks the page's header and every TEXT reference of the
// page. It returns how many rows it appended; on error the vectors may
// hold part of the page and must be discarded.
func (t *Table) DecodePage(id storage.PageID, cols []*Vector, rids *[]storage.RecordID) (int, error) {
	if err := t.checkCols(cols); err != nil {
		return 0, err
	}
	d := decoders.Get().(*pageDecoder)
	d.t, d.id, d.cols, d.rids, d.rows = t, id, cols, rids, 0
	t.mu.RLock()
	err := t.pool.View(id, d.view)
	t.mu.RUnlock()
	n := d.rows
	d.t, d.cols, d.rids = nil, nil, nil
	decoders.Put(d)
	if err != nil {
		return 0, err
	}
	return n, nil
}

// DecodeRecords is DecodePage for the records ids names, in that order:
// each run of consecutive ids on one page shares one pin, and a record
// deleted since its id was read is skipped. It checks each page's header
// and the TEXT references of the records it reads.
func (t *Table) DecodeRecords(ids []storage.RecordID, cols []*Vector, rids *[]storage.RecordID) (int, error) {
	if err := t.checkCols(cols); err != nil {
		return 0, err
	}
	t.grow(cols, rids, len(ids))
	d := decoders.Get().(*pageDecoder)
	defer decoders.Put(d)
	n := 0
	for i := 0; i < len(ids); {
		page, j := ids[i].Page, i+1
		for j < len(ids) && ids[j].Page == page {
			j++
		}
		err := t.onPage(page, func(b []byte) error {
			p, err := t.layout.open(b, page)
			if err != nil {
				return err
			}
			slots := d.slots[:0]
			for _, rid := range ids[i:j] {
				switch {
				case rid.Slot < 0:
					return fmt.Errorf("catalog: page %d: slot %d out of range", page, rid.Slot)
				case rid.Slot < p.n && !p.dead(rid.Slot):
					slots = append(slots, int32(rid.Slot))
				}
			}
			d.slots = slots
			if len(slots) == 0 {
				return nil
			}
			if err := p.checkText(page, slots); err != nil {
				return err
			}
			n += p.decode(cols, slots, page, rids)
			return nil
		})
		if err != nil {
			return n, err
		}
		i = j
	}
	return n, nil
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

// pageDecoder is the scratch of one decode, pooled so that decoding a
// page allocates nothing: slots holds the slots to read when they are
// not every slot in use. The other fields carry DecodePage's arguments
// to page, which view holds bound once, so the callback View takes
// costs no allocation per page.
type pageDecoder struct {
	slots []int32
	t     *Table
	id    storage.PageID
	cols  []*Vector
	rids  *[]storage.RecordID
	rows  int
	view  func(b []byte) error
}

var decoders = sync.Pool{New: func() any {
	d := new(pageDecoder)
	d.view = d.page
	return d
}}

// page decodes page d.id's bytes b for DecodePage.
func (d *pageDecoder) page(b []byte) error {
	p, err := d.t.layout.open(b, d.id)
	if err != nil {
		return err
	}
	if err := p.checkText(d.id, nil); err != nil {
		return err
	}
	slots := p.live(d.slots)
	if slots != nil {
		d.slots = slots
		if len(slots) == 0 {
			return nil
		}
	}
	d.rows = p.decode(d.cols, slots, d.id, d.rids)
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

package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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

// DecodePage appends the live rows of page id, in slot order, to cols —
// one entry per table column; a nil entry is a column the caller does
// not read, which is stepped over — and, when rids is non-nil, each
// row's record id to *rids. It reads the page through the buffer pool's
// View, under the table's read lock: a resident page is pinned once, any
// other is read past the pool, so a scan evicts nothing. It returns how
// many rows it appended; on error the vectors may hold part of the page
// and must be discarded.
func (t *Table) DecodePage(id storage.PageID, cols []*Vector, rids *[]storage.RecordID) (int, error) {
	if err := t.checkCols(cols); err != nil {
		return 0, err
	}
	d := decoders.Get().(*pageDecoder)
	defer decoders.Put(d)
	t.mu.RLock()
	defer t.mu.RUnlock()
	err := t.pool.View(id, func(p *storage.Page) error {
		var err error
		if d.ext, err = p.AppendLive(d.ext[:0]); err != nil {
			return err
		}
		return d.decode(&t.Schema, p, cols, rids)
	})
	if err != nil {
		return 0, err
	}
	return len(d.ext), nil
}

// DecodeRecords is DecodePage for the records ids names, in that order:
// each run of consecutive ids on one page shares one pin, and a record
// deleted since its id was read is skipped.
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
		err := t.onPage(page, func(p *storage.Page) error {
			d.ext = d.ext[:0]
			for _, rid := range ids[i:j] {
				e, err := p.Extent(rid.Slot)
				if errors.Is(err, storage.ErrRecordDeleted) {
					continue
				}
				if err != nil {
					return err
				}
				d.ext = append(d.ext, e)
			}
			return d.decode(&t.Schema, p, cols, rids)
		})
		if err != nil {
			return n, err
		}
		n += len(d.ext)
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

// pageDecoder decodes the records of one page a column at a time. Its
// slices are scratch, kept across pages and pooled, so decoding a page
// allocates nothing: ext is where the records to decode lie, cur each
// record's read position.
type pageDecoder struct {
	ext []storage.Extent
	cur []int
}

var decoders = sync.Pool{New: func() any { return new(pageDecoder) }}

// decode appends the records d.ext names, all on page p, to cols (nil
// entries are stepped over) and their record ids to *rids, a column at a
// time: one loop per column, into a vector grown once. The schema is
// runs of 8-byte columns between TEXT columns. A column in a run lies at
// a constant offset from each record's cursor, which starts at the
// record and moves past a run, once it is checked to lie in the record,
// and past each string. A record too short for its schema is an error,
// whichever columns are read.
func (d *pageDecoder) decode(s *Schema, p *storage.Page, cols []*Vector, rids *[]storage.RecordID) error {
	ext, b := d.ext, p.Data[:]
	cur := slices.Grow(d.cur[:0], len(ext))
	for _, e := range ext {
		cur = append(cur, e.Off)
	}
	d.cur = cur
	for i := 0; i < len(cols); {
		if s.Columns[i].Type == String {
			if err := decodeStrings(b, ext, cur, cols[i]); err != nil {
				return err
			}
			i++
			continue
		}
		j := i + 1
		for j < len(cols) && s.Columns[j].Type != String {
			j++
		}
		width := 8 * (j - i)
		for r, e := range ext {
			at := cur[r] + width
			if end := e.Off + e.Len; at > end {
				return errTruncated(s.Columns[j-(at-end+7)/8].Type)
			}
			cur[r] = at
		}
		for k := i; k < j; k++ {
			decodeWords(s.Columns[k].Type, b, cur, 8*(k-j), cols[k])
		}
		i = j
	}
	if rids != nil {
		for _, e := range ext {
			*rids = append(*rids, storage.RecordID{Page: p.ID, Slot: e.Slot})
		}
	}
	return nil
}

// decodeWords appends to v (nil: steps over) the 8-byte cell of type typ
// at offset at from each record's cursor in page bytes b.
func decodeWords(typ ColType, b []byte, cur []int, at int, v *Vector) {
	switch {
	case v == nil:
	case typ == Int64:
		dst := extend(&v.I, len(cur))
		for r, c := range cur {
			dst[r] = int64(binary.LittleEndian.Uint64(b[c+at:]))
		}
	default:
		dst := extend(&v.F, len(cur))
		for r, c := range cur {
			dst[r] = math.Float64frombits(binary.LittleEndian.Uint64(b[c+at:]))
		}
	}
}

// decodeStrings appends to v (nil: steps over) the string at each
// record's cursor in page bytes b, checking that it lies in the record,
// and moves the cursor past it.
func decodeStrings(b []byte, ext []storage.Extent, cur []int, v *Vector) error {
	if v != nil {
		v.S = slices.Grow(v.S, len(ext))
	}
	for r, e := range ext {
		at, end := cur[r], e.Off+e.Len
		if end-at < 4 {
			return errors.New("catalog: truncated string length")
		}
		l := int(binary.LittleEndian.Uint32(b[at:]))
		if at += 4; l > end-at {
			return errors.New("catalog: truncated string value")
		}
		if v != nil {
			v.appendString(b[at : at+l])
		}
		cur[r] = at + l
	}
	return nil
}

// extend lengthens *s by n elements and returns them, to be overwritten.
func extend[T any](s *[]T, n int) []T {
	m := len(*s)
	*s = slices.Grow(*s, n)[:m+n]
	return (*s)[m:]
}

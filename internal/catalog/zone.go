package catalog

import (
	"math"
	"slices"

	"aidb/internal/storage"
)

// A zone summarizes one heap page for the scans that filter on it
// (small materialized aggregates, Moerkotte, VLDB 1998): the page's live
// rows and, for each INT and FLOAT column, the least and the greatest
// value the page has held. A scan whose filter compares such a column
// with a number reads only the pages whose zones admit the comparison.
// Inserts widen a page's bounds and deletes only lower its row count, so
// the bounds may be wider than the live rows' — never narrower.

// zones holds a table's zones in one array, that of page i of t.pages at
// w[i*stride:]: its live rows, then per INT or FLOAT column the least
// and the greatest value, an INT's as int64 bits, a FLOAT's as float64
// bits. A FLOAT column's bounds are both NaN once the page has held a
// NaN. A page that has held no row has the empty range [max, min].
type zones struct {
	w      []uint64
	stride int
	types  []ColType
	at     []int // per column: where its bounds lie in a zone, or 0 for TEXT
}

func newZones(s *Schema) zones {
	z := zones{stride: 1, types: make([]ColType, len(s.Columns)), at: make([]int, len(s.Columns))}
	for k, c := range s.Columns {
		z.types[k] = c.Type
		if c.Type != String {
			z.at[k] = z.stride
			z.stride += 2
		}
	}
	return z
}

// add appends the zone of a new, empty page.
func (z *zones) add() {
	n := len(z.w)
	z.w = slices.Grow(z.w, z.stride)[:n+z.stride]
	w := z.w[n:]
	w[0] = 0
	for k, a := range z.at {
		switch z.types[k] {
		case Int64:
			w[a], w[a+1] = math.MaxInt64, 1<<63 // MinInt64's bits
		case Float64:
			w[a], w[a+1] = math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1))
		}
	}
}

// widen counts row, just written to page i, into its zone.
func (z *zones) widen(i int, row Row) {
	w := z.w[i*z.stride:][:z.stride]
	w[0]++
	for k, a := range z.at {
		switch v := row[k].(type) {
		case int64:
			if v < int64(w[a]) {
				w[a] = uint64(v)
			}
			if v > int64(w[a+1]) {
				w[a+1] = uint64(v)
			}
		case float64:
			// No comparison with a NaN holds, so once both bounds are
			// NaN they stay NaN.
			if v != v {
				w[a], w[a+1] = math.Float64bits(v), math.Float64bits(v)
			}
			if v < math.Float64frombits(w[a]) {
				w[a] = math.Float64bits(v)
			}
			if v > math.Float64frombits(w[a+1]) {
				w[a+1] = math.Float64bits(v)
			}
		}
	}
}

// drop counts out a row deleted from page i, leaving its bounds.
func (z *zones) drop(i int) { z.w[i*z.stride]-- }

// ZoneCond is `column op k` for an INT or FLOAT column Col and a number
// k: IntK when Int is set, else FloatK. Accept is op, where a cell
// compares with k as the executor compares them: as int64s when both
// are INTs, else as float64s, and a NaN on either side compares equal.
//
// When In is set the cond is instead `column IN Keys` for an INT column
// and Keys sorted ascending — a hash join's build keys, which are all a
// probe row can match: a page is admitted when one of Keys lies within
// its zone, so with no Keys none is.
type ZoneCond struct {
	Col    int
	Accept CmpOp
	Int    bool
	IntK   int64
	FloatK float64
	In     bool
	Keys   []int64
}

// admits reports whether page i's zone leaves room for a row that meets
// c: whether c accepts one of the outcomes its bounds allow. A NaN on
// either side admits the page.
func (z *zones) admits(i int, c ZoneCond) bool {
	a := z.at[c.Col]
	if a == 0 {
		return true
	}
	w := z.w[i*z.stride:]
	if c.In {
		if z.types[c.Col] != Int64 {
			return true
		}
		// The least key not below the page's least value must not lie
		// above its greatest.
		k, _ := slices.BinarySearch(c.Keys, int64(w[a]))
		return k < len(c.Keys) && c.Keys[k] <= int64(w[a+1])
	}
	if z.types[c.Col] == Int64 && c.Int {
		return c.Accept&outcomes(int64(w[a]), int64(w[a+1]), c.IntK) != 0
	}
	lo, hi, k := math.Float64frombits(w[a]), math.Float64frombits(w[a+1]), c.FloatK
	if z.types[c.Col] == Int64 {
		// float64 never reorders two int64s, so these bound the cells as
		// the comparison converts them.
		lo, hi = float64(int64(w[a])), float64(int64(w[a+1]))
	}
	if c.Int {
		k = float64(c.IntK)
	}
	return k != k || hi != hi || c.Accept&outcomes(lo, hi, k) != 0
}

// outcomes is the set of outcomes of comparing a value in [lo, hi] with
// k, neither bound nor k a NaN.
func outcomes[T int64 | float64](lo, hi, k T) CmpOp {
	var o CmpOp
	if lo < k {
		o |= CmpLT
	}
	if lo <= k && k <= hi {
		o |= CmpEQ
	}
	if hi > k {
		o |= CmpGT
	}
	return o
}

// PageSet is the pages of a table a scan reads and what the others hold.
type PageSet struct {
	Pages       []storage.PageID // the pages to read, in heap order
	Pruned      int              // the pages left out
	PrunedRows  int              // their live rows
	RowsPerPage int              // the table's live rows over its pages, at least 1
}

// PagesFor returns, under one read lock, the table's pages that a row
// meeting every one of conds may lie on: every page but those with no
// live row and those whose zone shows some cond true of none of the
// rows the page has held. A row written to a page left out after the
// call is not among them.
func (t *Table) PagesFor(conds []ZoneCond) PageSet {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ps := PageSet{Pages: make([]storage.PageID, 0, len(t.pages)), RowsPerPage: 1}
	if len(t.pages) > 0 {
		ps.RowsPerPage = max(1, t.rows/len(t.pages))
	}
	z := &t.zones
	for i, id := range t.pages {
		rows := int(z.w[i*z.stride])
		if rows > 0 && z.admitsAll(i, conds) {
			ps.Pages = append(ps.Pages, id)
			continue
		}
		ps.Pruned++
		ps.PrunedRows += rows
	}
	return ps
}

// ZoneSelectivity estimates, from the zones alone, the share of the
// table's live rows that meet c, a comparison (not In): each page's rows
// are taken as spread evenly over its zone's range — over its integers
// for an INT column compared with an INT — and a page whose least or
// greatest value meets c counts at least one row, the row that set that
// bound. It is the estimate for a column without a histogram (FLOAT
// always, INT before ANALYZE); a page whose bounds or constant are not
// finite counts the default third of its rows. ok is false for a TEXT
// column and for a table without live rows.
func (t *Table) ZoneSelectivity(c ZoneCond) (sel float64, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	z := &t.zones
	a := z.at[c.Col]
	if a == 0 || t.rows == 0 {
		return 0, false
	}
	k := c.FloatK
	if c.Int {
		k = float64(c.IntK)
	}
	discrete := z.types[c.Col] == Int64 && c.Int
	est := 0.0
	for i := range t.pages {
		w := z.w[i*z.stride:]
		if w[0] == 0 {
			continue
		}
		lo, hi := math.Float64frombits(w[a]), math.Float64frombits(w[a+1])
		if z.types[c.Col] == Int64 {
			lo, hi = float64(int64(w[a])), float64(int64(w[a+1]))
		}
		rows := float64(w[0]) * zoneShare(lo, hi, k, c.Accept, discrete)
		// No outcome holds of a NaN, so a NaN bound meets nothing.
		if c.Accept&(outcomes(lo, lo, k)|outcomes(hi, hi, k)) != 0 {
			rows = max(rows, 1)
		}
		est += rows
	}
	return min(1, est/float64(t.rows)), true
}

// ZoneRange returns the least and the greatest value of INT column col
// over the zones of the pages with live rows: every live row's value
// lies in [lo, hi]. ok is false for any other column and for a table
// without live rows.
func (t *Table) ZoneRange(col int) (lo, hi int64, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	z, a := &t.zones, t.zones.at[col]
	lo, hi = math.MaxInt64, math.MinInt64
	for i := range t.pages {
		if w := z.w[i*z.stride:]; w[0] > 0 && z.types[col] == Int64 {
			lo, hi = min(lo, int64(w[a])), max(hi, int64(w[a+1]))
		}
	}
	return lo, hi, lo <= hi
}

// zoneShare is the share of a page's rows, spread evenly over [lo, hi],
// whose outcome against k Accept takes: over hi-lo+1 integers when
// discrete, else over the interval, where a single value carries no
// share unless lo == hi.
func zoneShare(lo, hi, k float64, accept CmpOp, discrete bool) float64 {
	if lo != lo || hi != hi || k != k || math.IsInf(hi-lo, 0) || math.IsInf(k, 0) {
		return 1.0 / 3
	}
	if hi < lo {
		return 0
	}
	var below, equal, above float64
	switch {
	case discrete:
		n := hi - lo + 1
		below, above = (k-lo)/n, (hi-k)/n
		if lo <= k && k <= hi {
			equal = 1 / n
		}
	case hi == lo:
		switch {
		case lo < k:
			below = 1
		case lo > k:
			above = 1
		default:
			equal = 1
		}
	default:
		below, above = (k-lo)/(hi-lo), (hi-k)/(hi-lo)
	}
	share := 0.0
	if accept&CmpLT != 0 {
		share += min(1, max(0, below))
	}
	if accept&CmpEQ != 0 {
		share += equal
	}
	if accept&CmpGT != 0 {
		share += min(1, max(0, above))
	}
	return min(1, share)
}

func (z *zones) admitsAll(i int, conds []ZoneCond) bool {
	for _, c := range conds {
		if !z.admits(i, c) {
			return false
		}
	}
	return true
}

// pos is page id's index in t.pages, which is ascending because pages
// are allocated in ascending order, and whether id is the table's. Its
// caller holds the table's lock.
func (t *Table) pos(id storage.PageID) (int, bool) {
	if n := len(t.pages); n > 0 && t.pages[n-1] == id {
		return n - 1, true
	}
	return slices.BinarySearch(t.pages, id)
}

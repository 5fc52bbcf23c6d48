package catalog

import (
	"math"
	"sort"
)

// Histogram is an equi-width histogram over an integer column, the
// traditional optimizer's selectivity estimator.
type Histogram struct {
	Min, Max int64
	Buckets  []int
	Total    int
}

// NewHistogram builds a histogram with the given bucket count.
func NewHistogram(values []int64, buckets int) *Histogram {
	h := &Histogram{Buckets: make([]int, buckets)}
	if len(values) == 0 {
		return h
	}
	h.Min, h.Max = values[0], values[0]
	for _, v := range values {
		if v < h.Min {
			h.Min = v
		}
		if v > h.Max {
			h.Max = v
		}
	}
	width := h.width()
	for _, v := range values {
		b := min(uint64(v-h.Min)/width, uint64(len(h.Buckets)-1))
		h.Buckets[b]++
		h.Total++
	}
	return h
}

// width is the span of values a bucket covers. Offsets from Min are
// taken as uint64, which holds Max-Min for any two int64s: in int64 the
// span of a column holding both -5e18 and 5e18 overflows.
func (h *Histogram) width() uint64 {
	d, n := uint64(h.Max-h.Min), uint64(len(h.Buckets))
	return max(d/n+(d%n+1)/n, 1) // (d+1)/n, without overflowing at d = MaxUint64
}

// EstimateRange estimates the number of rows with lo <= v <= hi assuming
// uniformity within buckets.
func (h *Histogram) EstimateRange(lo, hi int64) float64 {
	if h.Total == 0 || hi < h.Min || lo > h.Max || lo > hi {
		return 0
	}
	lo, hi = max(lo, h.Min), min(hi, h.Max)
	from, to := uint64(lo-h.Min), uint64(hi-h.Min)
	width := h.width()
	est := 0.0
	for b, cnt := range h.Buckets {
		bLo := uint64(b) * width
		bHi := bLo + width - 1
		if b == len(h.Buckets)-1 {
			bHi = uint64(h.Max - h.Min)
		}
		if bHi < from || bLo > to {
			continue
		}
		ovLo, ovHi := max(bLo, from), min(bHi, to)
		est += float64(cnt) * (float64(ovHi-ovLo) + 1) / (float64(bHi-bLo) + 1)
	}
	return est
}

// Selectivity returns EstimateRange normalized by the total row count.
func (h *Histogram) Selectivity(lo, hi int64) float64 {
	if h.Total == 0 {
		return 0
	}
	return h.EstimateRange(lo, hi) / float64(h.Total)
}

// MCV is one most-common-value entry.
type MCV struct {
	Value int64
	Count int
}

// ColumnStats summarizes one integer column.
type ColumnStats struct {
	Hist *Histogram
	NDV  int
	MCVs []MCV
}

// TableStats holds per-column statistics, keyed by column position.
type TableStats struct {
	RowCount int
	Cols     map[int]*ColumnStats
}

// Analyze computes statistics for every Int64 column of t with the given
// histogram bucket count and MCV list length, reading those columns in
// one DecodePages pass.
func (t *Table) Analyze(buckets, mcvs int) error {
	_, cols := t.vectors()
	for i, c := range t.Schema.Columns {
		if c.Type != Int64 {
			cols[i] = nil
		}
	}
	_, rows, err := t.DecodePages(t.PageIDs(), cols, nil, math.MaxInt)
	if err != nil {
		return err
	}
	stats := &TableStats{RowCount: rows, Cols: make(map[int]*ColumnStats)}
	for ci, col := range cols {
		if col == nil {
			continue
		}
		vals := col.I
		cs := &ColumnStats{Hist: NewHistogram(vals, buckets)}
		counts := map[int64]int{}
		for _, v := range vals {
			counts[v]++
		}
		cs.NDV = len(counts)
		all := make([]MCV, 0, len(counts))
		for v, c := range counts {
			all = append(all, MCV{Value: v, Count: c})
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].Count != all[b].Count {
				return all[a].Count > all[b].Count
			}
			return all[a].Value < all[b].Value
		})
		if len(all) > mcvs {
			all = all[:mcvs]
		}
		cs.MCVs = all
		stats.Cols[ci] = cs
	}
	t.mu.Lock()
	t.Stats = stats
	t.mu.Unlock()
	return nil
}

// EstimateSelectivity estimates the fraction of rows with lo <= col <= hi
// using the column's histogram, falling back to 1/3 when no stats exist
// (the classic textbook default).
func (t *Table) EstimateSelectivity(col int, lo, hi int64) float64 {
	cs := t.columnStats(col)
	if cs == nil {
		return 1.0 / 3
	}
	return cs.Hist.Selectivity(lo, hi)
}

// HasHistogram reports whether ANALYZE left column col a histogram: it
// did for each INT column of an analyzed table.
func (t *Table) HasHistogram(col int) bool { return t.columnStats(col) != nil }

func (t *Table) columnStats(col int) *ColumnStats {
	t.mu.RLock()
	stats := t.Stats
	t.mu.RUnlock()
	if stats == nil {
		return nil
	}
	return stats.Cols[col]
}

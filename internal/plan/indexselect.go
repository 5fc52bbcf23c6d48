package plan

import (
	"math"

	"aidb/internal/catalog"
	"aidb/internal/sql"
)

// Index selection: rewrite Filter(Scan) into Filter(IndexScan) when the
// filter constrains an indexed Int64 column with bounds that are integer
// literals or $N placeholders. The residual filter keeps every conjunct
// (re-checking absorbed bounds is cheap and keeps the rewrite trivially
// sound, whatever a placeholder turns out to hold); the win is reading
// only the index range instead of the whole heap. It is the one place
// an access path is chosen — SELECT, prepared SELECT, UPDATE and DELETE
// plans all pass through it. Which columns have an index it asks the
// scanned table.

// UseIndexes rewrites eligible scans under filters throughout the plan.
func UseIndexes(n Node) Node {
	var walk func(Node) Node
	walk = func(n Node) Node {
		rewriteChildren(n, walk)
		if f, ok := n.(*FilterNode); ok {
			if scan, ok := f.Input.(*ScanNode); ok {
				if is := bestIndexRange(scan, f.Cond); is != nil {
					f.Input = is
				}
			}
		}
		return n
	}
	return walk(n)
}

// keyRange collects the bounds a filter's top-level conjunction puts on
// one column. Literals fold into at most one bound per side as they
// arrive; placeholder bounds are all kept and compared at execute.
type keyRange struct {
	lo, hi []Bound
	point  bool // some conjunct is an equality: at most one key wide
}

func (r *keyRange) atLeast(b Bound) { r.lo = tighten(r.lo, b, func(a, b int64) bool { return a > b }) }
func (r *keyRange) atMost(b Bound)  { r.hi = tighten(r.hi, b, func(a, b int64) bool { return a < b }) }

// add narrows the range by `column op b`. A strict comparison with an
// int64 extreme that nothing lies past bounds nothing.
func (r *keyRange) add(op catalog.CmpOp, b Bound) {
	switch op {
	case catalog.CmpEQ:
		r.point = true
		r.atLeast(b)
		r.atMost(b)
	case catalog.CmpLT:
		if b.Param != 0 || b.N > math.MinInt64 {
			b.N--
			r.atMost(b)
		}
	case catalog.CmpLE:
		r.atMost(b)
	case catalog.CmpGT:
		if b.Param != 0 || b.N < math.MaxInt64 {
			b.N++
			r.atLeast(b)
		}
	case catalog.CmpGE:
		r.atLeast(b)
	}
}

func tighten(side []Bound, b Bound, tighter func(a, b int64) bool) []Bound {
	if b.Param == 0 {
		for i, old := range side {
			if old.Param == 0 {
				if tighter(b.N, old.N) {
					side[i] = b
				}
				return side
			}
		}
	}
	return append(side, b)
}

// unknownWidth is the width assumed for a range closed on both sides
// whose ends are not all known at plan time: wider than any point,
// narrower than any range open on one side.
const unknownWidth = 1 << 32

// width estimates how many keys the range spans, for ranking candidate
// columns: exact for literal bounds, 0 for an equality whatever it
// compares with.
func (r *keyRange) width() uint64 {
	if r.point {
		return 0
	}
	lo, hi, exact := int64(math.MinInt64), int64(math.MaxInt64), true
	for _, b := range r.lo {
		if b.Param == 0 {
			lo = b.N
		} else {
			exact = false
		}
	}
	for _, b := range r.hi {
		if b.Param == 0 {
			hi = b.N
		} else {
			exact = false
		}
	}
	switch {
	case hi < lo:
		return 0 // the literals alone already make it empty
	case !exact && len(r.lo) > 0 && len(r.hi) > 0:
		return min(unknownWidth, uint64(hi)-uint64(lo))
	default:
		return uint64(hi) - uint64(lo)
	}
}

// bestIndexRange finds the indexed column with the tightest range
// implied by the filter's top-level conjunction and returns the index
// scan that reads it, or nil when no indexed column is constrained.
// Ties go to the lower column position, so the choice is deterministic.
func bestIndexRange(scan *ScanNode, cond sql.Expr) *IndexScanNode {
	t := scan.Table
	ranges := make([]keyRange, len(t.Schema.Columns))
	for _, e := range Conjuncts(cond) {
		if v, ok := e.(*sql.BetweenExpr); ok {
			lo, ok1 := compared(t, scan.Alias, v.Subject, catalog.CmpGE, v.Lo)
			hi, ok2 := compared(t, scan.Alias, v.Subject, catalog.CmpLE, v.Hi)
			if ok1 && ok2 {
				l, ok1 := indexBound(t, lo)
				h, ok2 := indexBound(t, hi)
				if ok1 && ok2 {
					ranges[lo.Col].add(lo.Op, l)
					ranges[lo.Col].add(hi.Op, h)
				}
			}
		} else if c, ok := Compared(t, scan.Alias, e); ok {
			if b, ok := indexBound(t, c); ok {
				ranges[c.Col].add(c.Op, b)
			}
		}
	}
	var best *IndexScanNode
	var bestWidth uint64
	for c := range ranges {
		r := &ranges[c]
		if len(r.lo) == 0 && len(r.hi) == 0 || !t.Indexed(c) {
			continue // unconstrained, or no index
		}
		if w := r.width(); best == nil || w < bestWidth {
			best = &IndexScanNode{
				Table: t, Alias: scan.Alias, Column: c,
				Lo: r.lo, Hi: r.hi, RowIDs: scan.RowIDs, Needed: scan.Needed,
				schema: scan.Schema(),
			}
			bestWidth = w
		}
	}
	return best
}

// indexBound is the bound c puts on an index when it can put one: its
// column is an INT and its number an integer literal or a placeholder.
// A float literal is left to the filter — truncating it would move the
// bound.
func indexBound(t *catalog.Table, c Comparison) (Bound, bool) {
	if t.Schema.Columns[c.Col].Type != catalog.Int64 {
		return Bound{}, false
	}
	if n, ok := c.Lit.(int64); ok {
		return Bound{N: n}, true
	}
	return Bound{Param: c.Param}, c.Param > 0
}

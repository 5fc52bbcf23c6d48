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
// plans all pass through it.

// IndexLookup resolves an available index for (table, column position),
// returning its fetch closure or nil when no index exists.
type IndexLookup func(table string, column int) IndexFetch

// UseIndexes rewrites eligible scans under filters throughout the plan.
func UseIndexes(n Node, lookup IndexLookup) Node {
	var walk func(Node) Node
	walk = func(n Node) Node {
		rewriteChildren(n, walk)
		if f, ok := n.(*FilterNode); ok {
			if scan, ok := f.Input.(*ScanNode); ok {
				if is := bestIndexRange(scan, f.Cond, lookup); is != nil {
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
func bestIndexRange(scan *ScanNode, cond sql.Expr, lookup IndexLookup) *IndexScanNode {
	ranges := make([]keyRange, len(scan.Table.Schema.Columns))
	var collect func(e sql.Expr)
	collect = func(e sql.Expr) {
		switch v := e.(type) {
		case *sql.BinaryExpr:
			if v.Op == "AND" {
				collect(v.Left)
				collect(v.Right)
				return
			}
			op := v.Op
			c, okc := scanColumnIndex(scan, v.Left)
			b, okb := boundOf(v.Right)
			if !okc || !okb {
				// Mirrored form: bound OP column.
				c, okc = scanColumnIndex(scan, v.Right)
				b, okb = boundOf(v.Left)
				if !okc || !okb {
					return
				}
				op = MirrorOp(op)
			}
			r := &ranges[c]
			switch op {
			case "=":
				r.point = true
				r.atLeast(b)
				r.atMost(b)
			case "<":
				if b.Param != 0 || b.N > math.MinInt64 {
					b.N--
					r.atMost(b)
				}
			case "<=":
				r.atMost(b)
			case ">":
				if b.Param != 0 || b.N < math.MaxInt64 {
					b.N++
					r.atLeast(b)
				}
			case ">=":
				r.atLeast(b)
			}
		case *sql.BetweenExpr:
			c, okc := scanColumnIndex(scan, v.Subject)
			l, okl := boundOf(v.Lo)
			h, okh := boundOf(v.Hi)
			if okc && okl && okh {
				ranges[c].atLeast(l)
				ranges[c].atMost(h)
			}
		}
	}
	collect(cond)
	var best *IndexScanNode
	var bestWidth uint64
	for c := range ranges {
		r := &ranges[c]
		if len(r.lo) == 0 && len(r.hi) == 0 {
			continue // unconstrained
		}
		fetch := lookup(scan.Table.Name, c)
		if fetch == nil {
			continue
		}
		if w := r.width(); best == nil || w < bestWidth {
			best = &IndexScanNode{
				Table: scan.Table, Alias: scan.Alias, Column: c,
				Lo: r.lo, Hi: r.hi, Fetch: fetch, RowIDs: scan.RowIDs, Needed: scan.Needed,
				schema: scan.Schema(),
			}
			bestWidth = w
		}
	}
	return best
}

// boundOf accepts the expressions an index bound can be: an integer
// literal or a placeholder. Float literals are left to the filter —
// truncating one would move the bound.
func boundOf(e sql.Expr) (Bound, bool) {
	switch v := e.(type) {
	case *sql.IntLit:
		return Bound{N: v.Value}, true
	case *sql.ParamRef:
		return Bound{Param: v.Index}, true
	}
	return Bound{}, false
}

// scanColumnIndex resolves a column reference against a scan node.
func scanColumnIndex(scan *ScanNode, e sql.Expr) (int, bool) {
	c, ok := e.(*sql.ColumnRef)
	if !ok {
		return 0, false
	}
	if c.Table != "" && c.Table != scan.Alias && c.Table != scan.Table.Name {
		return 0, false
	}
	idx := scan.Table.Schema.ColIndex(c.Column)
	if idx < 0 {
		return 0, false
	}
	if scan.Table.Schema.Columns[idx].Type != catalog.Int64 {
		return 0, false
	}
	return idx, true
}

package plan

import (
	"math"

	"aidb/internal/catalog"
	"aidb/internal/sql"
)

// CardinalityEstimator estimates output cardinalities for plan nodes.
// The default implementation (HistogramEstimator) uses per-column
// histograms with the attribute-independence assumption; learned
// estimators in internal/cardest satisfy the same interface.
type CardinalityEstimator interface {
	// EstimateFilter returns the selectivity in [0,1] of cond against the
	// table feeding the filter (nil table means unknown → default).
	EstimateFilter(t *catalog.Table, alias string, cond sql.Expr) float64
}

// HistogramEstimator is the traditional baseline: per-predicate histogram
// selectivities multiplied together (independence assumption).
type HistogramEstimator struct {
	// Params, when set, are read where a predicate spells $N, so a
	// parameterised plan is estimated for the values one statement binds
	// rather than by the no-information default.
	Params []catalog.Value
}

// EstimateFilter implements CardinalityEstimator.
func (h HistogramEstimator) EstimateFilter(t *catalog.Table, alias string, cond sql.Expr) float64 {
	return h.estimateCond(t, alias, cond)
}

func (h HistogramEstimator) estimateCond(t *catalog.Table, alias string, e sql.Expr) float64 {
	switch v := e.(type) {
	case *sql.BinaryExpr:
		switch v.Op {
		case "AND":
			return h.estimateCond(t, alias, v.Left) * h.estimateCond(t, alias, v.Right)
		case "OR":
			a, b := h.estimateCond(t, alias, v.Left), h.estimateCond(t, alias, v.Right)
			return a + b - a*b
		case "=", "<", "<=", ">", ">=", "!=":
			return h.estimateComparison(t, alias, v)
		}
	case *sql.BetweenExpr:
		col, ok := columnIndexOf(t, alias, v.Subject)
		if !ok {
			return 1.0 / 3
		}
		if !t.HasHistogram(col) {
			// Every value is at least lo or at most hi, so the share that
			// is both is the two shares' sum less one.
			ge, ok1 := h.selectivity(t, col, ">=", v.Lo)
			le, ok2 := h.selectivity(t, col, "<=", v.Hi)
			if !ok1 || !ok2 {
				return 1.0 / 3
			}
			return max(0, ge+le-1)
		}
		lo, ok1 := h.intValue(v.Lo)
		hi, ok2 := h.intValue(v.Hi)
		if !ok1 || !ok2 {
			return 1.0 / 3
		}
		return t.EstimateSelectivity(col, lo, hi)
	case *sql.InExpr:
		col, ok := columnIndexOf(t, alias, v.Subject)
		if !ok {
			return 1.0 / 3
		}
		sel := 0.0
		for _, item := range v.List {
			eq, ok := h.selectivity(t, col, "=", item)
			if !ok {
				return 1.0 / 3
			}
			sel += eq
		}
		if sel > 1 {
			sel = 1
		}
		if v.Negated {
			return 1 - sel
		}
		return sel
	case *sql.NotExpr:
		return 1 - h.estimateCond(t, alias, v.Inner)
	}
	return 1.0 / 3
}

// estimateComparison estimates `column op k` for a column of t and a
// number k, either way round.
func (h HistogramEstimator) estimateComparison(t *catalog.Table, alias string, v *sql.BinaryExpr) float64 {
	col, ok := columnIndexOf(t, alias, v.Left)
	op, k := v.Op, v.Right
	if _, num := h.number(k); !ok || !num {
		col, ok = columnIndexOf(t, alias, v.Right)
		op, k = MirrorOp(v.Op), v.Left
	}
	if !ok {
		return 1.0 / 3
	}
	if sel, ok := h.selectivity(t, col, op, k); ok {
		return sel
	}
	return 1.0 / 3
}

// accepts is, per comparison operator, the outcomes of comparing a cell
// with the constant it holds for, as catalog.ZoneCond spells them.
var accepts = map[string]uint8{"<": 1, "<=": 3, "=": 2, ">=": 6, ">": 4, "!=": 5}

// selectivity estimates `col op e` for a number e: from the column's
// histogram where ANALYZE built one, else from the table's zones. ok is
// false when e is no number or neither estimates anything.
func (h HistogramEstimator) selectivity(t *catalog.Table, col int, op string, e sql.Expr) (float64, bool) {
	k, ok := h.number(e)
	if !ok || accepts[op] == 0 {
		return 0, false
	}
	if !t.HasHistogram(col) {
		c := catalog.ZoneCond{Col: col, Accept: accepts[op]}
		switch k := k.(type) {
		case int64:
			c.Int, c.IntK = true, k
		case float64:
			c.FloatK = k
		}
		return t.ZoneSelectivity(c)
	}
	lit, _ := h.intValue(e)
	const inf = int64(1) << 40
	switch op {
	case "=":
		return t.EstimateSelectivity(col, lit, lit), true
	case "!=":
		return 1 - t.EstimateSelectivity(col, lit, lit), true
	case "<":
		return t.EstimateSelectivity(col, -inf, lit-1), true
	case "<=":
		return t.EstimateSelectivity(col, -inf, lit), true
	case ">":
		return t.EstimateSelectivity(col, lit+1, inf), true
	default: // ">="
		return t.EstimateSelectivity(col, lit, inf), true
	}
}

// MirrorOp is the comparison that holds of (b, a) when op holds of (a, b).
func MirrorOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

func columnIndexOf(t *catalog.Table, alias string, e sql.Expr) (int, bool) {
	c, ok := e.(*sql.ColumnRef)
	if !ok || t == nil {
		return 0, false
	}
	if c.Table != "" && c.Table != alias && c.Table != t.Name {
		return 0, false
	}
	idx := t.Schema.ColIndex(c.Column)
	return idx, idx >= 0
}

// number is the number a predicate compares with, an int64 or a
// float64: a numeric literal, or the number h.Params binds to a
// placeholder.
func (h HistogramEstimator) number(e sql.Expr) (catalog.Value, bool) {
	switch v := e.(type) {
	case *sql.IntLit:
		return v.Value, true
	case *sql.FloatLit:
		return v.Value, true
	case *sql.ParamRef:
		if v.Index >= 1 && v.Index <= len(h.Params) {
			switch p := h.Params[v.Index-1].(type) {
			case int64, float64:
				return p, true
			}
		}
	}
	return nil, false
}

// intValue is number as an integer, a float truncated.
func (h HistogramEstimator) intValue(e sql.Expr) (int64, bool) {
	switch v, _ := h.number(e); v := v.(type) {
	case int64:
		return v, true
	case float64:
		return int64(v), true
	}
	return 0, false
}

// Cost estimates the total work (rows processed) of a plan using est for
// filter selectivities and unit cost per row produced at each operator —
// the classic C_out metric from the join-ordering literature.
func Cost(n Node, est CardinalityEstimator) float64 {
	cost, _ := costRec(n, est)
	return cost
}

// EstimateRows returns the estimated output cardinality of the plan.
func EstimateRows(n Node, est CardinalityEstimator) float64 {
	_, rows := costRec(n, est)
	return rows
}

func costRec(n Node, est CardinalityEstimator) (cost, rows float64) {
	switch v := n.(type) {
	case *ScanNode:
		r := float64(v.Table.NumRows())
		return r, r
	case *IndexScanNode:
		// A placeholder bound has no value at plan time; such a range gets
		// the guess an inestimable filter gets.
		sel := 1.0 / 3
		if lo, hi, ok := v.Range(nil); ok {
			sel = v.Table.EstimateSelectivity(v.Column, lo, hi)
		}
		r := float64(v.Table.NumRows()) * sel
		return r + math.Log2(float64(v.Table.NumRows())+2), r
	case *VirtualScanNode:
		r := float64(v.Table.Est())
		return r, r
	case *FilterNode:
		c, r := costRec(v.Input, est)
		var t *catalog.Table
		alias := ""
		if sc, ok := v.Input.(*ScanNode); ok {
			t, alias = sc.Table, sc.Alias
		}
		sel := est.EstimateFilter(t, alias, v.Cond)
		return c + r, r * sel
	case *JoinNode:
		lc, lr := costRec(v.Left, est)
		rc, rr := costRec(v.Right, est)
		// Equi-join cardinality: |L|*|R| / max(ndv_l, ndv_r); without NDV
		// information fall back to 1/10 of the cross product.
		out := lr * rr * 0.1
		if ndv := joinNDV(v); ndv > 0 {
			out = lr * rr / ndv
		}
		return lc + rc + lr + rr + out, out
	case *ProjectNode:
		c, r := costRec(v.Input, est)
		return c + r, r
	case *AggregateNode:
		c, r := costRec(v.Input, est)
		out := 1.0
		if len(v.GroupBy) > 0 {
			out = r / 10
			if out < 1 {
				out = 1
			}
		}
		return c + r, out
	case *SortNode:
		c, r := costRec(v.Input, est)
		return c + 2*r, r
	case *LimitNode:
		c, r := costRec(v.Input, est)
		lim := float64(v.N)
		if lim > r {
			lim = r
		}
		return c, lim
	case *DistinctNode:
		c, r := costRec(v.Input, est)
		return c + r, r / 2
	case *ModifyNode:
		c, r := costRec(v.Input, est)
		return c + r, r
	default:
		return 0, 0
	}
}

func joinNDV(j *JoinNode) float64 {
	ndv := func(n Node, col string) float64 {
		// A filter placed on a join input narrows it but names the same
		// key column; look through to the table's statistics.
		for f, ok := n.(*FilterNode); ok; f, ok = n.(*FilterNode) {
			n = f.Input
		}
		var t *catalog.Table
		var alias string
		switch sc := n.(type) {
		case *ScanNode:
			t, alias = sc.Table, sc.Alias
		case *IndexScanNode:
			t, alias = sc.Table, sc.Alias
		}
		if t == nil || t.Stats == nil {
			return 0
		}
		for ci, c := range t.Schema.Columns {
			if alias+"."+c.Name == col || c.Name == col {
				if cs, ok := t.Stats.Cols[ci]; ok {
					return float64(cs.NDV)
				}
			}
		}
		return 0
	}
	l, r := ndv(j.Left, j.LeftCol), ndv(j.Right, j.RightCol)
	if l > r {
		return l
	}
	return r
}

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
func (h HistogramEstimator) EstimateFilter(t *catalog.Table, alias string, e sql.Expr) float64 {
	switch v := e.(type) {
	case *sql.BinaryExpr:
		switch v.Op {
		case "AND":
			return h.EstimateFilter(t, alias, v.Left) * h.EstimateFilter(t, alias, v.Right)
		case "OR":
			a, b := h.EstimateFilter(t, alias, v.Left), h.EstimateFilter(t, alias, v.Right)
			return a + b - a*b
		}
		if c, ok := Compared(t, alias, v); ok {
			if sel, ok := h.selectivity(t, c); ok {
				return sel
			}
		}
	case *sql.BetweenExpr:
		lo, ok1 := compared(t, alias, v.Subject, catalog.CmpGE, v.Lo)
		hi, ok2 := compared(t, alias, v.Subject, catalog.CmpLE, v.Hi)
		switch {
		case !ok1 || !ok2:
		case !t.HasHistogram(lo.Col):
			// Every value is at least lo or at most hi, so the share that
			// is both is the two shares' sum less one.
			ge, ok1 := h.selectivity(t, lo)
			le, ok2 := h.selectivity(t, hi)
			if ok1 && ok2 {
				return max(0, ge+le-1)
			}
		default:
			l, ok1 := h.intValue(lo)
			u, ok2 := h.intValue(hi)
			if ok1 && ok2 {
				return t.EstimateSelectivity(lo.Col, l, u)
			}
		}
	case *sql.InExpr:
		sel := 0.0
		for _, item := range v.List {
			c, ok := compared(t, alias, v.Subject, catalog.CmpEQ, item)
			if !ok {
				return 1.0 / 3
			}
			eq, ok := h.selectivity(t, c)
			if !ok {
				return 1.0 / 3
			}
			sel += eq
		}
		sel = min(sel, 1)
		if v.Negated {
			return 1 - sel
		}
		return sel
	case *sql.NotExpr:
		return 1 - h.EstimateFilter(t, alias, v.Inner)
	}
	return 1.0 / 3
}

// selectivity estimates c: from the column's histogram where ANALYZE
// built one, else from the table's zones. ok is false when c's number
// is unbound or not a number, or when neither estimates anything.
func (h HistogramEstimator) selectivity(t *catalog.Table, c Comparison) (float64, bool) {
	if !t.HasHistogram(c.Col) {
		z, ok := c.Zone(h.Params)
		if !ok {
			return 0, false
		}
		return t.ZoneSelectivity(z)
	}
	lit, ok := h.intValue(c)
	if !ok {
		return 0, false
	}
	const inf = int64(1) << 40
	switch c.Op {
	case catalog.CmpEQ:
		return t.EstimateSelectivity(c.Col, lit, lit), true
	case catalog.CmpNE:
		return 1 - t.EstimateSelectivity(c.Col, lit, lit), true
	case catalog.CmpLT:
		return t.EstimateSelectivity(c.Col, -inf, lit-1), true
	case catalog.CmpLE:
		return t.EstimateSelectivity(c.Col, -inf, lit), true
	case catalog.CmpGT:
		return t.EstimateSelectivity(c.Col, lit+1, inf), true
	default: // CmpGE
		return t.EstimateSelectivity(c.Col, lit, inf), true
	}
}

// intValue is c's number under h.Params as an integer, a float
// truncated.
func (h HistogramEstimator) intValue(c Comparison) (int64, bool) {
	switch v, _ := c.Number(h.Params); v := v.(type) {
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
		r := indexScanRows(v, est)
		return r + math.Log2(float64(v.Table.NumRows())+2), r
	case *VirtualScanNode:
		r := float64(v.Table.Est())
		return r, r
	case *FilterNode:
		c, r := costRec(v.Input, est)
		switch in := v.Input.(type) {
		case *ScanNode:
			return c + r, r * est.EstimateFilter(in.Table, in.Alias, v.Cond)
		case *IndexScanNode:
			// The filter checks again every conjunct the index range took,
			// so what passes is the table's share, not a share of the range.
			return c + r, min(r, float64(in.Table.NumRows())*est.EstimateFilter(in.Table, in.Alias, v.Cond))
		}
		return c + r, r * est.EstimateFilter(nil, "", v.Cond)
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

// indexScanRows estimates the rows an index scan reads. A range whose
// bounds the estimator's parameters fix is priced as the estimator
// prices `col >= lo AND col <= hi`: by the column's histogram, else by
// the table's zones. Where a placeholder has no value, an equality reads
// one key's share of the live rows, and any other range gets the guess
// an inestimable filter gets.
func indexScanRows(s *IndexScanNode, est CardinalityEstimator) float64 {
	var params []catalog.Value
	if h, ok := est.(HistogramEstimator); ok {
		params = h.Params
	}
	t, rows := s.Table, float64(s.Table.NumRows())
	lo, hi, ok := s.Range(params)
	switch {
	case !ok && s.point():
		return rows / max(keyNDV(t, s.Column), 1)
	case !ok:
		return rows / 3
	case lo > hi:
		return 0
	case t.HasHistogram(s.Column):
		return rows * t.EstimateSelectivity(s.Column, lo, hi)
	}
	zone := func(op catalog.CmpOp, k int64) (float64, bool) {
		return t.ZoneSelectivity(catalog.ZoneCond{Col: s.Column, Accept: op, Int: true, IntK: k})
	}
	sel, ok := 1.0, true
	switch {
	case lo == hi:
		sel, ok = zone(catalog.CmpEQ, lo)
	case lo > math.MinInt64 && hi < math.MaxInt64:
		// Every key is at least lo or at most hi, so the share that is
		// both is the two shares' sum less one.
		ge, ok1 := zone(catalog.CmpGE, lo)
		le, ok2 := zone(catalog.CmpLE, hi)
		sel, ok = max(0, ge+le-1), ok1 && ok2
	case lo > math.MinInt64:
		sel, ok = zone(catalog.CmpGE, lo)
	case hi < math.MaxInt64:
		sel, ok = zone(catalog.CmpLE, hi)
	}
	if !ok {
		sel = 1.0 / 3
	}
	return rows * sel
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
		if t == nil {
			return 0
		}
		for ci, c := range t.Schema.Columns {
			if alias+"."+c.Name == col || c.Name == col {
				return keyNDV(t, ci)
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

// keyNDV bounds the distinct values of column col of t: ANALYZE's count
// where there is one, never more than the table's live rows and, for an
// INT column, never more than the integers its zones span.
func keyNDV(t *catalog.Table, col int) float64 {
	ndv := float64(t.NumRows())
	if t.Stats != nil {
		if cs, ok := t.Stats.Cols[col]; ok {
			ndv = min(ndv, float64(cs.NDV))
		}
	}
	if lo, hi, ok := t.ZoneRange(col); ok {
		ndv = min(ndv, float64(hi)-float64(lo)+1)
	}
	return ndv
}

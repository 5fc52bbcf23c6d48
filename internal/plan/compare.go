package plan

import (
	"aidb/internal/catalog"
	"aidb/internal/sql"
)

// Comparison is a filter conjunct `column op number` read with the
// column on the left: Col is an INT or FLOAT column's position in the
// table, and the number is the int64 or float64 literal Lit, or the
// placeholder $Param when Param > 0. The estimator, index selection and
// the executor's page pruning all read the conjunct as one, each taking
// what it can use.
type Comparison struct {
	Col   int
	Op    catalog.CmpOp
	Lit   catalog.Value
	Param int
}

// Compared recognizes e as a numeric column of t, which the query calls
// alias, compared with a numeric literal or a placeholder, written
// either way round (`5 > a` is `a < 5`).
func Compared(t *catalog.Table, alias string, e sql.Expr) (Comparison, bool) {
	b, ok := e.(*sql.BinaryExpr)
	if !ok {
		return Comparison{}, false
	}
	op := catalog.CmpOf(b.Op)
	if c, ok := compared(t, alias, b.Left, op, b.Right); ok {
		return c, true
	}
	return compared(t, alias, b.Right, op.Mirrored(), b.Left)
}

// compared recognizes `col op k` in that order only, as BETWEEN and IN
// compare their subject with each bound or item.
func compared(t *catalog.Table, alias string, col sql.Expr, op catalog.CmpOp, k sql.Expr) (Comparison, bool) {
	ref, ok := col.(*sql.ColumnRef)
	if !ok || t == nil || op == 0 || ref.Table != "" && ref.Table != alias && ref.Table != t.Name {
		return Comparison{}, false
	}
	c := Comparison{Col: t.Schema.ColIndex(ref.Column), Op: op}
	if c.Col < 0 || t.Schema.Columns[c.Col].Type == catalog.String {
		return Comparison{}, false
	}
	switch v := k.(type) {
	case *sql.IntLit:
		c.Lit = v.Value
	case *sql.FloatLit:
		c.Lit = v.Value
	case *sql.ParamRef:
		c.Param = v.Index
		return c, v.Index >= 1
	default:
		return Comparison{}, false
	}
	return c, true
}

// Number is c's number where params binds the placeholders: ok is
// false when a placeholder is bound to no int64 or float64.
func (c Comparison) Number(params []catalog.Value) (catalog.Value, bool) {
	if c.Param == 0 {
		return c.Lit, true
	}
	if c.Param <= len(params) {
		switch p := params[c.Param-1].(type) {
		case int64, float64:
			return p, true
		}
	}
	return nil, false
}

// Zone is c under params as a page's zone tests it; ok is Number's.
func (c Comparison) Zone(params []catalog.Value) (catalog.ZoneCond, bool) {
	k, ok := c.Number(params)
	z := catalog.ZoneCond{Col: c.Col, Accept: c.Op}
	switch k := k.(type) {
	case int64:
		z.Int, z.IntK = true, k
	case float64:
		z.FloatK = k
	}
	return z, ok
}

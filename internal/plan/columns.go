package plan

import (
	"strings"

	"aidb/internal/sql"
)

// Needed columns: a scan decodes every column it is given a vector for,
// so it should decode only what the plan above it reads. needColumns walks the plan top-down carrying, for each
// node, which of its output columns its parent reads, and leaves the
// answer on every ScanNode. References are resolved with ResolveColumn,
// the resolver the executor binds expressions with, so a column the
// executor reads is a column this pass marked.

// needColumns records what is read below n. need is indexed like
// n.Schema() and may be overwritten; nil means every column, which is
// also what any node kind this pass does not know gives its inputs.
// schema is n.Schema() when the caller has it at hand, else nil.
func needColumns(n Node, need []bool, schema []string) {
	switch v := n.(type) {
	case *ScanNode:
		v.Needed = need
	case *IndexScanNode:
		v.Needed = need
	case *FilterNode:
		if need != nil {
			if schema == nil {
				schema = v.Input.Schema()
			}
			markRefs(need, schema, v.Cond)
		}
		needColumns(v.Input, need, schema)
	case *SortNode:
		if need != nil {
			if schema == nil {
				schema = v.Input.Schema()
			}
			for _, k := range v.Keys {
				markRefs(need, schema, k.Expr)
			}
		}
		needColumns(v.Input, need, schema)
	case *LimitNode:
		needColumns(v.Input, need, schema)
	case *ProjectNode:
		in := v.Input.Schema()
		need = make([]bool, len(in))
		for _, it := range v.Items {
			if _, star := it.Expr.(*sql.Star); star {
				need = nil
				break
			}
			markRefs(need, in, it.Expr)
		}
		needColumns(v.Input, need, in)
	case *AggregateNode:
		// COUNT(*) reads no column: the Star is not a reference.
		in := v.Input.Schema()
		need = make([]bool, len(in))
		for _, g := range v.GroupBy {
			markRefs(need, in, g)
		}
		for _, it := range v.Items {
			markRefs(need, in, it.Expr)
		}
		needColumns(v.Input, need, in)
	case *JoinNode:
		var left, right []bool
		ls, rs := v.Left.Schema(), v.Right.Schema()
		if need != nil {
			left, right = need[:len(ls)], need[len(ls):]
			markRefs(left, ls, ColumnRefOf(v.LeftCol))
			markRefs(right, rs, ColumnRefOf(v.RightCol))
		}
		needColumns(v.Left, left, ls)
		needColumns(v.Right, right, rs)
	default:
		for _, c := range n.Children() {
			needColumns(c, nil, nil)
		}
	}
}

// markRefs marks in need, indexed like schema, every column e
// references. A reference that does not name exactly one column is
// skipped: binding the expression fails on it before a row is read.
func markRefs(need []bool, schema []string, e sql.Expr) {
	sql.WalkExpr(e, func(x sql.Expr) {
		if c, ok := x.(*sql.ColumnRef); ok {
			if i, n := ResolveColumn(schema, c.Table, c.Column); n == 1 {
				need[i] = true
			}
		}
	})
}

// ColumnRefOf is the column reference a schema or join-key name spells:
// "t.c" names column c of t, a bare "c" any column c.
func ColumnRefOf(name string) *sql.ColumnRef {
	if i := strings.LastIndex(name, "."); i >= 0 {
		return &sql.ColumnRef{Table: name[:i], Column: name[i+1:]}
	}
	return &sql.ColumnRef{Column: name}
}

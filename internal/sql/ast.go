package sql

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// Expr is any expression node.
type Expr interface {
	expr()
	String() string
}

// ColumnRef references a column, optionally table-qualified.
type ColumnRef struct {
	Table  string // empty if unqualified
	Column string
}

func (*ColumnRef) expr() {}

func (c *ColumnRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

// IntLit is an integer literal.
type IntLit struct{ Value int64 }

func (*IntLit) expr()            {}
func (l *IntLit) String() string { return fmt.Sprintf("%d", l.Value) }

// FloatLit is a floating-point literal.
type FloatLit struct{ Value float64 }

func (*FloatLit) expr() {}

// String spells the value in plain decimal with a point, so it lexes
// back as the same float: %g would print 2.0 as the integer 2, 1e8 with
// an exponent the lexer does not read, and -0.0 as the integer 0.
func (l *FloatLit) String() string {
	s := strconv.FormatFloat(l.Value, 'f', -1, 64)
	if !strings.Contains(s, ".") {
		s += ".0"
	}
	return s
}

// StringLit is a string literal.
type StringLit struct{ Value string }

func (*StringLit) expr()            {}
func (l *StringLit) String() string { return "'" + strings.ReplaceAll(l.Value, "'", "''") + "'" }

// Star is the * projection.
type Star struct{}

func (*Star) expr()          {}
func (*Star) String() string { return "*" }

// ParamRef is a positional parameter placeholder ($1, $2, ...) inside a
// prepared statement. Indexes are 1-based; values bind at execute time
// (EXECUTE name (v1, v2, ...)), so one cached plan serves all bindings.
type ParamRef struct{ Index int }

func (*ParamRef) expr()            {}
func (p *ParamRef) String() string { return fmt.Sprintf("$%d", p.Index) }

// BinaryExpr is a binary operation (comparison, boolean, arithmetic).
type BinaryExpr struct {
	Op          string // =, !=, <, <=, >, >=, AND, OR, +, -, *, /
	Left, Right Expr
}

func (*BinaryExpr) expr() {}

func (b *BinaryExpr) String() string {
	return "(" + b.Left.String() + " " + b.Op + " " + b.Right.String() + ")"
}

// NotExpr is boolean negation.
type NotExpr struct{ Inner Expr }

func (*NotExpr) expr()            {}
func (n *NotExpr) String() string { return "NOT " + n.Inner.String() }

// BetweenExpr is `x BETWEEN lo AND hi`.
type BetweenExpr struct {
	Subject, Lo, Hi Expr
}

func (*BetweenExpr) expr() {}

func (b *BetweenExpr) String() string {
	return b.Subject.String() + " BETWEEN " + b.Lo.String() + " AND " + b.Hi.String()
}

// InExpr is `x IN (e1, e2, ...)`, optionally negated.
type InExpr struct {
	Subject Expr
	List    []Expr
	Negated bool
}

func (*InExpr) expr() {}

func (e *InExpr) String() string {
	parts := make([]string, len(e.List))
	for i, v := range e.List {
		parts[i] = v.String()
	}
	op := " IN ("
	if e.Negated {
		op = " NOT IN ("
	}
	return e.Subject.String() + op + strings.Join(parts, ", ") + ")"
}

// FuncCall is a function invocation: aggregates (COUNT/SUM/AVG/MIN/MAX) or
// the AISQL PREDICT(model, args...) scalar function.
type FuncCall struct {
	Name string // upper-cased
	Args []Expr
}

func (*FuncCall) expr() {}

func (f *FuncCall) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return f.Name + "(" + strings.Join(parts, ", ") + ")"
}

// SelectItem is one projection with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// JoinClause is one `JOIN table ON left = right`.
type JoinClause struct {
	Table string
	Alias string
	On    *BinaryExpr // equality of two column refs
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	Table    string
	Alias    string
	Joins    []JoinClause
	Where    Expr
	GroupBy  []Expr
	OrderBy  []OrderItem
	Limit    int // -1 when absent
}

func (*SelectStmt) stmt() {}

// ColumnDef declares one column in CREATE TABLE.
type ColumnDef struct {
	Name string
	Type string // INT, FLOAT, TEXT
}

// CreateTableStmt creates a table.
type CreateTableStmt struct {
	Name    string
	Columns []ColumnDef
}

func (*CreateTableStmt) stmt() {}

// InsertStmt inserts literal rows.
type InsertStmt struct {
	Table string
	Rows  [][]Expr
}

func (*InsertStmt) stmt() {}

// UpdateStmt updates matching rows.
type UpdateStmt struct {
	Table string
	Set   map[string]Expr
	Where Expr
}

func (*UpdateStmt) stmt() {}

// DeleteStmt deletes matching rows.
type DeleteStmt struct {
	Table string
	Where Expr
}

func (*DeleteStmt) stmt() {}

// DropTableStmt drops a table.
type DropTableStmt struct{ Name string }

func (*DropTableStmt) stmt() {}

// CreateIndexStmt creates a secondary index.
type CreateIndexStmt struct {
	Name   string
	Table  string
	Column string
}

func (*CreateIndexStmt) stmt() {}

// CreateModelStmt is the AISQL `CREATE MODEL name PREDICT label ON table
// [FEATURES (c1, ...)] [WITH (key = value, ...)]` statement. The model
// kind (logistic, linear, tree, mlp) is given in WITH (kind = '...').
type CreateModelStmt struct {
	Name     string
	Label    string
	Table    string
	Features []string
	Options  map[string]string
}

func (*CreateModelStmt) stmt() {}

// EvaluateModelStmt is `EVALUATE MODEL name ON table`.
type EvaluateModelStmt struct {
	Name  string
	Table string
}

func (*EvaluateModelStmt) stmt() {}

// DropModelStmt is `DROP MODEL name`.
type DropModelStmt struct{ Name string }

func (*DropModelStmt) stmt() {}

// ShowStmt is `SHOW TABLES` or `SHOW MODELS`.
type ShowStmt struct{ What string }

func (*ShowStmt) stmt() {}

// ExplainStmt wraps another statement for plan display. Analyze selects
// EXPLAIN ANALYZE: execute the statement and report per-operator
// runtime profiles alongside the optimizer's estimates.
type ExplainStmt struct {
	Inner   Statement
	Analyze bool
}

func (*ExplainStmt) stmt() {}

// AnalyzeStmt is `ANALYZE table` — refresh optimizer statistics.
type AnalyzeStmt struct{ Table string }

func (*AnalyzeStmt) stmt() {}

// PrepareStmt is `PREPARE name AS <statement>`: parse (and for SELECT,
// plan) once, then run repeatedly through EXECUTE with bound parameters.
type PrepareStmt struct {
	Name string
	Stmt Statement
}

func (*PrepareStmt) stmt() {}

// ExecStmt is `EXECUTE name [(arg1, arg2, ...)]` — run a prepared
// statement with constant arguments bound to its $N placeholders.
type ExecStmt struct {
	Name string
	Args []Expr
}

func (*ExecStmt) stmt() {}

// DeallocateStmt is `DEALLOCATE [PREPARE] name` — drop a prepared
// statement from the session's namespace.
type DeallocateStmt struct{ Name string }

func (*DeallocateStmt) stmt() {}

// BeginStmt / CommitStmt / RollbackStmt delimit a session transaction.
type BeginStmt struct{}

func (*BeginStmt) stmt() {}

// CommitStmt ends the current session transaction.
type CommitStmt struct{}

func (*CommitStmt) stmt() {}

// RollbackStmt aborts the current session transaction.
type RollbackStmt struct{}

func (*RollbackStmt) stmt() {}

// WalkExprs visits every expression tree hanging off s (recursively
// through nested statements such as PREPARE bodies), calling fn on each
// root expression. Statements without expressions are no-ops.
func WalkExprs(s Statement, fn func(Expr)) {
	visit := func(e Expr) {
		if e != nil {
			fn(e)
		}
	}
	switch v := s.(type) {
	case *SelectStmt:
		for _, it := range v.Items {
			visit(it.Expr)
		}
		for _, j := range v.Joins {
			visit(j.On)
		}
		visit(v.Where)
		for _, g := range v.GroupBy {
			visit(g)
		}
		for _, o := range v.OrderBy {
			visit(o.Expr)
		}
	case *InsertStmt:
		for _, row := range v.Rows {
			for _, e := range row {
				visit(e)
			}
		}
	case *UpdateStmt:
		for _, e := range v.Set {
			visit(e)
		}
		visit(v.Where)
	case *DeleteStmt:
		visit(v.Where)
	case *PrepareStmt:
		WalkExprs(v.Stmt, fn)
	case *ExecStmt:
		for _, e := range v.Args {
			visit(e)
		}
	case *ExplainStmt:
		WalkExprs(v.Inner, fn)
	}
}

// CountParams returns the number of positional parameters a statement
// expects: the highest $N index referenced anywhere in it.
func CountParams(s Statement) int {
	max := 0
	WalkExprs(s, func(root Expr) {
		WalkExpr(root, func(e Expr) {
			if p, ok := e.(*ParamRef); ok && p.Index > max {
				max = p.Index
			}
		})
	})
	return max
}

// WalkExpr visits e and every subexpression, parents first.
func WalkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch v := e.(type) {
	case *BinaryExpr:
		WalkExpr(v.Left, fn)
		WalkExpr(v.Right, fn)
	case *NotExpr:
		WalkExpr(v.Inner, fn)
	case *BetweenExpr:
		WalkExpr(v.Subject, fn)
		WalkExpr(v.Lo, fn)
		WalkExpr(v.Hi, fn)
	case *InExpr:
		WalkExpr(v.Subject, fn)
		for _, item := range v.List {
			WalkExpr(item, fn)
		}
	case *FuncCall:
		for _, a := range v.Args {
			WalkExpr(a, fn)
		}
	}
}

// Deparse renders a SELECT statement back to canonical SQL text: every
// literal, column, alias and clause in a fixed spelling, so two parses
// of equivalent statements deparse identically. This is the
// collision-safe identity the plan cache keys prepared statements by —
// plan.Fingerprint deliberately normalizes constants and projections
// away (statement grouping wants that), so it cannot distinguish plans
// that differ only in literals. UPDATE and DELETE deparse the same way
// (SET clauses in column-name order); other statements deparse to "".
func Deparse(s Statement) string {
	var sb strings.Builder
	switch v := s.(type) {
	case *SelectStmt:
		return deparseSelect(v)
	case *UpdateStmt:
		cols := make([]string, 0, len(v.Set))
		for c := range v.Set {
			cols = append(cols, c)
		}
		sort.Strings(cols)
		sb.WriteString("UPDATE " + v.Table + " SET ")
		for i, c := range cols {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(c + " = " + v.Set[c].String())
		}
		if v.Where != nil {
			sb.WriteString(" WHERE " + v.Where.String())
		}
	case *DeleteStmt:
		sb.WriteString("DELETE FROM " + v.Table)
		if v.Where != nil {
			sb.WriteString(" WHERE " + v.Where.String())
		}
	}
	return sb.String()
}

func deparseSelect(v *SelectStmt) string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if v.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range v.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(it.Expr.String())
		if it.Alias != "" {
			sb.WriteString(" AS " + it.Alias)
		}
	}
	sb.WriteString(" FROM " + v.Table)
	if v.Alias != "" {
		sb.WriteString(" " + v.Alias)
	}
	for _, j := range v.Joins {
		sb.WriteString(" JOIN " + j.Table)
		if j.Alias != "" {
			sb.WriteString(" " + j.Alias)
		}
		sb.WriteString(" ON " + j.On.String())
	}
	if v.Where != nil {
		sb.WriteString(" WHERE " + v.Where.String())
	}
	if len(v.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range v.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.String())
		}
	}
	if len(v.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range v.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.Expr.String())
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if v.Limit >= 0 {
		fmt.Fprintf(&sb, " LIMIT %d", v.Limit)
	}
	return sb.String()
}

// StatementKind names a statement's type for tracing and metrics
// ("SELECT", "INSERT", ...). Unknown statement types report "UNKNOWN".
func StatementKind(s Statement) string {
	switch v := s.(type) {
	case *SelectStmt:
		return "SELECT"
	case *InsertStmt:
		return "INSERT"
	case *UpdateStmt:
		return "UPDATE"
	case *DeleteStmt:
		return "DELETE"
	case *CreateTableStmt:
		return "CREATE TABLE"
	case *DropTableStmt:
		return "DROP TABLE"
	case *CreateIndexStmt:
		return "CREATE INDEX"
	case *CreateModelStmt:
		return "CREATE MODEL"
	case *EvaluateModelStmt:
		return "EVALUATE MODEL"
	case *DropModelStmt:
		return "DROP MODEL"
	case *ShowStmt:
		return "SHOW"
	case *AnalyzeStmt:
		return "ANALYZE"
	case *PrepareStmt:
		return "PREPARE"
	case *ExecStmt:
		return "EXECUTE"
	case *DeallocateStmt:
		return "DEALLOCATE"
	case *BeginStmt:
		return "BEGIN"
	case *CommitStmt:
		return "COMMIT"
	case *RollbackStmt:
		return "ROLLBACK"
	case *ExplainStmt:
		if v.Analyze {
			return "EXPLAIN ANALYZE " + StatementKind(v.Inner)
		}
		return "EXPLAIN " + StatementKind(v.Inner)
	default:
		return "UNKNOWN"
	}
}

// Package plan turns parsed SQL into a logical operator tree and costs it.
// It contains the *traditional* optimizer machinery — histogram-based
// selectivity estimation and a Selinger-style cost model — that the
// learned components (internal/cardest, internal/joinorder,
// internal/optimizer) are benchmarked against.
package plan

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"aidb/internal/catalog"
	"aidb/internal/sql"
	"aidb/internal/storage"
)

// Node is a logical plan operator.
type Node interface {
	// Schema returns the output column names (qualified where needed).
	Schema() []string
	// Children returns input operators.
	Children() []Node
	// Describe renders a one-line summary for EXPLAIN output.
	Describe() string
}

// ScanNode reads a base table.
type ScanNode struct {
	Table *catalog.Table
	// Alias is the name the query refers to this table by.
	Alias string
	// RowIDs makes the scan append each row's storage.RecordID as a
	// hidden trailing value (not part of Schema). Only UPDATE/DELETE
	// plans set it; every other scan's rows stay exactly schema-wide.
	RowIDs bool
	// Needed marks, by column position, the columns some operator above
	// the scan reads; the scan decodes only those, and the others have no
	// vector (no ordinal moves; reading one fails to bind). Nil — what
	// Build produces — decodes every column. OptimizeFilters fills it in.
	Needed []bool

	schema []string
}

// NewScanNode builds a scan of t under alias, fixing its qualified
// schema once: Schema is called by every operator above the scan on
// every execution of a cached plan.
func NewScanNode(t *catalog.Table, alias string) *ScanNode {
	return &ScanNode{Table: t, Alias: alias, schema: tableSchema(t, alias)}
}

// Schema implements Node. A node built as a literal rather than by
// NewScanNode computes its names on each call.
func (s *ScanNode) Schema() []string {
	if s.schema == nil {
		return tableSchema(s.Table, s.Alias)
	}
	return s.schema
}

// Children implements Node.
func (s *ScanNode) Children() []Node { return nil }

// Describe implements Node.
func (s *ScanNode) Describe() string {
	cols := ""
	if s.Needed != nil {
		var names []string
		for i, c := range s.Table.Schema.Columns {
			if s.Needed[i] {
				names = append(names, c.Name)
			}
		}
		cols = " [" + strings.Join(names, ", ") + "]"
	}
	return fmt.Sprintf("Scan %s%s AS %s (%d rows)", s.Table.Name, cols, s.Alias, s.Table.NumRows())
}

func tableSchema(t *catalog.Table, alias string) []string {
	out := make([]string, len(t.Schema.Columns))
	for i, c := range t.Schema.Columns {
		out[i] = alias + "." + c.Name
	}
	return out
}

// Bound is one end of an index scan's key range: an integer literal, or
// a $N placeholder whose value is read when the scan opens, so a cached
// plan never depends on the values it was first run with.
type Bound struct {
	// Param is the 1-based placeholder index; 0 means a literal.
	Param int
	// N is the literal, or what a strict comparison adds to the
	// parameter (col < $1 reads up to $1-1).
	N int64
}

func (b Bound) String() string {
	switch {
	case b.Param == 0:
		return strconv.FormatInt(b.N, 10)
	case b.N == 0:
		return fmt.Sprintf("$%d", b.Param)
	default:
		return fmt.Sprintf("$%d%+d", b.Param, b.N)
	}
}

// value resolves the bound against params. null reports a NULL
// parameter; ok is false when the bound is not an int64 key: the
// parameter is unbound, a float or a string, or adding N overflows.
func (b Bound) value(params []catalog.Value) (v int64, null, ok bool) {
	if b.Param == 0 {
		return b.N, false, true
	}
	if b.Param > len(params) {
		return 0, false, false
	}
	switch p := params[b.Param-1].(type) {
	case nil:
		return 0, true, true
	case int64:
		v = p + b.N
		if (b.N > 0 && v < p) || (b.N < 0 && v > p) {
			return 0, false, false
		}
		return v, false, true
	}
	return 0, false, false
}

// IndexFetch appends to dst the record ids of the rows whose indexed
// value lies in [lo, hi], in key order; the executor decodes the rows.
// It is an opaque closure so plan does not depend on a concrete index
// type.
type IndexFetch func(lo, hi int64, dst []storage.RecordID) ([]storage.RecordID, error)

// IndexScanNode reads a base table through a secondary index on one
// Int64 column, returning only rows with max(Lo) <= col <= min(Hi); a
// side without bounds is open. The filter above it still checks every
// conjunct, so the bounds only ever narrow what is read.
type IndexScanNode struct {
	Table *catalog.Table
	Alias string
	// Column is the indexed column's position.
	Column int
	Lo, Hi []Bound
	Fetch  IndexFetch
	// RowIDs and Needed are the replaced ScanNode's.
	RowIDs bool
	Needed []bool

	schema []string // the replaced ScanNode's
}

// Range fixes the key range for one execution. ok is false when some
// bound has no int64 value under params (see Bound.value): the caller
// must read the heap instead, which gives exactly the answer (or the
// comparison error) a plan without the index gives. A NULL parameter
// compares true with nothing, so it makes the range empty (lo > hi).
func (s *IndexScanNode) Range(params []catalog.Value) (lo, hi int64, ok bool) {
	lo, hi = math.MinInt64, math.MaxInt64
	anyNull := false
	for i, side := range [2][]Bound{s.Lo, s.Hi} {
		for _, b := range side {
			v, null, ok := b.value(params)
			switch {
			case !ok:
				return 0, 0, false
			case null:
				anyNull = true
			case i == 0:
				lo = max(lo, v)
			default:
				hi = min(hi, v)
			}
		}
	}
	if anyNull {
		return 1, 0, true
	}
	return lo, hi, true
}

// Schema implements Node, like ScanNode.Schema.
func (s *IndexScanNode) Schema() []string {
	if s.schema == nil {
		return tableSchema(s.Table, s.Alias)
	}
	return s.schema
}

// Children implements Node.
func (s *IndexScanNode) Children() []Node { return nil }

// Describe implements Node.
func (s *IndexScanNode) Describe() string {
	side := func(bs []Bound, fn, open string) string {
		switch len(bs) {
		case 0:
			return open
		case 1:
			return bs[0].String()
		}
		parts := make([]string, len(bs))
		for i, b := range bs {
			parts[i] = b.String()
		}
		return fn + "(" + strings.Join(parts, ", ") + ")"
	}
	return fmt.Sprintf("IndexScan %s.%s ∈ [%s, %s]", s.Alias, s.Table.Schema.Columns[s.Column].Name,
		side(s.Lo, "max", "-inf"), side(s.Hi, "min", "+inf"))
}

// BoundNode runs Input with Params bound to its $N placeholders, whatever
// the executor was given. It exists for plancache's legacy-key shim (see
// Cache.legacy) and goes with it; the engine never builds one.
type BoundNode struct {
	Input  Node
	Params []catalog.Value
}

// Schema implements Node.
func (b *BoundNode) Schema() []string { return b.Input.Schema() }

// Children implements Node.
func (b *BoundNode) Children() []Node { return []Node{b.Input} }

// Describe implements Node.
func (b *BoundNode) Describe() string { return fmt.Sprintf("Bound (%d parameters)", len(b.Params)) }

// VirtualScanNode reads a virtual (computed) table such as
// system.statements. The provider snapshots its rows when the scan
// opens; downstream operators see it exactly like any other source.
type VirtualScanNode struct {
	Table catalog.VirtualTable
	// Alias is the name the query refers to this table by.
	Alias string
}

// Schema implements Node.
func (s *VirtualScanNode) Schema() []string {
	cols := s.Table.Columns().Columns
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = s.Alias + "." + c.Name
	}
	return out
}

// Children implements Node.
func (s *VirtualScanNode) Children() []Node { return nil }

// Describe implements Node.
func (s *VirtualScanNode) Describe() string {
	return fmt.Sprintf("VirtualScan %s AS %s (~%d rows)", s.Table.Name(), s.Alias, s.Table.RowEstimate())
}

// FilterNode drops rows not satisfying Cond.
type FilterNode struct {
	Input Node
	Cond  sql.Expr
}

// Schema implements Node.
func (f *FilterNode) Schema() []string { return f.Input.Schema() }

// Children implements Node.
func (f *FilterNode) Children() []Node { return []Node{f.Input} }

// Describe implements Node.
func (f *FilterNode) Describe() string { return "Filter " + f.Cond.String() }

// JoinNode is an inner equi-join.
type JoinNode struct {
	Left, Right Node
	// LeftCol/RightCol are qualified column names in the child schemas.
	LeftCol, RightCol string

	// BuildSide, when non-zero, freezes the hash-join build side chosen
	// from cardinality estimates at plan time (BuildLeft or BuildRight).
	// The executor honours it without re-estimating, so a cached plan
	// carries its estimates with it and plan-cache hits never invoke an
	// estimator. Zero (BuildAuto) lets the executor estimate per run.
	BuildSide int
}

// BuildSide values for JoinNode.
const (
	BuildAuto  = 0
	BuildLeft  = 1
	BuildRight = 2
)

// AnnotateBuildSides walks the plan and freezes every hash join's build
// side using est (ties build left, matching the executor's default).
// Call it once at plan time, before caching: the estimates are computed
// here, stored on the nodes, and re-used by every execution of the
// cached plan.
func AnnotateBuildSides(n Node, est CardinalityEstimator) {
	if j, ok := n.(*JoinNode); ok {
		if EstimateRows(j.Right, est) < EstimateRows(j.Left, est) {
			j.BuildSide = BuildRight
		} else {
			j.BuildSide = BuildLeft
		}
	}
	for _, c := range n.Children() {
		AnnotateBuildSides(c, est)
	}
}

// Schema implements Node.
func (j *JoinNode) Schema() []string {
	return append(append([]string{}, j.Left.Schema()...), j.Right.Schema()...)
}

// Children implements Node.
func (j *JoinNode) Children() []Node { return []Node{j.Left, j.Right} }

// Describe implements Node.
func (j *JoinNode) Describe() string {
	return fmt.Sprintf("HashJoin %s = %s", j.LeftCol, j.RightCol)
}

// ProjectNode computes output expressions.
type ProjectNode struct {
	Input Node
	Items []sql.SelectItem
	names []string
}

// Schema implements Node.
func (p *ProjectNode) Schema() []string { return p.names }

// Children implements Node.
func (p *ProjectNode) Children() []Node { return []Node{p.Input} }

// Describe implements Node.
func (p *ProjectNode) Describe() string {
	parts := make([]string, len(p.Items))
	for i, it := range p.Items {
		parts[i] = it.Expr.String()
	}
	return "Project " + strings.Join(parts, ", ")
}

// AggregateNode groups and aggregates.
type AggregateNode struct {
	Input   Node
	GroupBy []sql.Expr
	Items   []sql.SelectItem
	names   []string
}

// Schema implements Node.
func (a *AggregateNode) Schema() []string { return a.names }

// Children implements Node.
func (a *AggregateNode) Children() []Node { return []Node{a.Input} }

// Describe implements Node.
func (a *AggregateNode) Describe() string {
	return fmt.Sprintf("Aggregate (%d groups keys, %d outputs)", len(a.GroupBy), len(a.Items))
}

// SortNode orders rows.
type SortNode struct {
	Input Node
	Keys  []sql.OrderItem
}

// Schema implements Node.
func (s *SortNode) Schema() []string { return s.Input.Schema() }

// Children implements Node.
func (s *SortNode) Children() []Node { return []Node{s.Input} }

// Describe implements Node.
func (s *SortNode) Describe() string { return fmt.Sprintf("Sort (%d keys)", len(s.Keys)) }

// LimitNode truncates output.
type LimitNode struct {
	Input Node
	N     int
}

// Schema implements Node.
func (l *LimitNode) Schema() []string { return l.Input.Schema() }

// Children implements Node.
func (l *LimitNode) Children() []Node { return []Node{l.Input} }

// Describe implements Node.
func (l *LimitNode) Describe() string { return fmt.Sprintf("Limit %d", l.N) }

// DistinctNode removes duplicate rows.
type DistinctNode struct{ Input Node }

// Schema implements Node.
func (d *DistinctNode) Schema() []string { return d.Input.Schema() }

// Children implements Node.
func (d *DistinctNode) Children() []Node { return []Node{d.Input} }

// Describe implements Node.
func (d *DistinctNode) Describe() string { return "Distinct" }

// Assignment is one SET clause of an UPDATE: Column's new value is
// Expr evaluated against the old row.
type Assignment struct {
	Column int
	Expr   sql.Expr
}

// ModifyNode is the root of an UPDATE or DELETE plan. Its input is a
// scan (under a filter when there is a WHERE) with RowIDs set; the
// executor collects every (record id, old row, new row) the input
// yields and applies them only once the input is exhausted without
// error, so a statement that fails changes nothing.
type ModifyNode struct {
	Input Node
	Table *catalog.Table
	// Set lists the assignments in column order; nil means DELETE.
	Set []Assignment
	// Deleted and Inserted, when set, are told of every heap change as it
	// is applied — the hook secondary indexes are kept in step through.
	Deleted, Inserted func(rid storage.RecordID, row catalog.Row)
}

// Kind names the statement kind the node implements.
func (m *ModifyNode) Kind() string {
	if m.Set == nil {
		return "DELETE"
	}
	return "UPDATE"
}

// Schema implements Node: DML returns no rows.
func (m *ModifyNode) Schema() []string { return nil }

// Children implements Node.
func (m *ModifyNode) Children() []Node { return []Node{m.Input} }

// Describe implements Node.
func (m *ModifyNode) Describe() string {
	if m.Set == nil {
		return "Delete " + m.Table.Name
	}
	parts := make([]string, len(m.Set))
	for i, a := range m.Set {
		parts[i] = m.Table.Schema.Columns[a.Column].Name + " = " + a.Expr.String()
	}
	return "Update " + m.Table.Name + " SET " + strings.Join(parts, ", ")
}

// BuildModify lowers a parsed UPDATE or DELETE into Modify(Filter(Scan)),
// the same source shape Build gives a single-table SELECT, so the same
// filter and index passes apply. A SET on an unknown column is an error.
func BuildModify(cat *catalog.Catalog, stmt sql.Statement) (*ModifyNode, error) {
	var table string
	var where sql.Expr
	var set map[string]sql.Expr
	switch s := stmt.(type) {
	case *sql.UpdateStmt:
		table, where, set = s.Table, s.Where, s.Set
	case *sql.DeleteStmt:
		table, where = s.Table, s.Where
	default:
		return nil, fmt.Errorf("plan: cannot build a modify plan for %T", stmt)
	}
	t, err := cat.Table(table)
	if err != nil {
		return nil, err
	}
	scan := NewScanNode(t, table)
	scan.RowIDs = true
	m := &ModifyNode{Input: scan, Table: t}
	if where != nil {
		m.Input = &FilterNode{Input: m.Input, Cond: where}
	}
	if set != nil {
		m.Set = make([]Assignment, 0, len(set))
		for col, e := range set {
			idx := t.Schema.ColIndex(col)
			if idx < 0 {
				return nil, fmt.Errorf("plan: UPDATE %s: unknown column %q", table, col)
			}
			m.Set = append(m.Set, Assignment{Column: idx, Expr: e})
		}
		sort.Slice(m.Set, func(i, j int) bool { return m.Set[i].Column < m.Set[j].Column })
	}
	return m, nil
}

// Build lowers a parsed SELECT into a left-deep logical plan in the order
// written (the optimizer packages may later reorder joins).
func Build(cat *catalog.Catalog, s *sql.SelectStmt) (Node, error) {
	root, err := buildSource(cat, s.Table, s.Alias)
	if err != nil {
		return nil, err
	}
	for _, j := range s.Joins {
		right, err := buildSource(cat, j.Table, j.Alias)
		if err != nil {
			return nil, err
		}
		lc, ok1 := j.On.Left.(*sql.ColumnRef)
		rc, ok2 := j.On.Right.(*sql.ColumnRef)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("plan: JOIN ON must compare two columns, got %s", j.On.String())
		}
		leftName, rightName := qualify(lc), qualify(rc)
		// If the "left" side actually belongs to the new table, swap.
		if refersTo(right.Schema(), leftName) && !refersTo(right.Schema(), rightName) {
			leftName, rightName = rightName, leftName
		}
		root = &JoinNode{Left: root, Right: right, LeftCol: leftName, RightCol: rightName}
	}
	if s.Where != nil {
		root = &FilterNode{Input: root, Cond: s.Where}
	}
	hasAgg := false
	for _, it := range s.Items {
		if exprHasAggregate(it.Expr) {
			hasAgg = true
			break
		}
	}
	if hasAgg || len(s.GroupBy) > 0 {
		agg := &AggregateNode{Input: root, GroupBy: s.GroupBy, Items: s.Items}
		agg.names = outputNames(s.Items)
		root = agg
		if s.Distinct {
			root = &DistinctNode{Input: root}
		}
		if len(s.OrderBy) > 0 {
			root = &SortNode{Input: root, Keys: s.OrderBy}
		}
		if s.Limit >= 0 {
			root = &LimitNode{Input: root, N: s.Limit}
		}
		return root, nil
	}
	if s.Distinct {
		// DISTINCT applies to projected output; sort and limit follow it.
		proj := &ProjectNode{Input: root, Items: s.Items}
		proj.names = outputNamesExpanded(s.Items, root.Schema())
		root = &DistinctNode{Input: proj}
		if len(s.OrderBy) > 0 {
			root = &SortNode{Input: root, Keys: s.OrderBy}
		}
		if s.Limit >= 0 {
			root = &LimitNode{Input: root, N: s.Limit}
		}
		return root, nil
	}
	// Plain query: sort and limit below the projection so ORDER BY may
	// reference non-projected columns (standard SQL behaviour).
	if len(s.OrderBy) > 0 {
		root = &SortNode{Input: root, Keys: s.OrderBy}
	}
	if s.Limit >= 0 {
		root = &LimitNode{Input: root, N: s.Limit}
	}
	proj := &ProjectNode{Input: root, Items: s.Items}
	proj.names = outputNamesExpanded(s.Items, root.Schema())
	return proj, nil
}

// buildSource resolves one FROM/JOIN table reference to its scan node:
// heap tables win, then the virtual-table namespace (system.*). The
// default alias is the name as written, so bare column references over
// "system.statements" resolve by suffix match like any other table.
func buildSource(cat *catalog.Catalog, name, alias string) (Node, error) {
	if alias == "" {
		alias = name
	}
	if t, err := cat.Table(name); err == nil {
		return NewScanNode(t, alias), nil
	} else if vt, verr := cat.Virtual(name); verr == nil {
		return &VirtualScanNode{Table: vt, Alias: alias}, nil
	} else {
		return nil, err
	}
}

func qualify(c *sql.ColumnRef) string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

// refersTo reports whether name resolves against schema (exact qualified
// match or suffix match).
func refersTo(schema []string, name string) bool {
	_, matches := ResolveColumn(schema, "", name)
	return matches > 0
}

// ResolveColumn finds the schema name a column reference denotes: the
// name itself ([table.]column) or any name ending in "."+that. It
// returns the position of the first match and how many names matched, so
// the caller tells unknown (0) from ambiguous (>1). It is the one name
// resolver: the planner's column pass and the executor's binder both call
// it, so they cannot disagree about which ordinal a reference reads.
func ResolveColumn(schema []string, table, column string) (idx, matches int) {
	for i, n := range schema {
		if nameEndsIn(n, table, column) {
			if matches == 0 {
				idx = i
			}
			matches++
		}
	}
	return idx, matches
}

// nameEndsIn reports whether n is [table.]column or ends in "." plus
// that, without building the string to compare with.
func nameEndsIn(n, table, column string) bool {
	if !strings.HasSuffix(n, column) {
		return false
	}
	n = n[:len(n)-len(column)]
	if table != "" {
		if !strings.HasSuffix(n, ".") || !strings.HasSuffix(n[:len(n)-1], table) {
			return false
		}
		n = n[:len(n)-1-len(table)]
	}
	return n == "" || n[len(n)-1] == '.'
}

func exprHasAggregate(e sql.Expr) bool {
	switch v := e.(type) {
	case *sql.FuncCall:
		switch v.Name {
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			return true
		}
		for _, a := range v.Args {
			if exprHasAggregate(a) {
				return true
			}
		}
	case *sql.BinaryExpr:
		return exprHasAggregate(v.Left) || exprHasAggregate(v.Right)
	case *sql.NotExpr:
		return exprHasAggregate(v.Inner)
	}
	return false
}

func outputNames(items []sql.SelectItem) []string {
	out := make([]string, len(items))
	for i, it := range items {
		if it.Alias != "" {
			out[i] = it.Alias
		} else {
			out[i] = it.Expr.String()
		}
	}
	return out
}

// outputNamesExpanded handles * by splicing in the input schema.
func outputNamesExpanded(items []sql.SelectItem, inSchema []string) []string {
	var out []string
	for _, it := range items {
		if _, ok := it.Expr.(*sql.Star); ok {
			out = append(out, inSchema...)
			continue
		}
		if it.Alias != "" {
			out = append(out, it.Alias)
		} else {
			out = append(out, it.Expr.String())
		}
	}
	return out
}

// Explain renders the plan tree with indentation.
func Explain(n Node) string {
	var sb strings.Builder
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.Describe())
		sb.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return sb.String()
}

// Fingerprint renders the plan's canonical shape string — operator
// kinds, base tables and join keys, but no cardinalities or constants —
// so repeated executions of the same plan shape collapse to one key in
// the slow-query log and workload-capture tooling.
func Fingerprint(n Node) string {
	var sb strings.Builder
	var walk func(n Node)
	walk = func(n Node) {
		switch v := n.(type) {
		case *ScanNode:
			fmt.Fprintf(&sb, "Scan(%s)", v.Table.Name)
			return
		case *IndexScanNode:
			fmt.Fprintf(&sb, "IndexScan(%s.%s)", v.Table.Name, v.Table.Schema.Columns[v.Column].Name)
			return
		case *VirtualScanNode:
			fmt.Fprintf(&sb, "VirtualScan(%s)", v.Table.Name())
			return
		case *FilterNode:
			sb.WriteString("Filter")
		case *JoinNode:
			fmt.Fprintf(&sb, "HashJoin[%s=%s]", v.LeftCol, v.RightCol)
		case *ProjectNode:
			sb.WriteString("Project")
		case *AggregateNode:
			sb.WriteString("Aggregate")
		case *SortNode:
			sb.WriteString("Sort")
		case *LimitNode:
			sb.WriteString("Limit")
		case *DistinctNode:
			sb.WriteString("Distinct")
		case *ModifyNode:
			sb.WriteString(v.Kind())
		default:
			fmt.Fprintf(&sb, "%T", n)
		}
		sb.WriteByte('(')
		for i, c := range n.Children() {
			if i > 0 {
				sb.WriteByte(',')
			}
			walk(c)
		}
		sb.WriteByte(')')
	}
	if n == nil {
		return ""
	}
	walk(n)
	return sb.String()
}

// Summary walks the plan and reports its operator count and depth —
// cheap shape tags for query-path tracing.
func Summary(n Node) (nodes, depth int) {
	if n == nil {
		return 0, 0
	}
	nodes, depth = 1, 1
	for _, c := range n.Children() {
		cn, cd := Summary(c)
		nodes += cn
		if cd+1 > depth {
			depth = cd + 1
		}
	}
	return nodes, depth
}

package plan

import "aidb/internal/sql"

// Filter placement: Build puts a query's whole WHERE above its joins.
// A conjunct that reads one join input only is true or false of that
// input's row whatever it joins with, so it runs on the input — fused
// into that scan, able to take an index — and the join sees what is
// left.

// placeFilters works top-down, so a conjunct sunk into a join input that
// is itself a join is placed again when the walk reaches that input. A
// plan without a filter over a join is walked and left alone.
func placeFilters(n Node) Node {
	if f, ok := n.(*FilterNode); ok {
		if j, ok := f.Input.(*JoinNode); ok {
			n = sinkIntoJoin(f, j)
		}
	}
	if f, ok := n.(*FilterNode); ok {
		f.Cond = ReorderConjuncts(f.Cond)
	}
	rewriteChildren(n, placeFilters)
	return n
}

// Where a conjunct of a filter over a join belongs.
const (
	sideStay = iota
	sideLeft
	sideRight
)

// sinkIntoJoin moves every conjunct of f that reads columns of only one
// input of the inner join j into a filter on that input, and returns
// what is left on top: f with the remaining conjuncts, or j itself.
func sinkIntoJoin(f *FilterNode, j *JoinNode) Node {
	left, right := j.Left.Schema(), j.Right.Schema()
	var parts [3][]sql.Expr
	for _, c := range splitAnd(f.Cond) {
		s := conjunctSide(c, left, right)
		parts[s] = append(parts[s], c)
	}
	if len(parts[sideLeft]) > 0 {
		j.Left = &FilterNode{Input: j.Left, Cond: andOf(parts[sideLeft])}
	}
	if len(parts[sideRight]) > 0 {
		j.Right = &FilterNode{Input: j.Right, Cond: andOf(parts[sideRight])}
	}
	if len(parts[sideStay]) == 0 {
		return j
	}
	if len(parts[sideLeft])+len(parts[sideRight]) > 0 {
		f.Cond = andOf(parts[sideStay])
	}
	return f
}

// conjunctSide says which join input a conjunct can be evaluated on. It
// stays above the join when it reads both inputs or none, when a column
// it names is unknown or ambiguous (the executor's binder reports that,
// from where the query put it), and when it invokes a model: the join
// is the cheaper filter, so PREDICT runs on what survives it.
func conjunctSide(c sql.Expr, left, right []string) int {
	if ExprCost(c) >= modelCost {
		return sideStay
	}
	side, mixed := sideStay, false
	sql.WalkExpr(c, func(e sql.Expr) {
		ref, ok := e.(*sql.ColumnRef)
		if !ok {
			return
		}
		_, l := ResolveColumn(left, ref.Table, ref.Column)
		_, r := ResolveColumn(right, ref.Table, ref.Column)
		s := sideLeft
		if r == 1 {
			s = sideRight
		}
		if l+r != 1 || (side != sideStay && side != s) {
			mixed = true
		}
		side = s
	})
	if mixed {
		return sideStay
	}
	return side
}

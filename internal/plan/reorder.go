package plan

import (
	"sort"

	"aidb/internal/sql"
)

// This file implements the AI-operator part of the paper's §2.3 "AI
// optimizer" challenge inside the real query engine, as the baseline
// rule-based rewriter: a filter's conjuncts are placed as low in the
// plan as the columns they read allow (below inner joins, next to the
// scan they restrict), and within a filter cheap relational predicates
// run before PREDICT() calls. Combined with the executor's
// short-circuit AND evaluation, this *is* AI-operator pushdown: the model
// only runs on rows that survive the cheap predicates and the join.

// modelCost is what ExprCost charges one model invocation.
const modelCost = 1000

// ExprCost estimates the evaluation cost of an expression. Scalar model
// invocations dominate everything else by orders of magnitude.
func ExprCost(e sql.Expr) float64 {
	switch v := e.(type) {
	case *sql.FuncCall:
		c := 1.0
		if v.Name == "PREDICT" || v.Name == "PREDICT_PROBA" {
			c = modelCost
		}
		for _, a := range v.Args {
			c += ExprCost(a)
		}
		return c
	case *sql.BinaryExpr:
		return 1 + ExprCost(v.Left) + ExprCost(v.Right)
	case *sql.NotExpr:
		return 1 + ExprCost(v.Inner)
	case *sql.BetweenExpr:
		return 1 + ExprCost(v.Subject) + ExprCost(v.Lo) + ExprCost(v.Hi)
	default:
		return 0.5
	}
}

// ReorderConjuncts rewrites a conjunctive condition so cheaper conjuncts
// run first (stable for equal costs, so relational predicate order is
// preserved). Non-AND expressions, and conjunctions already in cost
// order, are returned unchanged.
func ReorderConjuncts(e sql.Expr) sql.Expr {
	b, ok := e.(*sql.BinaryExpr)
	if !ok || b.Op != "AND" {
		return e
	}
	conjuncts := splitAnd(e)
	cheaper := func(i, j int) bool { return ExprCost(conjuncts[i]) < ExprCost(conjuncts[j]) }
	if sort.SliceIsSorted(conjuncts, cheaper) {
		return e
	}
	sort.SliceStable(conjuncts, cheaper)
	return andOf(conjuncts)
}

func splitAnd(e sql.Expr) []sql.Expr {
	if b, ok := e.(*sql.BinaryExpr); ok && b.Op == "AND" {
		return append(splitAnd(b.Left), splitAnd(b.Right)...)
	}
	return []sql.Expr{e}
}

// andOf is the left-deep conjunction of one or more expressions.
func andOf(conjuncts []sql.Expr) sql.Expr {
	out := conjuncts[0]
	for _, c := range conjuncts[1:] {
		out = &sql.BinaryExpr{Op: "AND", Left: out, Right: c}
	}
	return out
}

// rewriteChildren replaces every input of n by fn(input), in place. It
// is the one switch that knows where each node kind keeps its inputs;
// the planner passes are written against it.
func rewriteChildren(n Node, fn func(Node) Node) {
	switch v := n.(type) {
	case *FilterNode:
		v.Input = fn(v.Input)
	case *JoinNode:
		v.Left, v.Right = fn(v.Left), fn(v.Right)
	case *ProjectNode:
		v.Input = fn(v.Input)
	case *AggregateNode:
		v.Input = fn(v.Input)
	case *SortNode:
		v.Input = fn(v.Input)
	case *LimitNode:
		v.Input = fn(v.Input)
	case *DistinctNode:
		v.Input = fn(v.Input)
	case *ModifyNode:
		v.Input = fn(v.Input)
	}
}

// OptimizeFilters is the rule-based rewrite every plan gets before an
// access path is chosen: it places each filter conjunct as low as its
// columns allow, orders the conjuncts of every filter by cost, and then
// records on each heap scan which columns the plan above it reads (see
// needColumns). It rewrites n in place and returns the new root. Running
// before UseIndexes and AnnotateBuildSides is what lets a join input take
// an index path and the build side be chosen from the filtered inputs.
func OptimizeFilters(n Node) Node {
	n = placeFilters(n)
	needColumns(n, nil, nil)
	return n
}

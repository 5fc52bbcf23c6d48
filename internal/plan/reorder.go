package plan

import (
	"sort"

	"aidb/internal/sql"
)

// This file implements the AI-operator part of the paper's §2.3 "AI
// optimizer" challenge inside the real query engine: PREDICT() calls are
// expensive operators, so conjunctive filters are reordered to evaluate
// cheap relational predicates first. Combined with the executor's
// short-circuit AND evaluation, this *is* AI-operator pushdown: the model
// only runs on rows that survive the cheap predicates.

// ExprCost estimates the evaluation cost of an expression. Scalar model
// invocations dominate everything else by orders of magnitude.
func ExprCost(e sql.Expr) float64 {
	switch v := e.(type) {
	case *sql.FuncCall:
		c := 1.0
		if v.Name == "PREDICT" || v.Name == "PREDICT_PROBA" {
			c = 1000 // model invocation
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
// preserved). Non-AND expressions are returned unchanged.
func ReorderConjuncts(e sql.Expr) sql.Expr {
	b, ok := e.(*sql.BinaryExpr)
	if !ok || b.Op != "AND" {
		return e
	}
	conjuncts := splitAnd(e)
	if len(conjuncts) < 2 {
		return e
	}
	sort.SliceStable(conjuncts, func(i, j int) bool {
		return ExprCost(conjuncts[i]) < ExprCost(conjuncts[j])
	})
	out := conjuncts[0]
	for _, c := range conjuncts[1:] {
		out = &sql.BinaryExpr{Op: "AND", Left: out, Right: c}
	}
	return out
}

func splitAnd(e sql.Expr) []sql.Expr {
	if b, ok := e.(*sql.BinaryExpr); ok && b.Op == "AND" {
		return append(splitAnd(b.Left), splitAnd(b.Right)...)
	}
	return []sql.Expr{e}
}

// OptimizeFilters walks a plan and reorders every filter's conjunction.
func OptimizeFilters(n Node) Node {
	switch v := n.(type) {
	case *FilterNode:
		v.Input = OptimizeFilters(v.Input)
		v.Cond = ReorderConjuncts(v.Cond)
		return v
	case *JoinNode:
		v.Left = OptimizeFilters(v.Left)
		v.Right = OptimizeFilters(v.Right)
		return v
	case *ProjectNode:
		v.Input = OptimizeFilters(v.Input)
		return v
	case *AggregateNode:
		v.Input = OptimizeFilters(v.Input)
		return v
	case *SortNode:
		v.Input = OptimizeFilters(v.Input)
		return v
	case *LimitNode:
		v.Input = OptimizeFilters(v.Input)
		return v
	case *DistinctNode:
		v.Input = OptimizeFilters(v.Input)
		return v
	case *ModifyNode:
		v.Input = OptimizeFilters(v.Input)
		return v
	default:
		return n
	}
}

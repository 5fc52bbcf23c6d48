package plan

import (
	"testing"

	"aidb/internal/sql"
)

func parseWhere(t *testing.T, cond string) sql.Expr {
	t.Helper()
	stmt, err := sql.Parse("SELECT * FROM t WHERE " + cond)
	if err != nil {
		t.Fatal(err)
	}
	return stmt.(*sql.SelectStmt).Where
}

func TestExprCostRanksPredictHighest(t *testing.T) {
	cheap := parseWhere(t, "a > 5")
	pred := parseWhere(t, "PREDICT(m, a, b) = 1")
	if ExprCost(pred) <= ExprCost(cheap)*10 {
		t.Errorf("PREDICT cost %v should dwarf comparison cost %v", ExprCost(pred), ExprCost(cheap))
	}
}

func TestReorderPutsModelLast(t *testing.T) {
	e := parseWhere(t, "PREDICT(m, a, b) = 1 AND a > 5 AND c = 2")
	out := ReorderConjuncts(e)
	// The last conjunct (right-most in the left-deep AND) must be the
	// PREDICT one.
	b, ok := out.(*sql.BinaryExpr)
	if !ok || b.Op != "AND" {
		t.Fatalf("reordered root = %v", out)
	}
	if ExprCost(b.Right) < 1000 {
		t.Errorf("most expensive conjunct should be last, got %s", b.Right.String())
	}
}

func TestReorderPreservesConjunctSet(t *testing.T) {
	e := parseWhere(t, "a = 1 AND PREDICT(m, a) = 1 AND b = 2")
	before := map[string]bool{}
	for _, c := range Conjuncts(e) {
		before[c.String()] = true
	}
	out := ReorderConjuncts(e)
	after := Conjuncts(out)
	if len(after) != len(before) {
		t.Fatalf("conjunct count changed: %d vs %d", len(after), len(before))
	}
	for _, c := range after {
		if !before[c.String()] {
			t.Errorf("unexpected conjunct %s", c.String())
		}
	}
}

func TestReorderStableForEqualCosts(t *testing.T) {
	e := parseWhere(t, "a = 1 AND b = 2 AND c = 3")
	out := ReorderConjuncts(e)
	if out.String() != e.String() {
		t.Errorf("equal-cost conjuncts reordered: %s vs %s", out.String(), e.String())
	}
}

func TestReorderNonConjunction(t *testing.T) {
	e := parseWhere(t, "a = 1 OR PREDICT(m, a) = 1")
	if out := ReorderConjuncts(e); out != e {
		t.Error("OR expressions must pass through unchanged")
	}
}

func TestOptimizeFiltersWalksTree(t *testing.T) {
	c := buildCatalog(t)
	p := buildPlan(t, c, "SELECT id FROM users WHERE PREDICT(m, age) = 1 AND age > 10 ORDER BY id LIMIT 5")
	p = OptimizeFilters(p)
	var filter *FilterNode
	var walk func(n Node)
	walk = func(n Node) {
		if f, ok := n.(*FilterNode); ok {
			filter = f
		}
		for _, ch := range n.Children() {
			walk(ch)
		}
	}
	walk(p)
	if filter == nil {
		t.Fatal("no filter found")
	}
	b := filter.Cond.(*sql.BinaryExpr)
	if ExprCost(b.Right) < 1000 {
		t.Errorf("filter not reordered: %s", filter.Cond.String())
	}
}

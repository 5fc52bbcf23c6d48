package plan

import (
	"strings"
	"testing"

	"aidb/internal/catalog"
	"aidb/internal/sql"
)

// placeCatalog adds a third table (with an id of its own, so "id" is
// ambiguous in a join) to buildCatalog's users and orders.
func placeCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := buildCatalog(t)
	if _, err := c.CreateTable("items", catalog.Schema{Columns: []catalog.Column{
		{Name: "id", Type: catalog.Int64},
		{Name: "order_uid", Type: catalog.Int64},
		{Name: "qty", Type: catalog.Int64},
	}}); err != nil {
		t.Fatal(err)
	}
	return c
}

// optimized is the plan's EXPLAIN rendering after OptimizeFilters.
func optimized(t *testing.T, c *catalog.Catalog, q string) string {
	t.Helper()
	return "\n" + Explain(OptimizeFilters(buildPlan(t, c, q)))
}

func TestFiltersArePlacedBelowJoins(t *testing.T) {
	c := placeCatalog(t)
	const two = "FROM users JOIN orders ON users.id = orders.uid "
	const three = two + "JOIN items ON orders.uid = items.order_uid "
	for _, tc := range []struct{ name, query, want string }{
		{"one conjunct per side", "SELECT age " + two + "WHERE amount > 5 AND users.age = 30", `
Project age
  HashJoin users.id = orders.uid
    Filter (users.age = 30)
      Scan users [id, age] AS users (100 rows)
    Filter (amount > 5)
      Scan orders [uid, amount] AS orders (100 rows)
`},
		{"cross-side conjunct stays, the rest sink", "SELECT age " + two + "WHERE age < amount AND age > 3 AND age < 40", `
Project age
  Filter (age < amount)
    HashJoin users.id = orders.uid
      Filter ((age > 3) AND (age < 40))
        Scan users [id, age] AS users (100 rows)
      Scan orders [uid, amount] AS orders (100 rows)
`},
		{"a disjunction over both sides stays whole", "SELECT age " + two + "WHERE (age < 5 OR amount > 90) AND uid = 3", `
Project age
  Filter ((age < 5) OR (amount > 90))
    HashJoin users.id = orders.uid
      Scan users [id, age] AS users (100 rows)
      Filter (uid = 3)
        Scan orders [uid, amount] AS orders (100 rows)
`},
		{"model calls, ambiguous and unknown names, and constants stay", "SELECT age " + three +
			"WHERE PREDICT(m, age) = 1 AND id = 2 AND ghost = 1 AND 1 = 1 AND qty = 4", `
Project age
  Filter ((((id = 2) AND (ghost = 1)) AND (1 = 1)) AND (PREDICT(m, age) = 1))
    HashJoin orders.uid = items.order_uid
      HashJoin users.id = orders.uid
        Scan users [id, age] AS users (100 rows)
        Scan orders [uid] AS orders (100 rows)
      Filter (qty = 4)
        Scan items [order_uid, qty] AS items (0 rows)
`},
		{"through left-deep joins to the first table", "SELECT qty " + three + "WHERE users.age = 7 AND amount > age AND items.qty < 3", `
Project qty
  HashJoin orders.uid = items.order_uid
    Filter (amount > age)
      HashJoin users.id = orders.uid
        Filter (users.age = 7)
          Scan users [id, age] AS users (100 rows)
        Scan orders [uid, amount] AS orders (100 rows)
    Filter (items.qty < 3)
      Scan items [order_uid, qty] AS items (0 rows)
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := optimized(t, c, tc.query); got != tc.want {
				t.Errorf("plan:%s\nwant:%s", got, tc.want)
			}
		})
	}

	// The rewrite is idempotent: what cannot sink the first time stays.
	p := OptimizeFilters(buildPlan(t, c, "SELECT age "+two+"WHERE age < amount AND age > 3"))
	once := Explain(p)
	if twice := Explain(OptimizeFilters(p)); twice != once {
		t.Errorf("second pass changed the plan:\n%s\nto:\n%s", once, twice)
	}
}

func TestBuildSideComesFromFilteredInputs(t *testing.T) {
	c := buildCatalog(t)
	// Unfiltered, the tables tie at 100 rows and the join builds left;
	// with orders cut to uid = 3 (about a tenth) it is the smaller input.
	for q, want := range map[string]int{
		"SELECT age FROM users JOIN orders ON users.id = orders.uid":               BuildLeft,
		"SELECT age FROM users JOIN orders ON users.id = orders.uid WHERE uid = 3": BuildRight,
		"SELECT age FROM users JOIN orders ON users.id = orders.uid WHERE age = 3": BuildLeft,
	} {
		p := OptimizeFilters(buildPlan(t, c, q))
		AnnotateBuildSides(p, HistogramEstimator{})
		var join *JoinNode
		for n := p; join == nil; n = n.Children()[0] {
			join, _ = n.(*JoinNode)
		}
		if join.BuildSide != want {
			t.Errorf("%s: build side %d, want %d", q, join.BuildSide, want)
		}
	}
}

func TestScansRecordTheColumnsRead(t *testing.T) {
	c := placeCatalog(t)
	for q, want := range map[string]string{
		"SELECT * FROM items WHERE qty > 1":                         "Scan items AS items",
		"SELECT DISTINCT * FROM items":                              "Scan items AS items",
		"SELECT COUNT(*) FROM items":                                "Scan items [] AS items",
		"SELECT COUNT(*) FROM items WHERE qty > 1":                  "Scan items [qty] AS items",
		"SELECT id FROM items ORDER BY qty LIMIT 3":                 "Scan items [id, qty] AS items",
		"SELECT DISTINCT qty FROM items":                            "Scan items [qty] AS items",
		"SELECT qty, SUM(id) FROM items GROUP BY qty":               "Scan items [id, qty] AS items",
		"SELECT MAX(order_uid + 1) FROM items":                      "Scan items [order_uid] AS items",
		"SELECT ghost FROM items WHERE qty IN (1, 2)":               "Scan items [qty] AS items",
		"SELECT i.qty FROM items i WHERE i.id BETWEEN 1 AND qty":    "Scan items [id, qty] AS i",
		"SELECT PREDICT(m, qty) FROM items WHERE NOT order_uid = 2": "Scan items [order_uid, qty] AS items",
	} {
		got := optimized(t, c, q)
		if !containsLine(got, want+" (0 rows)") {
			t.Errorf("%s\nplan:%s\nwant a line: %s", q, got, want)
		}
	}
	m, err := BuildModify(c, mustParseStmt(t, "UPDATE items SET qty = 1 WHERE id = 2"))
	if err != nil {
		t.Fatal(err)
	}
	if got := "\n" + Explain(OptimizeFilters(m)); !containsLine(got, "Scan items AS items (0 rows)") {
		t.Errorf("an UPDATE must read whole rows:%s", got)
	}
}

func TestResolveColumn(t *testing.T) {
	schema := []string{"u.id", "u.age", "o.id", "system.statements.calls", "total"}
	for _, tc := range []struct {
		table, column string
		idx, matches  int
	}{
		{"", "age", 1, 1},
		{"u", "age", 1, 1},
		{"", "id", 0, 2},
		{"o", "id", 2, 1},
		{"", "ge", 0, 0}, // a suffix of a name is not a name
		{"", "u.age", 1, 1},
		{"x", "age", 0, 0},
		{"", "calls", 3, 1},
		{"statements", "calls", 3, 1},
		{"system.statements", "calls", 3, 1},
		{"tatements", "calls", 0, 0},
		{"", "total", 4, 1},
		{"t", "total", 0, 0},
	} {
		if idx, n := ResolveColumn(schema, tc.table, tc.column); n != tc.matches || (n > 0 && idx != tc.idx) {
			t.Errorf("ResolveColumn(%q, %q) = %d, %d; want %d, %d", tc.table, tc.column, idx, n, tc.idx, tc.matches)
		}
	}
}

func containsLine(text, line string) bool {
	for _, l := range strings.Split(text, "\n") {
		if strings.TrimSpace(l) == line {
			return true
		}
	}
	return false
}

func mustParseStmt(t *testing.T, q string) sql.Statement {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

package exec

import (
	"strings"
	"testing"

	"aidb/internal/catalog"
	"aidb/internal/plan"
	"aidb/internal/sql"
	"aidb/internal/storage"
)

// setup creates a small orders/users database.
func setup(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.NewMem()
	users, err := c.CreateTable("users", catalog.Schema{Columns: []catalog.Column{
		{Name: "id", Type: catalog.Int64},
		{Name: "age", Type: catalog.Int64},
		{Name: "name", Type: catalog.String},
	}})
	if err != nil {
		t.Fatal(err)
	}
	orders, err := c.CreateTable("orders", catalog.Schema{Columns: []catalog.Column{
		{Name: "oid", Type: catalog.Int64},
		{Name: "uid", Type: catalog.Int64},
		{Name: "amount", Type: catalog.Float64},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		users.Insert(catalog.Row{i, 20 + i, "user" + strings.Repeat("x", int(i))})
	}
	for i := int64(1); i <= 10; i++ {
		orders.Insert(catalog.Row{i, i%5 + 1, float64(i) * 10})
	}
	return c
}

// heapRows reads every live row of tab through ScanPages.
func heapRows(t testing.TB, tab *catalog.Table) []catalog.Row {
	t.Helper()
	var rows []catalog.Row
	if err := tab.ScanPages(tab.PageIDs(), func(_ storage.RecordID, r catalog.Row) bool {
		rows = append(rows, r)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

func run(t *testing.T, c *catalog.Catalog, q string) *Result {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	p, err := plan.Build(c, stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	res, err := New(nil).Run(p)
	if err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
	return res
}

func TestSelectStar(t *testing.T) {
	c := setup(t)
	res := run(t, c, "SELECT * FROM users")
	if len(res.Rows) != 5 || len(res.Columns) != 3 {
		t.Fatalf("rows=%d cols=%d", len(res.Rows), len(res.Columns))
	}
}

func TestFilter(t *testing.T) {
	c := setup(t)
	res := run(t, c, "SELECT id FROM users WHERE age > 23")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestFilterAndOrNot(t *testing.T) {
	c := setup(t)
	res := run(t, c, "SELECT id FROM users WHERE age = 21 OR age = 25")
	if len(res.Rows) != 2 {
		t.Errorf("OR rows = %d, want 2", len(res.Rows))
	}
	res = run(t, c, "SELECT id FROM users WHERE NOT age = 21")
	if len(res.Rows) != 4 {
		t.Errorf("NOT rows = %d, want 4", len(res.Rows))
	}
	res = run(t, c, "SELECT id FROM users WHERE age BETWEEN 22 AND 24")
	if len(res.Rows) != 3 {
		t.Errorf("BETWEEN rows = %d, want 3", len(res.Rows))
	}
}

func TestProjectionExpression(t *testing.T) {
	c := setup(t)
	res := run(t, c, "SELECT id * 2 + 1 FROM users WHERE id = 3")
	if len(res.Rows) != 1 || res.Rows[0][0].(int64) != 7 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestJoin(t *testing.T) {
	c := setup(t)
	res := run(t, c, "SELECT users.name, orders.amount FROM orders JOIN users ON orders.uid = users.id")
	if len(res.Rows) != 10 {
		t.Fatalf("join rows = %d, want 10", len(res.Rows))
	}
}

func TestJoinWithFilter(t *testing.T) {
	c := setup(t)
	res := run(t, c, "SELECT orders.oid FROM orders JOIN users ON orders.uid = users.id WHERE users.age > 23")
	// users with age>23: ids 4,5. orders with uid in {4,5}: oid 3,4,8,9.
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestAggregates(t *testing.T) {
	c := setup(t)
	res := run(t, c, "SELECT COUNT(*), SUM(amount), AVG(amount), MIN(amount), MAX(amount) FROM orders")
	if len(res.Rows) != 1 {
		t.Fatal("expected one row")
	}
	r := res.Rows[0]
	if r[0].(int64) != 10 {
		t.Errorf("count = %v", r[0])
	}
	if r[1].(float64) != 550 {
		t.Errorf("sum = %v", r[1])
	}
	if r[2].(float64) != 55 {
		t.Errorf("avg = %v", r[2])
	}
	if r[3].(float64) != 10 || r[4].(float64) != 100 {
		t.Errorf("min/max = %v/%v", r[3], r[4])
	}
}

func TestGroupBy(t *testing.T) {
	c := setup(t)
	res := run(t, c, "SELECT uid, COUNT(*) FROM orders GROUP BY uid")
	if len(res.Rows) != 5 {
		t.Fatalf("groups = %d, want 5", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[1].(int64) != 2 {
			t.Errorf("group %v count = %v, want 2", r[0], r[1])
		}
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	c := setup(t)
	res := run(t, c, "SELECT COUNT(*) FROM users WHERE age > 1000")
	if len(res.Rows) != 1 || res.Rows[0][0].(int64) != 0 {
		t.Fatalf("rows = %v, want single 0", res.Rows)
	}
}

func TestOrderByLimit(t *testing.T) {
	c := setup(t)
	res := run(t, c, "SELECT oid FROM orders ORDER BY amount DESC LIMIT 3")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].(int64) != 10 || res.Rows[2][0].(int64) != 8 {
		t.Errorf("order wrong: %v", res.Rows)
	}
}

func TestOrderByAscStable(t *testing.T) {
	c := setup(t)
	res := run(t, c, "SELECT uid FROM orders ORDER BY uid")
	prev := int64(-1)
	for _, r := range res.Rows {
		v := r[0].(int64)
		if v < prev {
			t.Fatalf("not sorted: %v", res.Rows)
		}
		prev = v
	}
}

func TestDistinct(t *testing.T) {
	c := setup(t)
	res := run(t, c, "SELECT DISTINCT uid FROM orders")
	if len(res.Rows) != 5 {
		t.Fatalf("distinct rows = %d, want 5", len(res.Rows))
	}
}

func TestScalarFunctionRegistry(t *testing.T) {
	c := setup(t)
	stmt, _ := sql.Parse("SELECT DOUBLE(id) FROM users WHERE id = 2")
	p, err := plan.Build(c, stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	ex := New(FuncRegistry{
		"DOUBLE": func(args []catalog.Value) (catalog.Value, error) {
			return args[0].(int64) * 2, nil
		},
	})
	res, err := ex.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 4 {
		t.Errorf("DOUBLE(2) = %v", res.Rows[0][0])
	}
}

func TestUnknownFunctionError(t *testing.T) {
	c := setup(t)
	stmt, _ := sql.Parse("SELECT NOSUCH(id) FROM users")
	p, err := plan.Build(c, stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(nil).Run(p); err == nil {
		t.Error("expected unknown-function error")
	}
}

func TestUnknownColumnError(t *testing.T) {
	c := setup(t)
	stmt, _ := sql.Parse("SELECT nope FROM users")
	p, err := plan.Build(c, stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(nil).Run(p); err == nil {
		t.Error("expected unknown-column error")
	}
}

func TestAmbiguousColumnError(t *testing.T) {
	c := setup(t)
	// orders.uid and users.id both end in "id"? No — test a truly
	// ambiguous case: join users with itself via alias is unsupported, so
	// instead check that an unqualified column appearing in both tables
	// errors. Add a shared column name first.
	tab, _ := c.CreateTable("dup", catalog.Schema{Columns: []catalog.Column{
		{Name: "id", Type: catalog.Int64},
		{Name: "uid", Type: catalog.Int64},
	}})
	tab.Insert(catalog.Row{int64(1), int64(1)})
	stmt, _ := sql.Parse("SELECT id FROM users JOIN dup ON users.id = dup.uid")
	p, err := plan.Build(c, stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(nil).Run(p); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("err = %v, want ambiguous-column error", err)
	}
}

func TestDivisionByZero(t *testing.T) {
	c := setup(t)
	stmt, _ := sql.Parse("SELECT id / 0 FROM users")
	p, _ := plan.Build(c, stmt.(*sql.SelectStmt))
	if _, err := New(nil).Run(p); err == nil {
		t.Error("expected division-by-zero error")
	}
}

func TestExplainOutput(t *testing.T) {
	c := setup(t)
	stmt, _ := sql.Parse("SELECT id FROM users WHERE age > 23 ORDER BY id LIMIT 2")
	p, _ := plan.Build(c, stmt.(*sql.SelectStmt))
	out := plan.Explain(p)
	for _, want := range []string{"Limit 2", "Sort", "Project", "Filter", "Scan users"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

func TestCostModelOrdersPlans(t *testing.T) {
	c := setup(t)
	users, _ := c.Table("users")
	if err := users.Analyze(8, 4); err != nil {
		t.Fatal(err)
	}
	narrow, _ := sql.Parse("SELECT * FROM users WHERE age = 21")
	wide, _ := sql.Parse("SELECT * FROM users")
	pn, _ := plan.Build(c, narrow.(*sql.SelectStmt))
	pw, _ := plan.Build(c, wide.(*sql.SelectStmt))
	est := plan.HistogramEstimator{}
	if plan.EstimateRows(pn, est) >= plan.EstimateRows(pw, est) {
		t.Error("filtered plan should estimate fewer rows than full scan")
	}
}

func TestStringComparison(t *testing.T) {
	c := setup(t)
	res := run(t, c, "SELECT id FROM users WHERE name = 'userx'")
	if len(res.Rows) != 1 || res.Rows[0][0].(int64) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestFloatIntComparison(t *testing.T) {
	c := setup(t)
	res := run(t, c, "SELECT oid FROM orders WHERE amount >= 95")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestInList(t *testing.T) {
	c := setup(t)
	res := run(t, c, "SELECT id FROM users WHERE id IN (1, 3, 5)")
	if len(res.Rows) != 3 {
		t.Fatalf("IN rows = %v", res.Rows)
	}
	res = run(t, c, "SELECT id FROM users WHERE id NOT IN (1, 3, 5)")
	if len(res.Rows) != 2 {
		t.Fatalf("NOT IN rows = %v", res.Rows)
	}
	res = run(t, c, "SELECT id FROM users WHERE name IN ('userx', 'nope')")
	if len(res.Rows) != 1 {
		t.Fatalf("string IN rows = %v", res.Rows)
	}
}

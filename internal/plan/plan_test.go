package plan

import (
	"strings"
	"testing"

	"aidb/internal/catalog"
	"aidb/internal/sql"
)

func buildCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.NewMem()
	users, err := c.CreateTable("users", catalog.Schema{Columns: []catalog.Column{
		{Name: "id", Type: catalog.Int64},
		{Name: "age", Type: catalog.Int64},
	}})
	if err != nil {
		t.Fatal(err)
	}
	orders, err := c.CreateTable("orders", catalog.Schema{Columns: []catalog.Column{
		{Name: "uid", Type: catalog.Int64},
		{Name: "amount", Type: catalog.Float64},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		users.Insert(catalog.Row{i, i % 50})
		orders.Insert(catalog.Row{i % 10, float64(i)})
	}
	if err := users.Analyze(16, 4); err != nil {
		t.Fatal(err)
	}
	if err := orders.Analyze(16, 4); err != nil {
		t.Fatal(err)
	}
	return c
}

func buildPlan(t *testing.T, c *catalog.Catalog, q string) Node {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(c, stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildShapesPlainQuery(t *testing.T) {
	c := buildCatalog(t)
	p := buildPlan(t, c, "SELECT id FROM users WHERE age > 10 ORDER BY id LIMIT 5")
	// Project on top (so ORDER BY can use unprojected columns beneath).
	proj, ok := p.(*ProjectNode)
	if !ok {
		t.Fatalf("root = %T, want Project", p)
	}
	if _, ok := proj.Input.(*LimitNode); !ok {
		t.Fatalf("under project = %T, want Limit", proj.Input)
	}
}

func TestBuildShapesAggregate(t *testing.T) {
	c := buildCatalog(t)
	p := buildPlan(t, c, "SELECT age, COUNT(*) FROM users GROUP BY age ORDER BY age LIMIT 3")
	if _, ok := p.(*LimitNode); !ok {
		t.Fatalf("root = %T, want Limit above Sort above Aggregate", p)
	}
	expl := Explain(p)
	for _, want := range []string{"Limit 3", "Sort", "Aggregate", "Scan users"} {
		if !strings.Contains(expl, want) {
			t.Errorf("explain missing %q:\n%s", want, expl)
		}
	}
}

func TestBuildDistinctShape(t *testing.T) {
	c := buildCatalog(t)
	p := buildPlan(t, c, "SELECT DISTINCT age FROM users")
	if _, ok := p.(*DistinctNode); !ok {
		t.Fatalf("root = %T, want Distinct", p)
	}
}

func TestBuildJoinResolvesSides(t *testing.T) {
	c := buildCatalog(t)
	// Write the join condition "backwards" — builder must normalize so
	// the left column belongs to the left input.
	p := buildPlan(t, c, "SELECT users.id FROM orders JOIN users ON users.id = orders.uid")
	var join *JoinNode
	var walk func(n Node)
	walk = func(n Node) {
		if j, ok := n.(*JoinNode); ok {
			join = j
		}
		for _, ch := range n.Children() {
			walk(ch)
		}
	}
	walk(p)
	if join == nil {
		t.Fatal("no join in plan")
	}
	if join.LeftCol != "orders.uid" || join.RightCol != "users.id" {
		t.Errorf("join keys = %s / %s, want orders.uid / users.id", join.LeftCol, join.RightCol)
	}
}

func TestBuildUnknownTable(t *testing.T) {
	c := buildCatalog(t)
	stmt, _ := sql.Parse("SELECT * FROM ghost")
	if _, err := Build(c, stmt.(*sql.SelectStmt)); err == nil {
		t.Error("unknown table should fail at plan time")
	}
	stmt, _ = sql.Parse("SELECT * FROM users JOIN ghost ON users.id = ghost.id")
	if _, err := Build(c, stmt.(*sql.SelectStmt)); err == nil {
		t.Error("unknown join table should fail at plan time")
	}
}

func TestSchemaQualification(t *testing.T) {
	c := buildCatalog(t)
	p := buildPlan(t, c, "SELECT * FROM users u")
	scan := p.(*ProjectNode).Input.(*ScanNode)
	sch := scan.Schema()
	if sch[0] != "u.id" || sch[1] != "u.age" {
		t.Errorf("schema = %v, want alias-qualified", sch)
	}
}

func TestCostFilterReducesRows(t *testing.T) {
	c := buildCatalog(t)
	est := HistogramEstimator{}
	full := buildPlan(t, c, "SELECT * FROM users")
	narrow := buildPlan(t, c, "SELECT * FROM users WHERE age = 3")
	if EstimateRows(narrow, est) >= EstimateRows(full, est) {
		t.Error("narrow filter should estimate fewer rows")
	}
	wide := buildPlan(t, c, "SELECT * FROM users WHERE age >= 0")
	if EstimateRows(wide, est) < EstimateRows(narrow, est) {
		t.Error("wide filter should estimate more rows than narrow one")
	}
}

func TestEstimatorHandlesOperators(t *testing.T) {
	c := buildCatalog(t)
	users, _ := c.Table("users")
	est := HistogramEstimator{}
	cases := []struct {
		cond string
		lo   float64
		hi   float64
	}{
		{"age = 3", 0, 0.1},
		{"age < 25", 0.3, 0.7},
		{"age >= 25", 0.3, 0.7},
		{"age != 3", 0.9, 1.0},
		{"age BETWEEN 10 AND 19", 0.1, 0.3},
		{"age < 10 OR age > 40", 0.2, 0.6},
		{"NOT age < 10", 0.6, 0.9},
		{"3 > age", 0, 0.2}, // mirrored literal form
	}
	for _, tc := range cases {
		stmt, err := sql.Parse("SELECT * FROM users WHERE " + tc.cond)
		if err != nil {
			t.Fatalf("%s: %v", tc.cond, err)
		}
		sel := est.EstimateFilter(users, "users", stmt.(*sql.SelectStmt).Where)
		if sel < tc.lo || sel > tc.hi {
			t.Errorf("selectivity(%s) = %v, want in [%v, %v]", tc.cond, sel, tc.lo, tc.hi)
		}
	}
}

// TestEstimatorDefaultsWithoutStats: a column without a histogram (an
// INT column before ANALYZE, a FLOAT column always) is estimated from
// the table's zones; what zones cannot bound — a TEXT column, a table
// without rows, a constant that is no number — gets the 1/3 default.
func TestEstimatorDefaultsWithoutStats(t *testing.T) {
	c := catalog.NewMem()
	tab, _ := c.CreateTable("raw", catalog.Schema{Columns: []catalog.Column{{Name: "x", Type: catalog.Int64}, {Name: "f", Type: catalog.Float64}, {Name: "s", Type: catalog.String}}})
	empty, _ := c.CreateTable("empty", tab.Schema)
	for i := int64(0); i < 100; i++ {
		tab.Insert(catalog.Row{i, float64(i) / 10, "s"})
	}
	est := HistogramEstimator{}
	for _, tc := range []struct {
		t      *catalog.Table
		cond   string
		lo, hi float64
	}{
		{tab, "x = 1", 0.01, 0.01},
		{tab, "x = 1000", 0, 0},
		{tab, "x < 50", 0.45, 0.55},
		{tab, "50 > x", 0.45, 0.55},
		{tab, "x BETWEEN 10 AND 19", 0.05, 0.15},
		{tab, "x IN (1, 2, 3)", 0.03, 0.03},
		{tab, "f > 9.5", 0.03, 0.07},
		{tab, "f >= 0", 1, 1},
		{tab, "s = 'a'", 1.0 / 3, 1.0 / 3},
		{tab, "x = x", 1.0 / 3, 1.0 / 3},
		{empty, "x = 1", 1.0 / 3, 1.0 / 3},
	} {
		stmt, _ := sql.Parse("SELECT * FROM raw WHERE " + tc.cond)
		sel := est.EstimateFilter(tc.t, "raw", stmt.(*sql.SelectStmt).Where)
		if sel < tc.lo-1e-9 || sel > tc.hi+1e-9 {
			t.Errorf("%s on %s: selectivity %v, want in [%v, %v]", tc.cond, tc.t.Name, sel, tc.lo, tc.hi)
		}
	}
}

func TestCostJoinUsesNDV(t *testing.T) {
	c := buildCatalog(t)
	est := HistogramEstimator{}
	p := buildPlan(t, c, "SELECT users.id FROM orders JOIN users ON orders.uid = users.id")
	rows := EstimateRows(p, est)
	// |orders|=100, |users|=100, ndv(users.id)=100 => ~100 rows.
	if rows < 50 || rows > 500 {
		t.Errorf("join estimate = %v, want near 100", rows)
	}
	if Cost(p, est) <= rows {
		t.Error("plan cost must exceed output cardinality")
	}
}

func TestExplainIndentation(t *testing.T) {
	c := buildCatalog(t)
	p := buildPlan(t, c, "SELECT id FROM users WHERE age > 1")
	out := Explain(p)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("explain lines = %d, want 3:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "  ") || !strings.HasPrefix(lines[2], "    ") {
		t.Errorf("children not indented:\n%s", out)
	}
}

func TestFingerprint(t *testing.T) {
	c := buildCatalog(t)
	for _, tc := range []struct {
		q, want string
	}{
		{"SELECT id FROM users WHERE age > 40", "Project(Filter(Scan(users)))"},
		{"SELECT age, COUNT(*) FROM users GROUP BY age", "Aggregate(Scan(users))"},
		{"SELECT users.id FROM orders JOIN users ON orders.uid = users.id",
			"Project(HashJoin[orders.uid=users.id](Scan(orders),Scan(users)))"},
		{"SELECT DISTINCT age FROM users ORDER BY age LIMIT 3",
			"Limit(Sort(Distinct(Project(Scan(users)))))"},
	} {
		p := buildPlan(t, c, tc.q)
		if got := Fingerprint(p); got != tc.want {
			t.Errorf("Fingerprint(%q) = %q, want %q", tc.q, got, tc.want)
		}
	}
	// Same shape, different constants: one fingerprint (the grouping key
	// property workload capture relies on).
	a := Fingerprint(buildPlan(t, c, "SELECT id FROM users WHERE age > 10"))
	b := Fingerprint(buildPlan(t, c, "SELECT age FROM users WHERE age > 99"))
	if a != b {
		t.Errorf("same-shape queries fingerprint differently: %q vs %q", a, b)
	}
}

package exec

import (
	"strings"
	"testing"

	"aidb/internal/catalog"
	"aidb/internal/plan"
	"aidb/internal/sql"
)

// bindCatalog has a populated pair of tables that share a column name
// (id) and an empty table.
func bindCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.NewMem()
	for _, name := range []string{"a", "b", "empty"} {
		tab, err := c.CreateTable(name, catalog.Schema{Columns: []catalog.Column{
			{Name: "id", Type: catalog.Int64},
			{Name: name + "v", Type: catalog.Int64},
		}})
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); name != "empty" && i < 10; i++ {
			if _, err := tab.Insert(catalog.Row{i, i * 2}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

// TestNameErrorsFailAtCompile is the binding contract: a name that does
// not resolve fails the statement when its plan is compiled — before a
// page is read, whether or not the table has rows, and wherever the name
// stands, including an arm of AND/OR that evaluation would never reach.
func TestNameErrorsFailAtCompile(t *testing.T) {
	c := bindCatalog(t)
	cases := []struct {
		name, query, want string
	}{
		{"projection", "SELECT ghost FROM a", `exec: unknown column "ghost" (schema: [a.id a.av])`},
		{"projection, empty table", "SELECT ghost FROM empty", `exec: unknown column "ghost" (schema: `},
		{"qualified", "SELECT a.ghost FROM a", `exec: unknown column "a.ghost" (schema: `},
		{"where", "SELECT id FROM a WHERE ghost > 1", `exec: unknown column "ghost"`},
		{"where, empty table", "SELECT id FROM empty WHERE ghost > 1", `exec: unknown column "ghost"`},
		{"right arm of a false AND", "SELECT id FROM a WHERE 1 = 0 AND ghost = 1", `exec: unknown column "ghost"`},
		{"right arm of a true OR", "SELECT id FROM a WHERE 1 = 1 OR ghost = 1", `exec: unknown column "ghost"`},
		{"under NOT, IN and BETWEEN", "SELECT id FROM a WHERE NOT (av IN (1, ghost) OR av BETWEEN 1 AND 2)", `exec: unknown column "ghost"`},
		{"arithmetic", "SELECT av + ghost FROM a", `exec: unknown column "ghost"`},
		{"order by", "SELECT id FROM a ORDER BY ghost", `exec: unknown column "ghost"`},
		{"group by", "SELECT COUNT(*) FROM empty GROUP BY ghost", `exec: unknown column "ghost"`},
		{"aggregate argument", "SELECT SUM(ghost) FROM empty", `exec: unknown column "ghost"`},
		{"count argument", "SELECT COUNT(ghost) FROM a", `exec: unknown column "ghost"`},
		{"ungrouped output", "SELECT av, COUNT(*) FROM empty GROUP BY id", "exec: av is neither aggregated nor grouped"},
		{"ambiguous in where", "SELECT av FROM a JOIN b ON a.id = b.id WHERE id = 1", `exec: ambiguous column "id"`},
		{"ambiguous in projection", "SELECT id FROM a JOIN b ON a.id = b.id", `exec: ambiguous column "id"`},
		{"ambiguous, empty side", "SELECT av FROM a JOIN empty ON a.id = empty.id WHERE 1 = 0 AND id = 1", `exec: ambiguous column "id"`},
		{"unknown function", "SELECT id FROM empty WHERE NOSUCH(id) = 1", `exec: unknown function "NOSUCH"`},
		{"unbound parameter", "SELECT id FROM empty WHERE id = $1", "exec: parameter $1 is not bound"},
		{"update set", "UPDATE a SET av = ghost + 1", `exec: UPDATE a SET av: exec: unknown column "ghost"`},
		{"update where, false arm", "UPDATE a SET av = 1 WHERE 1 = 0 AND ghost = 1", `exec: unknown column "ghost"`},
		{"delete where, empty table", "DELETE FROM empty WHERE ghost = 1", `exec: unknown column "ghost"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stmt, err := sql.Parse(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			var p plan.Node
			if sel, ok := stmt.(*sql.SelectStmt); ok {
				p, err = plan.Build(c, sel)
			} else {
				p, err = plan.BuildModify(c, stmt)
			}
			if err != nil {
				t.Fatal(err)
			}
			// The plan as Build made it, then as the planner's rewrite
			// (which works in place) leaves it.
			for _, rewrite := range []bool{false, true} {
				if rewrite {
					p = plan.OptimizeFilters(p)
				}
				ex := New(nil)
				if _, err := ex.Run(p); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s\nerr  = %v\nwant … %s …", plan.Explain(p), err, tc.want)
				}
				if n := ex.Stats.RowsScanned.Load(); n != 0 {
					t.Errorf("%d rows were scanned before the statement failed", n)
				}
			}
		})
	}
	if res, err := c.Table("a"); err != nil {
		t.Fatal(err)
	} else if rows := heapRows(t, res); len(rows) != 10 || rows[3][1] != int64(6) {
		t.Errorf("a failed UPDATE changed the table: %v", rows)
	}
}

// TestUnreadColumnFailsLoudly: if the planner's record of the columns a
// plan reads were ever wrong, the statement must fail, not answer from a
// slot the scan left undecoded.
func TestUnreadColumnFailsLoudly(t *testing.T) {
	c := bindCatalog(t)
	for _, q := range []string{
		"SELECT id FROM a WHERE av > 4",
		"SELECT av + 1 FROM a",
		"SELECT SUM(av) FROM a",
		"SELECT id FROM a ORDER BY av",
	} {
		p := plan.OptimizeFilters(mustPlan(t, c, q))
		n := p
		for len(n.Children()) > 0 {
			n = n.Children()[0]
		}
		scan := n.(*plan.ScanNode)
		if !scan.Needed[1] {
			t.Fatalf("%s: the plan does not record that it reads av:\n%s", q, plan.Explain(p))
		}
		scan.Needed = []bool{true, false} // the slip
		if _, err := New(nil).Run(p); err == nil || !strings.Contains(err.Error(), "did not decode") {
			t.Errorf("%s with av undecoded: err = %v, want the undecoded-column error", q, err)
		}
	}
}

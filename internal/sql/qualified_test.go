package sql

import "testing"

// TestParseQualifiedTableNames: FROM and JOIN accept dotted ns.table
// names (the virtual system catalog), with and without aliases.
func TestParseQualifiedTableNames(t *testing.T) {
	stmt, err := Parse("SELECT name, value FROM system.metrics WHERE value > 0")
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*SelectStmt)
	if sel.Table != "system.metrics" || sel.Alias != "" {
		t.Fatalf("table = %q alias = %q", sel.Table, sel.Alias)
	}

	stmt, err = Parse("SELECT s.query, p.hits FROM system.statements s JOIN system.plan_cache p ON s.fingerprint = p.fingerprint")
	if err != nil {
		t.Fatal(err)
	}
	sel = stmt.(*SelectStmt)
	if sel.Table != "system.statements" || sel.Alias != "s" {
		t.Fatalf("main = %q AS %q", sel.Table, sel.Alias)
	}
	if len(sel.Joins) != 1 || sel.Joins[0].Table != "system.plan_cache" || sel.Joins[0].Alias != "p" {
		t.Fatalf("joins = %+v", sel.Joins)
	}

	// Plain unqualified names are unchanged.
	stmt, err = Parse("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if sel = stmt.(*SelectStmt); sel.Table != "t" {
		t.Fatalf("table = %q", sel.Table)
	}

	// A trailing dot is a syntax error, not a silent one-part name.
	if _, err := Parse("SELECT a FROM system. WHERE a > 0"); err == nil {
		t.Fatal("trailing-dot table name parsed")
	}
}

package plan

import (
	"math"
	"strings"
	"testing"

	"aidb/internal/catalog"
	"aidb/internal/sql"
)

// indexedPlan plans q over buildCatalog's tables with an index on every
// column named in indexed ("users.id", ...).
func indexedPlan(t *testing.T, q string, indexed ...string) Node {
	t.Helper()
	c := buildCatalog(t)
	for _, name := range indexed {
		table, col, _ := strings.Cut(name, ".")
		tab, err := c.Table(table)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.CreateIndex(tab.Schema.ColIndex(col)); err != nil {
			t.Fatal(err)
		}
	}
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	var p Node
	if sel, ok := stmt.(*sql.SelectStmt); ok {
		p, err = Build(c, sel)
	} else {
		p, err = BuildModify(c, stmt)
	}
	if err != nil {
		t.Fatal(err)
	}
	return UseIndexes(OptimizeFilters(p))
}

func indexScanOf(n Node) *IndexScanNode {
	if is, ok := n.(*IndexScanNode); ok {
		return is
	}
	for _, c := range n.Children() {
		if is := indexScanOf(c); is != nil {
			return is
		}
	}
	return nil
}

// TestIndexBoundsAcceptPlaceholders: every shape that takes a literal
// bound takes a $N bound, and Describe prints it.
func TestIndexBoundsAcceptPlaceholders(t *testing.T) {
	for _, tc := range []struct{ where, want string }{
		{"id = 7", "users.id ∈ [7, 7]"},
		{"id = $1", "users.id ∈ [$1, $1]"},
		{"$1 = id", "users.id ∈ [$1, $1]"},
		{"id < $1", "users.id ∈ [-inf, $1-1]"},
		{"id <= $1", "users.id ∈ [-inf, $1]"},
		{"id > $1", "users.id ∈ [$1+1, +inf]"},
		{"$1 < id", "users.id ∈ [$1+1, +inf]"},
		{"id >= $2 AND id < 50", "users.id ∈ [$2, 49]"},
		{"id BETWEEN $1 AND $2", "users.id ∈ [$1, $2]"},
		{"id BETWEEN 3 AND $1 AND id > 5 AND id > $2", "users.id ∈ [max(6, $2+1), $1]"},
		{"id > 5 AND id < 3", "users.id ∈ [6, 2]"},
	} {
		p := indexedPlan(t, "SELECT age FROM users WHERE "+tc.where, "users.id")
		is := indexScanOf(p)
		if is == nil {
			t.Errorf("%s: no index scan in\n%s", tc.where, Explain(p))
			continue
		}
		if got := is.Describe(); got != "IndexScan "+tc.want {
			t.Errorf("%s: %s, want IndexScan %s", tc.where, got, tc.want)
		}
	}
	// Not a bound: a float literal would have to be rounded, an
	// arithmetic expression is not constant-folded.
	for _, where := range []string{"id < 2.5", "id = $1 + 1", "age = $1"} {
		if p := indexedPlan(t, "SELECT age FROM users WHERE "+where, "users.id"); indexScanOf(p) != nil {
			t.Errorf("%s: should not use the index:\n%s", where, Explain(p))
		}
	}
}

// TestIndexChoiceRanksEqualityFirst: with two indexed columns the
// equality wins over any range whose width is unknown at plan time, a
// known narrow literal range wins over an unknown one, and a range
// closed on both sides wins over an open one.
func TestIndexChoiceRanksEqualityFirst(t *testing.T) {
	for _, tc := range []struct{ where, wantCol string }{
		{"id BETWEEN $1 AND $2 AND age = $3", "age"},
		{"age > $1 AND id = $2", "id"},
		{"id BETWEEN 10 AND 20 AND age BETWEEN $1 AND $2", "id"},
		{"id > $1 AND age BETWEEN $2 AND $3", "age"},
		{"id > 5 AND age BETWEEN $2 AND $3", "age"},
		{"id = $1 AND age = $2", "id"}, // tie: lower column position
	} {
		p := indexedPlan(t, "SELECT id FROM users WHERE "+tc.where, "users.id", "users.age")
		is := indexScanOf(p)
		if is == nil {
			t.Fatalf("%s: no index scan", tc.where)
		}
		if got := is.Table.Schema.Columns[is.Column].Name; got != tc.wantCol {
			t.Errorf("%s: index on %s chosen, want %s", tc.where, got, tc.wantCol)
		}
	}
}

// TestFingerprintIgnoresBounds: a literal and a placeholder bound give
// the same fingerprint, for SELECT and for DML.
func TestFingerprintIgnoresBounds(t *testing.T) {
	lit := Fingerprint(indexedPlan(t, "SELECT age FROM users WHERE id = 7", "users.id"))
	par := Fingerprint(indexedPlan(t, "SELECT age FROM users WHERE id BETWEEN $1 AND $2", "users.id"))
	if lit != par || !strings.Contains(lit, "IndexScan(users.id)") {
		t.Errorf("fingerprints differ or miss the index scan: %q vs %q", lit, par)
	}
	upd := Fingerprint(indexedPlan(t, "UPDATE users SET age = $2 WHERE id = $1", "users.id"))
	if upd != "UPDATE(Filter(IndexScan(users.id)))" {
		t.Errorf("UPDATE fingerprint = %q", upd)
	}
	del := Fingerprint(indexedPlan(t, "DELETE FROM users WHERE age < 3"))
	if del != "DELETE(Filter(Scan(users)))" {
		t.Errorf("DELETE fingerprint = %q", del)
	}
}

// TestIndexRangeResolution: what the scan reads for each kind of
// parameter value.
func TestIndexRangeResolution(t *testing.T) {
	is := indexScanOf(indexedPlan(t, "SELECT age FROM users WHERE id > $1 AND id <= $2 AND id >= 10", "users.id"))
	for _, tc := range []struct {
		params []catalog.Value
		lo, hi int64
		ok     bool
	}{
		{[]catalog.Value{int64(20), int64(30)}, 21, 30, true},
		{[]catalog.Value{int64(3), int64(30)}, 10, 30, true},
		{[]catalog.Value{int64(40), int64(30)}, 41, 30, true}, // empty
		{[]catalog.Value{nil, int64(30)}, 1, 0, true},         // NULL: empty
		{[]catalog.Value{int64(20), 2.5}, 0, 0, false},        // float: heap
		{[]catalog.Value{"x", int64(30)}, 0, 0, false},        // string: heap
		{[]catalog.Value{"x", nil}, 0, 0, false},              // heap decides before NULL does
		{[]catalog.Value{int64(math.MaxInt64), int64(30)}, 0, 0, false},
		{[]catalog.Value{int64(20)}, 0, 0, false}, // $2 unbound
	} {
		lo, hi, ok := is.Range(tc.params)
		if lo != tc.lo || hi != tc.hi || ok != tc.ok {
			t.Errorf("Range(%v) = %d, %d, %v; want %d, %d, %v", tc.params, lo, hi, ok, tc.lo, tc.hi, tc.ok)
		}
	}
}

// TestBuildModify: the plan shape, SET order, and the plan-time errors.
func TestBuildModify(t *testing.T) {
	p := indexedPlan(t, "UPDATE users SET age = age + 1, id = $2 WHERE id = $1", "users.id")
	want := "Update users SET id = $2, age = (age + 1)\n  Filter (id = $1)\n    IndexScan users.id ∈ [$1, $1]\n"
	if got := Explain(p); got != want {
		t.Errorf("plan:\n%s\nwant:\n%s", got, want)
	}
	if is := indexScanOf(p); !is.RowIDs {
		t.Error("a DML plan's scan must carry record ids")
	}
	if is := indexScanOf(indexedPlan(t, "SELECT age FROM users WHERE id = $1", "users.id")); is.RowIDs {
		t.Error("a SELECT plan's scan must not carry record ids")
	}
	if got := Explain(indexedPlan(t, "DELETE FROM users")); !strings.HasPrefix(got, "Delete users\n  Scan users") {
		t.Errorf("unfiltered DELETE plan:\n%s", got)
	}
	c := buildCatalog(t)
	for _, q := range []string{"UPDATE users SET ghost = 1", "UPDATE ghosts SET a = 1", "DELETE FROM ghosts"} {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := BuildModify(c, stmt); err == nil {
			t.Errorf("%s: planned without error", q)
		}
	}
}

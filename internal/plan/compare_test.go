package plan

import (
	"math"
	"testing"

	"aidb/internal/catalog"
	"aidb/internal/sql"
)

// compareTable is t (i INT, f FLOAT, s TEXT) with 100 rows, i from 0 to
// 99 and f = i/10, an index on i and no histogram: every estimate below
// comes from the zones.
func compareTable(t *testing.T) (*catalog.Catalog, *catalog.Table) {
	t.Helper()
	c := catalog.NewMem()
	tab, err := c.CreateTable("t", catalog.Schema{Columns: []catalog.Column{
		{Name: "i", Type: catalog.Int64}, {Name: "f", Type: catalog.Float64}, {Name: "s", Type: catalog.String},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		tab.Insert(catalog.Row{i, float64(i) / 10, "s"})
	}
	if err := tab.CreateIndex(0); err != nil {
		t.Fatal(err)
	}
	return c, tab
}

// readings plans `SELECT i FROM t WHERE where` and returns its filter's
// condition, what the estimator makes of it under params and the range
// of the index scan chosen for it ("" when none).
func readings(t *testing.T, c *catalog.Catalog, tab *catalog.Table, where string, params []catalog.Value) (sql.Expr, float64, string) {
	t.Helper()
	stmt, err := sql.Parse("SELECT i FROM t WHERE " + where)
	if err != nil {
		t.Fatal(err)
	}
	cond := stmt.(*sql.SelectStmt).Where
	p, err := Build(c, stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	index := ""
	if is := indexScanOf(UseIndexes(OptimizeFilters(p))); is != nil {
		index = is.Describe()[len("IndexScan t.i ∈ "):]
	}
	return cond, HistogramEstimator{Params: params}.EstimateFilter(tab, "t", cond), index
}

// TestComparedReadings holds the one reading of `column op number` to
// what each of its readers takes from it: the comparison (column on the
// left), whether it has a number under the parameters — so the
// estimator reads the zones and a scan prunes by them — and the index
// bound it gives.
func TestComparedReadings(t *testing.T) {
	c, tab := compareTable(t)
	const minI, maxI = math.MinInt64, math.MaxInt64
	cmp := func(col int, op catalog.CmpOp, lit catalog.Value, param int) *Comparison {
		return &Comparison{Col: col, Op: op, Lit: lit, Param: param}
	}
	for _, tc := range []struct {
		where  string
		params []catalog.Value
		want   *Comparison // nil: not recognized
		number bool        // a number under params: estimated and zone-pruned
		index  string
	}{
		{"i < 5", nil, cmp(0, catalog.CmpLT, int64(5), 0), true, "[-inf, 4]"},
		{"5 > i", nil, cmp(0, catalog.CmpLT, int64(5), 0), true, "[-inf, 4]"},
		{"5 <= i", nil, cmp(0, catalog.CmpGE, int64(5), 0), true, "[5, +inf]"},
		{"5 = i", nil, cmp(0, catalog.CmpEQ, int64(5), 0), true, "[5, 5]"},
		{"i != 5", nil, cmp(0, catalog.CmpNE, int64(5), 0), true, ""},
		{"5 != i", nil, cmp(0, catalog.CmpNE, int64(5), 0), true, ""},
		{"2.5 >= f", nil, cmp(1, catalog.CmpLE, 2.5, 0), true, ""},

		// The int64 extremes: nothing lies past them, so a strict
		// comparison toward them bounds nothing and one away from them
		// steps one key in without wrapping.
		{"i < -9223372036854775808", nil, cmp(0, catalog.CmpLT, int64(minI), 0), true, ""},
		{"i > 9223372036854775807", nil, cmp(0, catalog.CmpGT, int64(maxI), 0), true, ""},
		{"-9223372036854775808 < i", nil, cmp(0, catalog.CmpGT, int64(minI), 0), true, "[-9223372036854775807, +inf]"},
		{"i < 9223372036854775807", nil, cmp(0, catalog.CmpLT, int64(maxI), 0), true, "[-inf, 9223372036854775806]"},

		// A FLOAT literal on an INT column: estimated and pruned by, but
		// rounding it into an index bound would move the bound.
		{"i = 2.5", nil, cmp(0, catalog.CmpEQ, 2.5, 0), true, ""},
		{"49.5 < i", nil, cmp(0, catalog.CmpGT, 49.5, 0), true, ""},

		// Not `column op number`.
		{"i = 'x'", nil, nil, false, ""},
		{"s = 'x'", nil, nil, false, ""},
		{"s = 5", nil, nil, false, ""},
		{"i = f", nil, nil, false, ""},
		{"i + 1 = 5", nil, nil, false, ""},

		// A placeholder is an index bound whatever it holds — the scan
		// reads the heap when it holds no int64 — and a number only
		// when it holds one.
		{"i = $1", []catalog.Value{int64(3)}, cmp(0, catalog.CmpEQ, nil, 1), true, "[$1, $1]"},
		{"$1 < i", []catalog.Value{2.5}, cmp(0, catalog.CmpGT, nil, 1), true, "[$1+1, +inf]"},
		{"i = $1", []catalog.Value{"x"}, cmp(0, catalog.CmpEQ, nil, 1), false, "[$1, $1]"},
		{"i = $1", []catalog.Value{nil}, cmp(0, catalog.CmpEQ, nil, 1), false, "[$1, $1]"},
		{"f > $2", []catalog.Value{int64(1)}, cmp(1, catalog.CmpGT, nil, 2), false, ""},
	} {
		cond, est, index := readings(t, c, tab, tc.where, tc.params)
		got, ok := Compared(tab, "t", cond)
		if tc.want == nil {
			if ok {
				t.Errorf("%s: recognized as %+v", tc.where, got)
			}
		} else if !ok || got != *tc.want {
			t.Errorf("%s: Compared = %+v, %v; want %+v", tc.where, got, ok, *tc.want)
		}
		z, number := got.Zone(tc.params)
		if number = ok && number; number != tc.number {
			t.Errorf("%s under %v: a number %v, want %v", tc.where, tc.params, number, tc.number)
		}
		want := 1.0 / 3
		if number {
			if z.Col != got.Col || z.Accept != got.Op {
				t.Errorf("%s: zone %+v is not %+v", tc.where, z, got)
			}
			want, _ = tab.ZoneSelectivity(z)
		}
		if est != want {
			t.Errorf("%s under %v: estimated %v, want %v", tc.where, tc.params, est, want)
		}
		if index != tc.index {
			t.Errorf("%s: index range %q, want %q", tc.where, index, tc.index)
		}
	}
}

// TestComparedHalves: BETWEEN and IN are read as their subject compared
// with each bound or item, never the other way round.
func TestComparedHalves(t *testing.T) {
	c, tab := compareTable(t)
	for _, tc := range []struct {
		where     string
		estimated bool
		index     string
	}{
		{"i BETWEEN 10 AND 19", true, "[10, 19]"},
		{"i BETWEEN $1 AND 19", true, "[$1, 19]"},
		{"i BETWEEN 2.5 AND 19", true, ""},
		{"f BETWEEN 1 AND 2", true, ""},
		{"i IN (1, 2, 3)", true, ""},
		{"s BETWEEN 'a' AND 'b'", false, ""},
		{"5 BETWEEN i AND 7", false, ""},
		{"i IN (1, 'x')", false, ""},
	} {
		_, est, index := readings(t, c, tab, tc.where, []catalog.Value{int64(10)})
		if est != 1.0/3 != tc.estimated {
			t.Errorf("%s: estimated %v, want an estimate %v", tc.where, est, tc.estimated)
		}
		if index != tc.index {
			t.Errorf("%s: index range %q, want %q", tc.where, index, tc.index)
		}
	}
}

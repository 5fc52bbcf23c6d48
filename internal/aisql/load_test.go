package aisql

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"aidb/internal/catalog"
	"aidb/internal/ml"
	"aidb/internal/obs"
	"aidb/internal/plancache"
	"aidb/internal/storage"
)

// TestFailedInsertChangesNothing: a multi-row INSERT with one bad row —
// a value its column cannot hold, a FLOAT beyond INT's range, a row of
// the wrong width, a row too long for a page — fails without writing
// any row, ad hoc and prepared: the heap and every index are as they
// were, although rows before the bad one were fine.
func TestFailedInsertChangesNothing(t *testing.T) {
	long := strings.Repeat("x", storage.PageSize)
	for _, tc := range []struct {
		name, adhoc, prepared string
		args                  []catalog.Value
	}{
		{"INT into TEXT", "INSERT INTO items VALUES (1001, 1, 'x'), (1002, 2, 3), (1003, 4, 'y')",
			"INSERT INTO items VALUES ($1, 1, 'x'), ($2, 2, $3), (1003, 4, 'y')", []catalog.Value{int64(1001), int64(1002), int64(3)}},
		{"FLOAT beyond INT", "INSERT INTO items VALUES (1001, 1, 'x'), (99999999999999999999999.0, 2, 'z')",
			"INSERT INTO items VALUES (1001, 1, 'x'), ($1, 2, 'z')", []catalog.Value{99999999999999999999999.0}},
		{"row of the wrong width", "INSERT INTO items VALUES (1001, 1, 'x'), (1002, 2)",
			"INSERT INTO items VALUES ($1, 1, 'x'), ($2, 2)", []catalog.Value{int64(1001), int64(1002)}},
		{"row longer than a page", "INSERT INTO items VALUES (1001, 1, 'x'), (1002, 2, '" + long + "'), (1003, 3, 'y')",
			"INSERT INTO items VALUES (1001, 1, 'x'), (1002, 2, $1), (1003, 3, 'y')", []catalog.Value{long}},
		{"NULL parameter", "",
			"INSERT INTO items VALUES (1001, 1, 'x'), ($1, 2, 'y')", []catalog.Value{nil}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := seedIndexed(t, 300)
			if _, err := e.Execute("DELETE FROM items WHERE id BETWEEN 40 AND 60"); err != nil {
				t.Fatal(err) // holes a bad insert might fill
			}
			heap, index := heapImage(t, e, "items"), indexImage(t, e)
			check := func(how string, err error) {
				t.Helper()
				if err == nil {
					t.Fatalf("%s INSERT succeeded", how)
				}
				if heapImage(t, e, "items") != heap || indexImage(t, e) != index {
					t.Errorf("%s INSERT failed (%v) but changed the table", how, err)
				}
			}
			if tc.adhoc != "" {
				_, err := e.Execute(tc.adhoc)
				check("ad hoc", err)
			}
			prep, err := e.PrepareText("PREPARE p AS " + tc.prepared)
			if err != nil {
				t.Fatal(err)
			}
			_, err = e.ExecutePrepared(context.Background(), prep, tc.args)
			check("prepared", err)
			if res, _ := e.Execute("SELECT COUNT(*) FROM items"); res.Rows[0][0] != int64(279) {
				t.Errorf("count(*) = %v, want 279", res.Rows[0][0])
			}
		})
	}
}

// TestFloatBeyondIntRangeRejected: a FLOAT becomes an INT only inside
// int64's range, through INSERT and through UPDATE ... SET; -2^63 is in
// it, 2^63 is not.
func TestFloatBeyondIntRangeRejected(t *testing.T) {
	e := NewEngine()
	if _, err := e.ExecuteScript("CREATE TABLE t (a INT, b TEXT); INSERT INTO t VALUES (1, 'x'), (2, 'y')"); err != nil {
		t.Fatal(err)
	}
	before := heapImage(t, e, "t")
	for _, q := range []string{
		"INSERT INTO t VALUES (99999999999999999999999.0, 'z')",
		"INSERT INTO t VALUES (9223372036854775808.0, 'z')",
		"INSERT INTO t VALUES (-9223372036854777856.0, 'z')",
		"UPDATE t SET a = 99999999999999999999999.0 WHERE a = 1",
		"UPDATE t SET a = a * 9223372036854775807.0",
	} {
		if _, err := e.Execute(q); err == nil || !strings.Contains(err.Error(), "out of INT range") {
			t.Errorf("%s: %v, want an out of INT range error", q, err)
		}
	}
	if heapImage(t, e, "t") != before {
		t.Fatal("a rejected statement changed the table")
	}
	if _, err := e.ExecuteScript("INSERT INTO t VALUES (-9223372036854775808.0, 'min'); UPDATE t SET a = 2.9 WHERE a = 2"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute("SELECT a, b FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(rowSet(res.Rows)); got != "[[-9223372036854775808 min] [1 x] [2 y]]" {
		t.Errorf("rows = %s", got)
	}
}

// TestMinInt64RoundTrip: the smallest INT is written as a literal, read
// back by an ad-hoc SELECT that plans, and by one that hits the cached
// plan with it as the parameter.
func TestMinInt64RoundTrip(t *testing.T) {
	e := NewEngine()
	reg := obs.NewRegistry()
	e.Instrument(reg, nil)
	e.Plans = plancache.New(0)
	if _, err := e.ExecuteScript("CREATE TABLE t (a INT, b TEXT); " +
		"INSERT INTO t VALUES (-9223372036854775808, 'min'), (9223372036854775807, 'max'), (0, 'zero')"); err != nil {
		t.Fatal(err)
	}
	builds := reg.Counter("plan.builds")
	for _, c := range []struct {
		q, want string
		builds  uint64
	}{
		{"SELECT b FROM t WHERE a = -9223372036854775808", "min", 1}, // plans
		{"SELECT b FROM t WHERE a = 9223372036854775807", "max", 0},  // the cached plan
		{"SELECT b FROM t WHERE a = -9223372036854775808", "min", 0}, // again, $1 = MinInt64
	} {
		at := builds.Value()
		res, err := e.Execute(c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0] != c.want {
			t.Errorf("%s: %v, want [[%s]]", c.q, res.Rows, c.want)
		}
		if got := builds.Value() - at; got != c.builds {
			t.Errorf("%s planned %d times, want %d", c.q, got, c.builds)
		}
	}
	if res, err := e.Execute("SELECT MIN(a), MAX(a) FROM t"); err != nil || fmt.Sprint(res.Rows) != "[[-9223372036854775808 9223372036854775807]]" {
		t.Errorf("MIN, MAX = %v, %v", res, err)
	}
}

// TestBulkInsertMatchesRowByRow is the differential test of the bulk
// insert path. Four engines run one seeded stream of statements: a
// batch of rows goes to two of them as one multi-row INSERT and to the
// other two as one single-row INSERT per row, and one of each pair has
// an index on id while it loads. DELETEs are interleaved, so rows land
// in holes, in reused slots and on new pages. All four must give every
// row the same record id and decode every page alike; the two indexes
// maintained during the load must fetch alike; and a CREATE INDEX on the
// two loaded without one must fetch as they do.
func TestBulkInsertMatchesRowByRow(t *testing.T) {
	type loader struct {
		name    string
		bulk    bool
		indexed bool
		e       *Engine
	}
	var loaders []*loader
	for _, bulk := range []bool{true, false} {
		for _, indexed := range []bool{true, false} {
			e := NewEngine()
			ddl := "CREATE TABLE items (id INT, grp INT, name TEXT, score FLOAT, label INT, num TEXT)"
			if indexed {
				ddl += "; CREATE INDEX items_id ON items (id)"
			}
			if _, err := e.ExecuteScript(ddl); err != nil {
				t.Fatal(err)
			}
			loaders = append(loaders, &loader{fmt.Sprintf("bulk=%v,indexed=%v", bulk, indexed), bulk, indexed, e})
		}
	}
	r := rand.New(rand.NewSource(20261015))
	nextID := 0
	row := func() string {
		id := nextID
		nextID++
		score := float64(r.Intn(10000)) / 100
		label := 0
		if score > 40 && id%3 != 0 {
			label = 1
		}
		// Names from empty to 60 bytes: records of many sizes, so a short
		// one fits a page a longer one was turned away from.
		return fmt.Sprintf("(%d, %d, '%s', %.2f, %d, '%.3f')", id, r.Intn(12), strings.Repeat("n", r.Intn(61)), score, label, float64(r.Intn(5000))/7)
	}
	run := func(q string) {
		t.Helper()
		for _, l := range loaders {
			if _, err := l.e.Execute(q); err != nil {
				t.Fatalf("%s: %s: %v", l.name, q, err)
			}
		}
	}
	reused, everLive, wasLive := 0, map[string]bool{}, map[string]bool{}
	for step := 0; step < 150; step++ {
		if step > 10 && r.Intn(3) == 0 {
			if r.Intn(2) == 0 {
				lo := r.Intn(nextID)
				run(fmt.Sprintf("DELETE FROM items WHERE id BETWEEN %d AND %d", lo, lo+r.Intn(80)))
			} else {
				run(fmt.Sprintf("DELETE FROM items WHERE grp = %d AND score < %d", r.Intn(12), r.Intn(100)))
			}
		} else {
			rows := make([]string, 1+r.Intn(60))
			for i := range rows {
				rows[i] = row()
			}
			for _, l := range loaders {
				stmts := []string{"INSERT INTO items VALUES " + strings.Join(rows, ", ")}
				if !l.bulk {
					stmts = stmts[:0]
					for _, v := range rows {
						stmts = append(stmts, "INSERT INTO items VALUES "+v)
					}
				}
				for _, q := range stmts {
					if _, err := l.e.Execute(q); err != nil {
						t.Fatalf("%s: %s: %v", l.name, q, err)
					}
				}
			}
		}
		want := heapImage(t, loaders[0].e, "items")
		for _, l := range loaders[1:] {
			if got := heapImage(t, l.e, "items"); got != want {
				t.Fatalf("step %d: %s and %s hold different heaps\n%s", step, l.name, loaders[0].name, outcomeDiff(got, want))
			}
		}
		live := map[string]bool{}
		for _, line := range strings.Split(want, "\n") {
			if rid, _, ok := strings.Cut(line, " "); ok {
				live[rid] = true
				if everLive[rid] && !wasLive[rid] {
					reused++ // a slot a DELETE freed
				}
				everLive[rid] = true
			}
		}
		wasLive = live
	}

	// Every page decodes alike, record ids included.
	pages := func(e *Engine) string {
		tab, _ := e.Cat.Table("items")
		vs := make([]catalog.Vector, len(tab.Schema.Columns))
		cols := make([]*catalog.Vector, len(vs))
		for i := range vs {
			cols[i] = &vs[i]
		}
		var sb strings.Builder
		var rids []storage.RecordID
		for _, id := range tab.PageIDs() {
			for i := range vs {
				vs[i].Reset()
			}
			rids = rids[:0]
			if _, _, err := tab.DecodePages([]storage.PageID{id}, cols, &rids, 1); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "page %d: %v %v %v %v %v %v %v\n", id, rids, vs[0].I, vs[1].I, vs[2].S, vs[3].F, vs[4].I, vs[5].S)
		}
		return sb.String()
	}
	want := pages(loaders[0].e)
	for _, l := range loaders[1:] {
		if got := pages(l.e); got != want {
			t.Fatalf("%s and %s decode different pages\n%s", l.name, loaders[0].name, outcomeDiff(got, want))
		}
	}

	// Indexes maintained during the load, then built after it.
	fetches := func(e *Engine) string {
		tab, err := e.Cat.Table("items")
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, rng := range [][2]int64{{math.MinInt64, math.MaxInt64}, {0, 0}, {100, 250}, {int64(nextID) - 40, int64(nextID)}, {-5, 3}} {
			rids, err := tab.IndexRange(0, rng[0], rng[1], nil)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "%v: %v\n", rng, rids)
		}
		return sb.String() + indexImage(t, e)
	}
	maintained := fetches(loaders[0].e)
	for _, l := range loaders[1:] {
		if !l.indexed {
			if _, err := l.e.Execute("CREATE INDEX items_id ON items (id)"); err != nil {
				t.Fatal(err)
			}
		}
		if got := fetches(l.e); got != maintained {
			t.Errorf("%s fetches differently from %s\n%s", l.name, loaders[0].name, outcomeDiff(got, maintained))
		}
	}
	tab, _ := loaders[0].e.Cat.Table("items")
	t.Logf("%d rows on %d pages, %d landings in a record id that was live before", tab.NumRows(), len(tab.PageIDs()), reused)
	if tab.NumRows() < 1000 || reused < 50 {
		t.Errorf("weak coverage: %d rows, %d landings in a reused record id", tab.NumRows(), reused)
	}

	t.Run("models", func(t *testing.T) {
		checkModelsMatchBoxedRows(t, tab)
	})
}

// boxedTrainingData is the reference trainingData is held to: every row
// boxed through Table.ScanPages, each cell through toF64.
func boxedTrainingData(t *catalog.Table, features []string, label string) (*ml.Matrix, []float64, error) {
	var rows []catalog.Row
	if err := t.ScanPages(t.PageIDs(), func(_ storage.RecordID, r catalog.Row) bool {
		rows = append(rows, r)
		return true
	}); err != nil {
		return nil, nil, err
	}
	labelIdx := t.Schema.ColIndex(label)
	x, y := ml.NewMatrix(len(rows), len(features)), make([]float64, len(rows))
	for r, row := range rows {
		for c, f := range features {
			v, err := toF64(row[t.Schema.ColIndex(f)])
			if err != nil {
				return nil, nil, fmt.Errorf("aisql: feature %q row %d: %w", f, r, err)
			}
			x.Set(r, c, v)
		}
		lv, err := toF64(row[labelIdx])
		if err != nil {
			return nil, nil, fmt.Errorf("aisql: label row %d: %w", r, err)
		}
		y[r] = lv
	}
	return x, y, nil
}

// checkModelsMatchBoxedRows trains logistic, linear and tree models on
// tab through the vector path (TrainModel) and from boxed rows, and
// requires them bit for bit equal: weights, intercepts, scaler and tree.
// The features include a numeric TEXT column, and labels an INT one.
func checkModelsMatchBoxedRows(t *testing.T, tab *catalog.Table) {
	bits := func(fs ...[]float64) []uint64 {
		var out []uint64
		for _, f := range fs {
			for _, v := range f {
				out = append(out, math.Float64bits(v))
			}
		}
		return out
	}
	for _, c := range []struct {
		kind     ModelKind
		features []string
		label    string
	}{
		{Logistic, []string{"grp", "score", "num"}, "label"},
		{Linear, []string{"grp", "num", "label"}, "score"},
		{Tree, []string{"score", "num", "grp"}, "label"},
	} {
		opts := map[string]string{"epochs": "30"}
		got, err := TrainModel("m", c.kind, tab, c.features, c.label, opts)
		if err != nil {
			t.Fatal(err)
		}
		x, y, err := boxedTrainingData(tab, c.features, c.label)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fit(&Model{Name: "m", Kind: c.kind, Table: tab.Name, Label: c.label, Features: c.features}, x, y, opts)
		if err != nil {
			t.Fatal(err)
		}
		var same bool
		switch c.kind {
		case Logistic:
			same = reflect.DeepEqual(bits(got.logistic.Weights, []float64{got.logistic.Intercept}, got.means, got.stds),
				bits(want.logistic.Weights, []float64{want.logistic.Intercept}, want.means, want.stds))
		case Linear:
			same = reflect.DeepEqual(bits(got.linear.Weights, []float64{got.linear.Intercept}), bits(want.linear.Weights, []float64{want.linear.Intercept}))
		default:
			same = reflect.DeepEqual(got.tree, want.tree)
		}
		if !same {
			t.Errorf("%v model on %v -> %s differs from the one trained on boxed rows", c.kind, c.features, c.label)
		}
	}
	// A TEXT feature that is not a number fails as the boxed path fails.
	_, gotErr := TrainModel("m", Linear, tab, []string{"grp", "name"}, "score", nil)
	_, _, wantErr := boxedTrainingData(tab, []string{"grp", "name"}, "score")
	if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
		t.Errorf("non-numeric TEXT feature: %v, want %v", gotErr, wantErr)
	}
}

package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"aidb/internal/catalog"
	"aidb/internal/exec"
)

// adhocDB is point_adhoc in miniature: an indexed users table and the
// load harness's two statement shapes.
func adhocDB(t testing.TB, rows int) *DB {
	t.Helper()
	db := OpenSeeded(7)
	var sb strings.Builder
	sb.WriteString("CREATE TABLE users (id INT, age INT, city TEXT); INSERT INTO users VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, 'c%d')", i, i%80, i%16)
	}
	sb.WriteString("; CREATE INDEX users_id ON users (id)")
	if _, err := db.ExecScript(sb.String()); err != nil {
		t.Fatal(err)
	}
	return db
}

func pointRead(k int) string { return fmt.Sprintf("SELECT id,age,city FROM users WHERE id = %d", k) }
func rangeRead(k int) string {
	return fmt.Sprintf("SELECT id,age,city FROM users WHERE id > %d AND id < %d", k, k+20)
}

// TestAdhocShapesPlanOnce pins the counts the plan cache exists for,
// which repeat exactly: two thousand ad-hoc statements of two shapes,
// every one with literals no earlier statement had, parse and plan at
// most once per shape, evict nothing, and leave two entries.
func TestAdhocShapesPlanOnce(t *testing.T) {
	db := adhocDB(t, 3000)
	s := db.NewSession()
	defer s.Close()
	counters := func() [4]float64 {
		m := db.Metrics().Snapshot()
		return [4]float64{m["sql.parses"], m["plan.builds"], m["plancache.evictions"], m["plancache.hits"]}
	}
	before, entries := counters(), db.PlanCache().Len()
	ctx := context.Background()
	for i := 0; i < 1000; i++ {
		k := (i * 7) % 2900
		res, err := s.ExecContext(ctx, pointRead(k))
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].(int64) != int64(k) {
			t.Fatalf("point read %d: %v, %v", k, res, err)
		}
		res, err = s.ExecContext(ctx, rangeRead(k))
		if err != nil || len(res.Rows) != 19 {
			t.Fatalf("range read from %d: %v, %v", k, res, err)
		}
	}
	after := counters()
	if parses, builds, evictions := after[0]-before[0], after[1]-before[1], after[2]-before[2]; parses > 2 || builds > 2 || evictions != 0 {
		t.Errorf("2000 statements of 2 shapes: %v parses, %v plan builds, %v evictions; want <= 2, <= 2, 0", parses, builds, evictions)
	}
	if hits := after[3] - before[3]; hits < 1998 {
		t.Errorf("plancache.hits moved by %v, want >= 1998", hits)
	}
	if got := db.PlanCache().Len() - entries; got != 2 {
		t.Errorf("%d new plan-cache entries, want 2", got)
	}
}

// TestPrepareSharesTheAdhocEntry: PREPARE keys its body by the function
// ad-hoc text is keyed by, so the prepared statement and its literal
// spelling are one cache entry and one plan.
func TestPrepareSharesTheAdhocEntry(t *testing.T) {
	db := adhocDB(t, 500)
	s := db.NewSession()
	defer s.Close()
	builds, entries := metric(t, db, "plan.builds"), db.PlanCache().Len()
	if _, err := s.Exec("PREPARE p AS SELECT id,age,city FROM users WHERE id = $1"); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"EXECUTE p (17)", pointRead(42), "EXECUTE p (99)", pointRead(7)} {
		res, err := s.Exec(q)
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("%s: %v, %v", q, res, err)
		}
	}
	if got := metric(t, db, "plan.builds") - builds; got != 1 {
		t.Errorf("PREPARE, two EXECUTEs and two ad-hoc reads of one statement built %v plans, want 1", got)
	}
	if got := db.PlanCache().Len() - entries; got != 1 {
		t.Errorf("%d cache entries, want 1", got)
	}
	// The other order: ad-hoc text first, PREPARE finds its plan.
	if _, err := s.Exec("SELECT age FROM users WHERE id < 5"); err != nil {
		t.Fatal(err)
	}
	builds = metric(t, db, "plan.builds")
	if _, err := s.Exec("PREPARE q AS SELECT age FROM users WHERE id < $1"); err != nil {
		t.Fatal(err)
	}
	if res, err := s.Exec("EXECUTE q (3)"); err != nil || len(res.Rows) != 3 {
		t.Fatalf("EXECUTE q (3): %v, %v", res, err)
	}
	if got := metric(t, db, "plan.builds") - builds; got != 0 {
		t.Errorf("PREPARE of a shape already run ad hoc built %v plans, want 0", got)
	}
	// A body without $N is normalized like ad-hoc text: its literal is
	// bound on every EXECUTE, and it takes no arguments.
	if _, err := s.Exec("PREPARE seven AS SELECT id,age,city FROM users WHERE id = 7"); err != nil {
		t.Fatal(err)
	}
	if res, err := s.Exec("EXECUTE seven"); err != nil || len(res.Rows) != 1 || res.Rows[0][0].(int64) != 7 {
		t.Fatalf("EXECUTE seven: %v, %v", res, err)
	}
	if _, err := s.Exec("EXECUTE seven (8)"); err == nil {
		t.Error("EXECUTE seven (8) bound an argument to a statement that has no $N")
	}
	if got := db.PlanCache().Len() - entries; got != 2 {
		t.Errorf("%d cache entries after all of it, want 2", got)
	}
}

// TestPointReadAllocCeiling bounds what one served ad-hoc statement
// allocates, session to rendered reply, with literals the cache has not
// seen: 124 allocations for the point read and 301 for the 19-row range
// before ad-hoc text ran on the prepared path.
func TestPointReadAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations inflate allocs/op")
	}
	db := adhocDB(t, 3000)
	s := db.NewSession()
	defer s.Close()
	ctx := context.Background()
	for _, c := range []struct {
		name    string
		text    func(int) string
		ceiling float64
	}{{"point read", pointRead, 70}, {"19-row range", rangeRead, 230}} {
		texts := make([]string, 512)
		for i := range texts {
			texts[i] = c.text((i * 13) % 2900)
		}
		var reply []byte
		i := 0
		allocs := testing.AllocsPerRun(400, func() {
			res, err := s.ExecScript(ctx, texts[i%len(texts)])
			if err != nil {
				t.Fatal(err)
			}
			reply = AppendResult(reply[:0], res)
			i++
		})
		t.Logf("%s: %.0f allocs/statement (ceiling %.0f)", c.name, allocs, c.ceiling)
		if allocs > c.ceiling {
			t.Errorf("%s: %.0f allocs/statement, ceiling %.0f", c.name, allocs, c.ceiling)
		}
	}
}

// formatWithFmt is Format as it was before AppendResult: fmt renders
// every cell. Kept as the reference AppendResult must match byte for byte.
func formatWithFmt(res *exec.Result) string {
	if res == nil || len(res.Columns) == 0 {
		return "OK\n"
	}
	widths := make([]int, len(res.Columns))
	cells := make([][]string, 0, len(res.Rows)+1)
	header := make([]string, len(res.Columns))
	for i, c := range res.Columns {
		header[i] = c
		widths[i] = len(c)
	}
	cells = append(cells, header)
	for _, r := range res.Rows {
		row := make([]string, len(r))
		for i, v := range r {
			row[i] = fmt.Sprintf("%v", v)
			if len(row[i]) > widths[i] {
				widths[i] = len(row[i])
			}
		}
		cells = append(cells, row)
	}
	var sb strings.Builder
	for ri, row := range cells {
		for i, c := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		sb.WriteByte('\n')
		if ri == 0 {
			for i := range row {
				if i > 0 {
					sb.WriteString("  ")
				}
				sb.WriteString(strings.Repeat("-", widths[i]))
			}
			sb.WriteByte('\n')
		}
	}
	fmt.Fprintf(&sb, "(%d rows)\n", len(res.Rows))
	return sb.String()
}

func TestAppendResultMatchesFormat(t *testing.T) {
	for name, res := range map[string]*exec.Result{
		"nil":          nil,
		"zero columns": {},
		"zero rows":    {Columns: []string{"id", "a longer header"}},
		"ints": {Columns: []string{"n"}, Rows: []catalog.Row{
			{int64(0)}, {int64(-1)}, {int64(math.MinInt64)}, {int64(math.MaxInt64)}, {int64(1234567)}}},
		"floats": {Columns: []string{"f", "g"}, Rows: []catalog.Row{
			{1e21, 1e-7}, {100000000.0, 99999.5}, {math.NaN(), math.Inf(1)}, {math.Inf(-1), -0.0},
			{0.1, 1.0 / 3}, {2.0, 123456789.125}, {1e20, 1e-4}, {math.SmallestNonzeroFloat64, math.MaxFloat64}}},
		"strings": {Columns: []string{"s", "t"}, Rows: []catalog.Row{
			{"", "x"}, {"a much longer cell than its header", ""}, {"naïve — two-byte runes", "tab\there"}}},
		"NULL and other types": {Columns: []string{"a", "b", "c"}, Rows: []catalog.Row{
			{nil, true, 7}, {int64(1), 2.5, "three"}, {[]int{1, 2}, uint8(9), nil}}},
		"a row shorter than the header": {Columns: []string{"a", "b"}, Rows: []catalog.Row{{int64(1)}, {int64(22), "x"}}},
	} {
		want := formatWithFmt(res)
		if got := string(AppendResult(nil, res)); got != want {
			t.Errorf("%s:\n%q\nwant\n%q", name, got, want)
		}
		if got := Format(res); got != want {
			t.Errorf("%s: Format differs from the reference", name)
		}
		// Appending leaves what the buffer already holds alone.
		if got := string(AppendResult([]byte("ERR x\n"), res)); got != "ERR x\n"+want {
			t.Errorf("%s: appended to a non-empty buffer:\n%q", name, got)
		}
	}
}

func BenchmarkAppendResult(b *testing.B) {
	row := func(i int) catalog.Row {
		return catalog.Row{int64(47110 + i), int64(30 + i%50), fmt.Sprintf("c%d", i%16)}
	}
	for _, n := range []int{1, 19} {
		res := &exec.Result{Columns: []string{"id", "age", "city"}}
		for i := 0; i < n; i++ {
			res.Rows = append(res.Rows, row(i))
		}
		name := "1row"
		if n > 1 {
			name = fmt.Sprintf("%drows", n)
		}
		b.Run(name, func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = AppendResult(buf[:0], res)
			}
			b.SetBytes(int64(len(buf)))
		})
	}
}

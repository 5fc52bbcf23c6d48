package aisql

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"aidb/internal/catalog"
	"aidb/internal/chaos"
	"aidb/internal/exec"
	"aidb/internal/ml"
	"aidb/internal/obs"
	"aidb/internal/plan"
	"aidb/internal/plancache"
	"aidb/internal/sql"
)

// analyzeEngine builds an instrumented engine with a populated table
// big enough to exercise multi-morsel parallelism.
func analyzeEngine(t *testing.T, rows int) (*Engine, *obs.Tracer) {
	t.Helper()
	tr := obs.NewTracer(8)
	e := NewEngine()
	e.Instrument(obs.NewRegistry(), tr)
	if _, err := e.Execute("CREATE TABLE big (a INT, b INT)"); err != nil {
		t.Fatal(err)
	}
	rng := ml.NewRNG(7)
	var sb strings.Builder
	sb.WriteString("INSERT INTO big VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, rng.Intn(100))
	}
	if _, err := e.Execute(sb.String()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute("ANALYZE big"); err != nil {
		t.Fatal(err)
	}
	return e, tr
}

func TestExplainAnalyzeColumnsAndRows(t *testing.T) {
	e, _ := analyzeEngine(t, 2000)
	res, err := e.Execute("EXPLAIN ANALYZE SELECT a, b FROM big WHERE b < 50")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"operator", "est_rows", "actual_rows", "time_us", "morsels", "workers", "util", "chunks", "peak_bytes", "pages", "pages_pruned"}
	if fmt.Sprint(res.Columns) != fmt.Sprint(want) {
		t.Fatalf("columns = %v, want %v", res.Columns, want)
	}
	if len(res.Rows) < 3 {
		t.Fatalf("%d operator rows, want >= 3 (project/filter/scan)", len(res.Rows))
	}
	// The plain SELECT's row count must match the profiled actual at the
	// root operator.
	plain, err := e.Execute("SELECT a, b FROM big WHERE b < 50")
	if err != nil {
		t.Fatal(err)
	}
	if root := res.Rows[0][2].(int64); root != int64(len(plain.Rows)) {
		t.Errorf("root actual_rows = %d, plain SELECT returns %d", root, len(plain.Rows))
	}
	var scan catalog.Row
	for _, r := range res.Rows {
		if strings.Contains(r[0].(string), "Scan") {
			scan = r
		}
	}
	if scan == nil {
		t.Fatal("no Scan row in EXPLAIN ANALYZE output")
	}
	if scan[2].(int64) != 2000 {
		t.Errorf("scan actual_rows = %v, want 2000", scan[2])
	}
	if est := scan[1].(int64); est != 2000 {
		t.Errorf("scan est_rows = %v, want 2000 (post-ANALYZE statistics)", est)
	}
	tab, err := e.Cat.Table("big")
	if err != nil {
		t.Fatal(err)
	}
	if read, pruned := scan[9].(int64), scan[10].(int64); read+pruned != int64(len(tab.PageIDs())) || read == 0 {
		t.Errorf("scan pages = %d read + %d pruned, table has %d", read, pruned, len(tab.PageIDs()))
	}
}

// TestExplainAnalyzeParallelIdentity checks the per-operator actuals
// are identical at parallelism 1, 2 and NumCPU (acceptance criterion:
// identical row counts serial vs parallel).
func TestExplainAnalyzeParallelIdentity(t *testing.T) {
	e, _ := analyzeEngine(t, 4000)
	const q = "EXPLAIN ANALYZE SELECT a FROM big WHERE b < 30"
	var base []string
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		e.Parallelism = workers
		res, err := e.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		var actuals []string
		for _, r := range res.Rows {
			actuals = append(actuals, fmt.Sprint(r[2]))
		}
		if base == nil {
			base = actuals
		} else if fmt.Sprint(actuals) != fmt.Sprint(base) {
			t.Errorf("actual_rows @%d workers = %v, serial = %v", workers, actuals, base)
		}
	}
}

// TestExplainAnalyzeSpanTree asserts the query's span tree shape —
// parse, plan, exec (the query path's own stages) with one op:* child
// per plan operator — and that no span is double-finished, at
// parallelism 1, 2 and NumCPU.
// Running under -race makes double-Finish across goroutines detectable
// via the plain finishes counter.
func TestExplainAnalyzeSpanTree(t *testing.T) {
	e, tr := analyzeEngine(t, 4000)
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		e.Parallelism = workers
		if _, err := e.Execute("EXPLAIN ANALYZE SELECT a FROM big WHERE b < 30"); err != nil {
			t.Fatal(err)
		}
		root := tr.Last()
		if root == nil || root.Name != "query" {
			t.Fatalf("@%d workers: last span = %+v, want query root", workers, root)
		}
		var names []string
		for _, c := range root.Children() {
			names = append(names, c.Name)
		}
		if fmt.Sprint(names) != "[parse plan exec]" {
			t.Fatalf("@%d workers: query children = %v", workers, names)
		}
		execSp := root.Children()[2]
		ops := 0
		var walk func(s *obs.Span)
		walk = func(s *obs.Span) {
			for _, c := range s.Children() {
				if !strings.HasPrefix(c.Name, "op:") {
					t.Errorf("@%d workers: unexpected span %q under exec", workers, c.Name)
				}
				ops++
				walk(c)
			}
		}
		walk(execSp)
		if ops < 3 {
			t.Errorf("@%d workers: %d op spans under exec, want >= 3", workers, ops)
		}
		var check func(s *obs.Span)
		check = func(s *obs.Span) {
			if got := s.Finishes(); got != 1 {
				t.Errorf("@%d workers: span %q finished %d times", workers, s.Name, got)
			}
			for _, c := range s.Children() {
				check(c)
			}
		}
		check(root)
	}
}

// TestExplainAnalyzeFeedback checks profiled runs stream per-operator
// (est, actual) pairs into the engine's feedback log.
func TestExplainAnalyzeFeedback(t *testing.T) {
	e, _ := analyzeEngine(t, 1000)
	fb := NewFeedbackLog(0)
	e.Feedback = fb
	if _, err := e.Execute("EXPLAIN ANALYZE SELECT a FROM big WHERE b < 10"); err != nil {
		t.Fatal(err)
	}
	entries := fb.Entries()
	if len(entries) < 3 {
		t.Fatalf("%d feedback observations, want >= 3", len(entries))
	}
	sawScan := false
	for _, o := range entries {
		if strings.HasPrefix(o.Op, "Scan") {
			sawScan = true
			if o.Actual != 1000 {
				t.Errorf("scan actual = %v, want 1000", o.Actual)
			}
			if o.Est <= 0 {
				t.Errorf("scan est = %v, want positive", o.Est)
			}
		}
	}
	if !sawScan {
		t.Error("no Scan observation in feedback log")
	}
	// Plain SELECTs must not pollute the feedback channel.
	before := fb.Total()
	if _, err := e.Execute("SELECT a FROM big WHERE b < 10"); err != nil {
		t.Fatal(err)
	}
	if fb.Total() != before {
		t.Error("unprofiled SELECT recorded feedback")
	}
}

// TestStatementsCaptureQueries checks a plain SELECT and an EXPLAIN
// ANALYZE of it land in the statement store as two calls of one entry:
// the plan shape's fingerprint, the first text seen, latency tracked.
func TestStatementsCaptureQueries(t *testing.T) {
	e, _ := analyzeEngine(t, 500)
	if _, err := e.Execute("SELECT a FROM big WHERE b < 10"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute("EXPLAIN ANALYZE SELECT a FROM big WHERE b < 10"); err != nil {
		t.Fatal(err)
	}
	stats := e.Stmts().Snapshot()
	if len(stats) != 1 {
		t.Fatalf("statement store holds %d entries, want 1 (one statement, profiled or not): %+v", len(stats), stats)
	}
	s := stats[0]
	if s.Calls != 2 || s.Errors != 0 {
		t.Errorf("calls = %d, errors = %d, want 2 and 0", s.Calls, s.Errors)
	}
	if !strings.Contains(s.Fingerprint, "Scan(big)") {
		t.Errorf("fingerprint %q missing Scan(big)", s.Fingerprint)
	}
	if s.MinNs <= 0 || s.MaxNs < s.MinNs || s.LastSeenNs < s.FirstSeenNs {
		t.Errorf("latency/recency not tracked: %+v", s)
	}
	if s.Query != "SELECT a FROM big WHERE b < 10" {
		t.Errorf("kept text = %q, want the first-seen SELECT", s.Query)
	}
}

// TestStatementsChaosAttribution is the chaos-interplay check: a fault
// that fires during a run is charged to that run's statement, once;
// quiet runs add nothing.
func TestStatementsChaosAttribution(t *testing.T) {
	tr := obs.NewTracer(4)
	e := NewEngine()
	e.Instrument(obs.NewRegistry(), tr)
	// Latency faults on every other scan consult: alternating queries
	// absorb a fault, so attribution must be per-run, not cumulative.
	e.Chaos = chaos.New(3).Add(chaos.Rule{
		Site: exec.SiteExecScan, Kind: chaos.Latency, Every: 2, Delay: 5,
	})
	if _, err := e.Execute("CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute("INSERT INTO t VALUES (1), (2), (3)"); err != nil {
		t.Fatal(err)
	}
	var withFault, without int
	var charged int64
	for i := 0; i < 6; i++ {
		if _, err := e.Execute("SELECT a FROM t WHERE a > 0"); err != nil {
			t.Fatal(err)
		}
		stats := e.Stmts().Snapshot()
		if len(stats) != 1 {
			t.Fatalf("statement store = %+v, want one entry", stats)
		}
		switch n := stats[0].ChaosFires - charged; n {
		case 1:
			withFault++
		case 0:
			without++
		default:
			t.Errorf("query %d charged %d fires, want 0 or 1", i, n)
		}
		charged = stats[0].ChaosFires
	}
	if withFault != 3 || without != 3 {
		t.Errorf("fault attribution split %d/%d, want 3/3 (Every:2 over 6 queries)", withFault, without)
	}
}

// TestExplainAnalyzeLegacyTableForm: the old `EXPLAIN ANALYZE t`
// spelling is a parse error that refreshes nothing; `ANALYZE t` is the
// one statistics refresh.
func TestExplainAnalyzeLegacyTableForm(t *testing.T) {
	e := NewEngine()
	if _, err := e.Execute("CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute("INSERT INTO t VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}
	tab, err := e.Cat.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute("EXPLAIN ANALYZE t"); err == nil || tab.Stats != nil {
		t.Fatalf("EXPLAIN ANALYZE <table>: err = %v, stats = %v; want a parse error and no refresh", err, tab.Stats)
	}
	if _, err := e.Execute("ANALYZE t"); err != nil || tab.Stats == nil {
		t.Fatalf("ANALYZE t: err = %v, stats = %v", err, tab.Stats)
	}
}

// TestExplainShowsPlacementAndColumns: EXPLAIN and EXPLAIN ANALYZE of a
// join_top-shaped statement show what the planner decided — each filter
// conjunct under the join, on the input it reads, estimated from that
// table's histogram; each scan listing the columns it decodes — and the
// statement fingerprint depends on neither literals nor column sets.
func TestExplainShowsPlacementAndColumns(t *testing.T) {
	e := NewEngine()
	var sb strings.Builder
	sb.WriteString("CREATE TABLE users (id INT, age INT, city TEXT, score FLOAT, churned INT); INSERT INTO users VALUES ")
	for i := 0; i < 3000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, 'c%d', %d.5, 0)", i, 18+i%60, i%16, i%100)
	}
	sb.WriteString("; CREATE TABLE orders (id INT, user_id INT, amount FLOAT); INSERT INTO orders VALUES ")
	for i := 0; i < 6000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d.25)", i, (i*13)%3000, (i*7)%520)
	}
	sb.WriteString("; ANALYZE users; ANALYZE orders")
	if _, err := e.ExecuteScript(sb.String()); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT users.id, orders.amount FROM users JOIN orders ON users.id = orders.user_id WHERE orders.amount > 499 AND users.age = 30 ORDER BY orders.amount DESC LIMIT 5"

	// operators lists the lines of a plan rendering from the join down,
	// with each line's depth.
	type line struct {
		depth int
		text  string
		row   catalog.Row
	}
	underJoin := func(res *exec.Result) []line {
		var out []line
		for _, r := range res.Rows {
			for _, l := range strings.Split(strings.TrimRight(r[0].(string), "\n"), "\n") {
				text := strings.TrimLeft(l, " ")
				if len(out) > 0 || strings.HasPrefix(text, "HashJoin") {
					out = append(out, line{(len(l) - len(text)) / 2, text, r})
				}
			}
		}
		return out
	}
	// The plan shown is the one the statement runs: its WHERE literals
	// are parameters ($1, $2 in order of appearance), its LIMIT is not.
	want := []string{
		"HashJoin users.id = orders.user_id",
		"Filter (users.age = $2)",
		"Scan users [id, age] AS users (3000 rows)",
		"Filter (orders.amount > $1)",
		"Scan orders [user_id, amount] AS orders (6000 rows)",
	}
	for _, stmt := range []string{"EXPLAIN " + q, "EXPLAIN ANALYZE " + q} {
		res, err := e.Execute(stmt)
		if err != nil {
			t.Fatal(err)
		}
		got := underJoin(res)
		if len(got) != len(want) {
			t.Fatalf("%s: %d operators from the join down, want %d:\n%v", stmt, len(got), len(want), res.Rows)
		}
		for i, l := range got {
			if l.text != want[i] {
				t.Errorf("%s: operator %d is %q, want %q", stmt, i, l.text, want[i])
			}
		}
		if got[1].depth != got[0].depth+1 || got[3].depth != got[0].depth+1 || got[2].depth != got[1].depth+1 {
			t.Errorf("%s: filters are not the join's inputs:\n%v", stmt, res.Rows)
		}
		if len(res.Columns) == 1 {
			continue // EXPLAIN: the tree only
		}
		// est_rows: each filter is estimated against the table it reads,
		// not with a default over the joined rows, and for the values this
		// statement binds to its parameters — users.age from its histogram
		// (1/60 of 3000), orders.amount, a FLOAT column ANALYZE builds no
		// histogram for, from the table's zones: within twice the 240 rows
		// that come out.
		if actual := got[3].row[2].(int64); actual != 240 {
			t.Errorf("%s: actual_rows = %d, want 240", got[3].text, actual)
		}
		for i, bound := range map[int][2]int64{1: {25, 100}, 3: {120, 480}} {
			if est := got[i].row[1].(int64); est < bound[0] || est > bound[1] {
				t.Errorf("%s: est_rows = %d, want within %v", got[i].text, est, bound)
			}
		}
		if joined, answer := got[0].row[2].(int64), got[1].row[2].(int64); joined > answer {
			t.Errorf("join produced %d rows from %d filtered users: filters did not run first", joined, answer)
		}
	}

	fingerprint := func(q string) string {
		t.Helper()
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		p, err := e.buildPlan(stmt, nil)
		if err != nil {
			t.Fatal(err)
		}
		return plan.Fingerprint(p)
	}
	fp := fingerprint(q)
	if wantFP := "Project(Limit(Sort(HashJoin[users.id=orders.user_id](Filter(Scan(users)),Filter(Scan(orders))))))"; fp != wantFP {
		t.Errorf("fingerprint = %s\nwant          %s", fp, wantFP)
	}
	other := strings.NewReplacer("499", "12.5", "30", "77", "SELECT users.id,", "SELECT users.city, users.score,").Replace(q)
	if got := fingerprint(other); got != fp {
		t.Errorf("fingerprint depends on literals or on the columns read:\n%s\n%s", fp, got)
	}
}

// TestAdhocStatementIsObservableAsSent: an ad-hoc statement runs a plan
// that is parameterised and shared, and every surface says so without
// losing what the client sent. EXPLAIN shows the plan as it runs ($1 in
// the index bounds); the query span carries stmt, plancache=hit|miss and
// plan tags; the statement store keeps the client's text — neither the
// cache key nor an EXECUTE.
func TestAdhocStatementIsObservableAsSent(t *testing.T) {
	tr := obs.NewTracer(8)
	tr.EnableExport(8)
	e := seedIndexed(t, 50)
	e.Instrument(obs.NewRegistry(), tr)
	e.Plans = plancache.New(0)

	const first, second = "SELECT id, qty FROM items WHERE id = 5", "SELECT id, qty FROM items WHERE id = 17"
	for _, c := range []struct{ text, cache string }{{first, "miss"}, {second, "hit"}} {
		res, err := e.Execute(c.text)
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("%s: %v, %v", c.text, res, err)
		}
		exports := tr.Exports()
		tags := exports[len(exports)-1].Tags
		if tags["stmt"] != "SELECT" || tags["plancache"] != c.cache || tags["plan"] != "nodes=3,depth=3" {
			t.Errorf("%s: span tags %v, want stmt=SELECT plancache=%s plan=nodes=3,depth=3", c.text, tags, c.cache)
		}
		if last := tr.Last(); c.cache == "hit" && (len(last.Children()) != 1 || last.Children()[0].Name != "exec") {
			t.Errorf("a hit's span has children other than exec:\n%s", last.Dump())
		}
	}

	res, err := e.Execute("EXPLAIN SELECT id, qty FROM items WHERE id = 5")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].(string); !strings.Contains(got, "IndexScan items.id ∈ [$1, $1]") || !strings.Contains(got, "Filter (id = $1)") {
		t.Errorf("EXPLAIN does not show the plan the statement runs:\n%s", got)
	}
	ents := e.Plans.Entries()
	if len(ents) != 1 || ents[0].Key != "SELECT id, qty FROM items WHERE id = $1" || ents[0].Hits() != 2 || ents[0].NumParams != 1 {
		t.Errorf("cache entries %+v, want the one shape, hit by the second statement and by EXPLAIN", ents)
	}

	stats := e.Stmts().Snapshot()
	if len(stats) != 1 || stats[0].Query != first || stats[0].Calls != 2 {
		t.Errorf("statement store %+v, want one statement, 2 calls, the first text %q", stats, first)
	}
}

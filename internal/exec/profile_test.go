package exec

import (
	"fmt"
	"runtime"
	"testing"

	"aidb/internal/obs"
	"aidb/internal/plan"
	"aidb/internal/sql"
)

func profPlan(t testing.TB, q string) (plan.Node, *Executor) {
	t.Helper()
	c := benchCatalog(t, 4000)
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(c, stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	p = plan.OptimizeFilters(p)
	return p, New(nil)
}

// TestProfileTree checks that a profiled run fills in every operator:
// actual rows at the root match the result, leaf scans see the table
// cardinality, and estimates are frozen from the planner's cost model.
func TestProfileTree(t *testing.T) {
	p, ex := profPlan(t, "SELECT id FROM users WHERE age > 40")
	prof := NewQueryProfile(p, nil)
	ex.Profile = prof
	res, err := ex.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Root == nil {
		t.Fatal("no profile root")
	}
	if got := prof.Root.ActualRows(); got != int64(len(res.Rows)) {
		t.Errorf("root actual rows = %d, result has %d", got, len(res.Rows))
	}
	ops := 0
	var scan *OpProfile
	prof.Walk(func(op *OpProfile, depth int) {
		ops++
		if op.Kind == "Scan" {
			scan = op
		}
		if op.EstRows <= 0 {
			t.Errorf("%s: estimate %v not positive", op.Kind, op.EstRows)
		}
	})
	if ops < 3 {
		t.Fatalf("profile tree has %d operators, want >= 3 (project/filter/scan)", ops)
	}
	if scan == nil {
		t.Fatal("no Scan operator in profile")
	}
	if scan.ActualRows() != 4000 {
		t.Errorf("scan actual rows = %d, want 4000", scan.ActualRows())
	}
	if s := prof.Summary(); s == "" {
		t.Error("empty profile summary")
	}
}

// TestProfileParallelIdentity runs the same profiled plans at
// parallelism 1, 2 and NumCPU and requires identical per-operator
// actual row counts — the morsel contract (serial-identical results)
// extended to the profile plane. Run under -race this also exercises
// the worker-side atomic counters.
func TestProfileParallelIdentity(t *testing.T) {
	for _, q := range []string{
		"SELECT id FROM users WHERE age > 40",
		"SELECT users.id FROM orders JOIN users ON orders.uid = users.id",
		"SELECT age, COUNT(*), AVG(id) FROM users GROUP BY age",
	} {
		p, _ := profPlan(t, q)
		type run struct {
			rows    []int64
			results int
		}
		runs := map[int]run{}
		for _, workers := range []int{1, 2, runtime.NumCPU()} {
			ex := New(nil)
			ex.Parallelism = workers
			ex.MorselSize = 256 // force multi-morsel dispatch on 4k rows
			prof := NewQueryProfile(p, nil)
			ex.Profile = prof
			res, err := ex.Run(p)
			if err != nil {
				t.Fatalf("%s @%d: %v", q, workers, err)
			}
			var rows []int64
			prof.Walk(func(op *OpProfile, _ int) { rows = append(rows, op.ActualRows()) })
			runs[workers] = run{rows: rows, results: len(res.Rows)}
		}
		base := runs[1]
		for workers, r := range runs {
			if r.results != base.results {
				t.Errorf("%s: %d results @%d workers, %d serially", q, r.results, workers, base.results)
			}
			if fmt.Sprint(r.rows) != fmt.Sprint(base.rows) {
				t.Errorf("%s: per-operator actuals @%d workers = %v, serial = %v", q, workers, r.rows, base.rows)
			}
		}
	}
}

// TestProfileMorselAttribution checks that morsel and worker counts
// land on the source that dispatched them, while fused stages report
// the chunks that flowed through them. In the streaming pipeline the
// filter runs inside the scan's workers, so the scan owns the fan-out
// and the filter owns only its row/chunk accounting.
func TestProfileMorselAttribution(t *testing.T) {
	p, ex := profPlan(t, "SELECT id FROM users WHERE age > 40")
	ex.Parallelism = 4
	ex.MorselSize = 256
	ex.ScanMorselPages = 1
	prof := NewQueryProfile(p, nil)
	ex.Profile = prof
	if _, err := ex.Run(p); err != nil {
		t.Fatal(err)
	}
	var scan, filter *OpProfile
	prof.Walk(func(op *OpProfile, _ int) {
		switch op.Kind {
		case "Scan":
			scan = op
		case "Filter":
			filter = op
		}
	})
	if scan == nil || filter == nil {
		t.Fatal("missing Scan or Filter operator")
	}
	// 4000 rows at one page per morsel span many morsels, all owned by
	// the scan.
	if got := scan.Morsels(); got <= 1 {
		t.Errorf("scan morsels = %d, want > 1", got)
	}
	if got := scan.WorkerSpawns(); got != 4 {
		t.Errorf("scan worker spawns = %d, want 4", got)
	}
	if u := scan.Utilization(); u <= 0 || u > 1 {
		t.Errorf("scan utilization %v outside (0,1]", u)
	}
	if got := scan.Chunks(); got <= 1 {
		t.Errorf("scan chunks = %d, want > 1", got)
	}
	// The fused filter dispatches nothing itself but sees every chunk.
	if got := filter.Morsels(); got != 0 {
		t.Errorf("fused filter morsels = %d, want 0", got)
	}
	if got := filter.WorkerSpawns(); got != 0 {
		t.Errorf("fused filter worker spawns = %d, want 0", got)
	}
	if got := filter.Chunks(); got <= 1 {
		t.Errorf("filter chunks = %d, want > 1", got)
	}
}

// TestProfileAttachSpans grafts a profile under a span and checks the
// span tree mirrors the operator tree with singly-finished spans.
func TestProfileAttachSpans(t *testing.T) {
	p, ex := profPlan(t, "SELECT id FROM users WHERE age > 40")
	prof := NewQueryProfile(p, nil)
	ex.Profile = prof
	if _, err := ex.Run(p); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(4)
	sp := tr.Start("exec")
	prof.AttachSpans(sp)
	sp.Finish()
	var count func(s *obs.Span) int
	count = func(s *obs.Span) int {
		n := 0
		for _, c := range s.Children() {
			if c.Finishes() != 1 {
				t.Errorf("span %s finished %d times", c.Name, c.Finishes())
			}
			n += 1 + count(c)
		}
		return n
	}
	ops := 0
	prof.Walk(func(*OpProfile, int) { ops++ })
	if got := count(sp); got != ops {
		t.Errorf("span tree has %d op spans, profile has %d operators", got, ops)
	}
}

// TestProfileOffOverhead guards the EXPLAIN ANALYZE bargain by count,
// not by clock (BenchmarkExec/profile-{off,on} times it): without a
// profile no operator is wrapped for profiling, and Run allocates exactly
// what the executor body (execNode) does plus the Result it returns.
func TestProfileOffOverhead(t *testing.T) {
	for _, q := range []string{
		"SELECT age, COUNT(*) FROM users WHERE id > 5 GROUP BY age ORDER BY age LIMIT 3",
		"SELECT DISTINCT users.age FROM orders JOIN users ON orders.uid = users.id",
	} {
		p, _ := profPlan(t, q)
		var walk func(n plan.Node)
		walk = func(n plan.Node) {
			for _, profile := range []*QueryProfile{nil, NewQueryProfile(p, nil)} {
				ex := New(nil)
				ex.Profile = profile
				op, _, err := ex.compile(&runCtx{}, n)
				if err != nil {
					t.Fatal(err)
				}
				_, wrapped := op.(*profiledOp)
				breaker := opKind(n) == "HashJoin" || opKind(n) == "Aggregate" || opKind(n) == "Sort" || opKind(n) == "Limit" || opKind(n) == "Distinct"
				if wrapped != (profile != nil && breaker) {
					t.Errorf("%s: %s compiled to %T with profile %v", q, opKind(n), op, profile != nil)
				}
				op.Close()
			}
			for _, c := range n.Children() {
				walk(c)
			}
		}
		walk(p)

		if raceEnabled {
			continue
		}
		ex := New(nil)
		ex.Parallelism = 1
		wrapped := testing.AllocsPerRun(20, func() {
			if _, err := ex.Run(p); err != nil {
				t.Fatal(err)
			}
		})
		direct := testing.AllocsPerRun(20, func() {
			if _, err := ex.execNode(nil, p); err != nil {
				t.Fatal(err)
			}
		})
		if wrapped != direct+1 {
			t.Errorf("%s: Run allocates %.0f times, execNode %.0f: want exactly one more (the Result)", q, wrapped, direct)
		}
	}
}

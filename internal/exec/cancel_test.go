package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"aidb/internal/catalog"
	"aidb/internal/chaos"
	"aidb/internal/governance"
	"aidb/internal/obs"
	"aidb/internal/sql"
)

// oneTableSetup builds a single wide heap table with n rows — enough to
// span many scan morsels at ScanMorselPages=1.
func oneTableSetup(t testing.TB, n int) *catalog.Catalog {
	t.Helper()
	c := catalog.NewMem()
	tab, err := c.CreateTable("big", catalog.Schema{Columns: []catalog.Column{
		{Name: "id", Type: catalog.Int64},
		{Name: "v", Type: catalog.Int64},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := tab.Insert(catalog.Row{int64(i), int64(i % 97)}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestCancelMidFilterStopsWithinMorselBudget is the tentpole assertion:
// a query cancelled mid-execution stops within about one morsel per
// worker. A scalar function cancels the context on its trigger-th call
// and counts every call after the cancel; the overshoot must be bounded
// by the in-flight work — one chunk per worker — at parallelism 1, 2 and
// NumCPU. Run under -race this
// also shakes out unsynchronized teardown.
func TestCancelMidFilterStopsWithinMorselBudget(t *testing.T) {
	const rows = 100_000
	const trigger = 10_000
	c := oneTableSetup(t, rows)
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var calls, after atomic.Int64
			funcs := FuncRegistry{
				"TRIP": func(args []catalog.Value) (catalog.Value, error) {
					n := calls.Add(1)
					if n == trigger {
						cancel()
					}
					if n > trigger {
						after.Add(1)
					}
					return args[0], nil
				},
			}
			ex := New(funcs)
			ex.Parallelism = workers
			ex.MorselSize = 64
			ex.ScanMorselPages = 1
			p := mustPlan(t, c, "SELECT id FROM big WHERE TRIP(v) >= 0")
			res, err := ex.RunContext(ctx, p)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if res != nil {
				t.Fatalf("cancelled query returned a partial result (%d rows)", len(res.Rows))
			}
			// Overshoot budget: every worker may finish its in-flight
			// chunk — MorselSize rows, rounded up to a whole page.
			w := workers
			if w == 0 {
				w = runtime.NumCPU()
			}
			tab, _ := c.Table("big")
			budget := int64(w * (ex.MorselSize + rows/len(tab.PageIDs()) + 1))
			if got := after.Load(); got > budget {
				t.Fatalf("%d evaluations after cancel, budget %d (workers=%d)", got, budget, w)
			}
		})
	}
}

// TestCancelMidScanStopsWithinMorsel is the ISSUE acceptance case: a
// 100k-row table scan whose injected per-morsel latency is real is
// cancelled mid-scan and must stop within one morsel, not run the scan
// to completion. Chaos consults the latency site once per scan morsel,
// so the consult count at exit measures exactly how far past the
// cancellation the scan got.
func TestCancelMidScanStopsWithinMorsel(t *testing.T) {
	c := oneTableSetup(t, 100_000)
	in := chaos.New(1).Add(chaos.Rule{Site: SiteExecScan, Kind: chaos.Latency, Delay: 1})
	in.SetTimeUnit(2 * time.Millisecond)
	ex := New(nil)
	ex.Chaos = in
	ex.ScanMorselPages = 1
	p := mustPlan(t, c, "SELECT id FROM big")
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := ex.RunContext(ctx, p)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled scan returned a result")
	}
	tab, terr := c.Table("big")
	if terr != nil {
		t.Fatal(terr)
	}
	total := len(tab.PageIDs())
	consulted := int(in.Hits(SiteExecScan))
	if consulted >= total {
		t.Fatalf("scan consulted all %d morsels despite cancellation", total)
	}
	// One in-flight morsel sleep may finish after cancel; anything close
	// to the full schedule means the sleep ignored the context.
	if elapsed > time.Duration(total)*2*time.Millisecond/2 {
		t.Fatalf("cancelled scan ran %v, full schedule is %v", elapsed, time.Duration(total)*2*time.Millisecond)
	}
}

// TestCancelNoGoroutineLeaks: repeated cancelled parallel queries must
// not strand morsel workers — NumGoroutine settles back to baseline.
func TestCancelNoGoroutineLeaks(t *testing.T) {
	c := oneTableSetup(t, 20_000)
	baseline := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		funcs := FuncRegistry{
			"TRIP": func(args []catalog.Value) (catalog.Value, error) {
				if calls.Add(1) == 500 {
					cancel()
				}
				return args[0], nil
			},
		}
		ex := New(funcs)
		ex.Parallelism = runtime.NumCPU()
		ex.MorselSize = 64
		ex.ScanMorselPages = 1
		p := mustPlan(t, c, "SELECT id FROM big WHERE TRIP(v) >= 0")
		if _, err := ex.RunContext(ctx, p); !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: err = %v, want context.Canceled", i, err)
		}
		cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelMetricsRecorded: a cancelled run shows up in cancel.requests
// and cancel.latency_ns on the registry (the `\metrics` surface).
func TestCancelMetricsRecorded(t *testing.T) {
	c := oneTableSetup(t, 20_000)
	reg := obs.NewRegistry()
	ex := New(nil)
	ex.Obs = NewMetrics(reg)
	p := mustPlan(t, c, "SELECT id FROM big")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ex.RunContext(ctx, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ex.Obs.CancelRequests.Value(); got != 1 {
		t.Fatalf("cancel.requests = %d, want 1", got)
	}
	snap := reg.Snapshot()
	if snap["cancel.latency_ns.count"] != 1 {
		t.Fatalf("cancel.latency_ns.count = %v, want 1 (snapshot %v)", snap["cancel.latency_ns.count"], snap)
	}
}

// TestDeadlineExceededPropagates: a context deadline behaves exactly
// like explicit cancellation (the \timeout path).
func TestDeadlineExceededPropagates(t *testing.T) {
	c := oneTableSetup(t, 50_000)
	in := chaos.New(1).Add(chaos.Rule{Site: SiteExecScan, Kind: chaos.Latency, Delay: 1})
	in.SetTimeUnit(2 * time.Millisecond)
	ex := New(nil)
	ex.Chaos = in
	ex.ScanMorselPages = 1
	p := mustPlan(t, c, "SELECT id FROM big")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	res, err := ex.RunContext(ctx, p)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res != nil {
		t.Fatal("timed-out query returned a result")
	}
}

// TestMemBudgetAbortsQuery: a query whose materialized rows blow the
// per-query budget aborts with ErrMemBudget (never a partial result),
// while a generous budget lets the same query finish and records its
// charges.
func TestMemBudgetAbortsQuery(t *testing.T) {
	c := oneTableSetup(t, 50_000)
	reg := obs.NewRegistry()
	m := governance.NewMetrics(reg)
	p := mustPlan(t, c, "SELECT id, v FROM big WHERE v >= 0")

	ex := New(nil)
	ex.Mem = governance.NewMemBudget(64*1024, m) // far below 50k rows
	res, err := ex.Run(p)
	if !errors.Is(err, governance.ErrMemBudget) {
		t.Fatalf("err = %v, want ErrMemBudget", err)
	}
	if res != nil {
		t.Fatal("budget-aborted query returned a result")
	}
	if m.MemAborts.Value() != 1 {
		t.Fatalf("mem.aborts = %d, want 1", m.MemAborts.Value())
	}

	ex2 := New(nil)
	ex2.Mem = governance.NewMemBudget(1<<30, m)
	res, err = ex2.Run(p)
	if err != nil {
		t.Fatalf("generous budget: %v", err)
	}
	if len(res.Rows) != 50_000 {
		t.Fatalf("got %d rows, want 50000", len(res.Rows))
	}
	if ex2.Mem.Used() <= 0 {
		t.Fatal("budget recorded no usage")
	}
	if m.MemCharged.Value() == 0 {
		t.Fatal("mem.charged never incremented")
	}
}

// TestMemBudgetParallelJoinAborts exercises budget charging from
// concurrent morsel workers (join build/probe) under -race.
func TestMemBudgetParallelJoinAborts(t *testing.T) {
	c := bigSetup(t, 3000)
	m := governance.Metrics{}
	p := mustPlan(t, c, "SELECT users.id, orders.amount FROM orders JOIN users ON orders.uid = users.id")
	ex := parallelExec(runtime.NumCPU())
	ex.Mem = governance.NewMemBudget(16*1024, m)
	res, err := ex.Run(p)
	if !errors.Is(err, governance.ErrMemBudget) {
		t.Fatalf("err = %v, want ErrMemBudget", err)
	}
	if res != nil {
		t.Fatal("budget-aborted join returned a result")
	}
}

// TestRunContextNilAndBackground: Run and a background RunContext are
// unaffected by the governance plumbing — the no-context fast path.
func TestRunContextNilAndBackground(t *testing.T) {
	c := oneTableSetup(t, 1000)
	p := mustPlan(t, c, "SELECT COUNT(*) FROM big")
	ex := New(nil)
	res, err := ex.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 1000 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
}

// mustPlanStmt keeps the sql import honest (Parse is exercised through
// mustPlan; this guards against accidental helper drift).
var _ = sql.Parse

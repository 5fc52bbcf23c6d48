package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"aidb/internal/chaos"
	"aidb/internal/exec"
	"aidb/internal/governance"
)

// seedTable loads n rows into a fresh table t(a, b).
func seedTable(t *testing.T, db *DB, n int) {
	t.Helper()
	if _, err := db.Exec("CREATE TABLE t (a INT, b INT)"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i%50)
	}
	if _, err := db.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}
}

// TestExecContextCancelled: a cancelled context aborts the statement
// end to end and the cancel.* metrics surface on the registry.
func TestExecContextCancelled(t *testing.T) {
	db := Open()
	seedTable(t, db, 2000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := db.ExecContext(ctx, "SELECT COUNT(*) FROM t")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled statement returned a result")
	}
	snap := db.Metrics().Snapshot()
	if snap["cancel.requests"] != 1 {
		t.Fatalf("cancel.requests = %v, want 1", snap["cancel.requests"])
	}
}

// TestDefaultTimeoutApplies: SetTimeout bounds statements whose context
// carries no deadline (the \timeout path), using real injected latency
// to make the scan slow.
func TestDefaultTimeoutApplies(t *testing.T) {
	db := Open()
	seedTable(t, db, 5000)
	in := chaos.New(1).Add(chaos.Rule{Site: exec.SiteExecScan, Kind: chaos.Latency, Delay: 1})
	in.SetTimeUnit(5 * time.Millisecond)
	db.Engine().Chaos = in
	db.SetTimeout(15 * time.Millisecond)
	start := time.Now()
	_, err := db.ExecContext(context.Background(), "SELECT COUNT(*) FROM t")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timed-out statement ran %v", elapsed)
	}
	db.SetTimeout(0)
	db.Engine().Chaos = nil
	if _, err := db.Exec("SELECT COUNT(*) FROM t"); err != nil {
		t.Fatalf("after clearing timeout: %v", err)
	}
}

// TestMaxConcurrentBoundsStatements: with the gate at 2, concurrent
// statements never exceed two in flight, and admission metrics count
// every admit.
func TestMaxConcurrentBoundsStatements(t *testing.T) {
	db := Open()
	seedTable(t, db, 3000)
	db.SetMaxConcurrent(2)
	if db.MaxConcurrent() != 2 {
		t.Fatalf("MaxConcurrent = %d", db.MaxConcurrent())
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			if _, err := db.ExecContext(context.Background(), "SELECT COUNT(*) FROM t"); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	snap := db.Metrics().Snapshot()
	// seedTable's three statements ran before the bound; the 8 SELECTs
	// after. All pass the gate.
	if snap["admission.admitted"] < goroutines {
		t.Fatalf("admission.admitted = %v, want >= %d", snap["admission.admitted"], goroutines)
	}
	if snap["admission.shed"] != 0 {
		t.Fatalf("admission.shed = %v, want 0", snap["admission.shed"])
	}
	db.SetMaxConcurrent(0)
}

// TestShedExpiredDeadline: a statement whose deadline has already
// passed is shed at the gate without executing.
func TestShedExpiredDeadline(t *testing.T) {
	db := Open()
	seedTable(t, db, 100)
	db.SetMaxConcurrent(1)
	defer db.SetMaxConcurrent(0)
	// Hold the only slot so the doomed statement must queue.
	release, err := db.AdmissionGate().Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = db.ExecContext(ctx, "SELECT COUNT(*) FROM t")
	release()
	if !errors.Is(err, governance.ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	if snap := db.Metrics().Snapshot(); snap["admission.shed"] != 1 {
		t.Fatalf("admission.shed = %v, want 1", snap["admission.shed"])
	}
}

// TestExecRetryRecoversFromInjectedFault: a chaos Error rule that fires
// once makes the first attempt fail transiently; ExecRetry succeeds on
// the second attempt and the retry metric records it.
func TestExecRetryRecoversFromInjectedFault(t *testing.T) {
	db := Open()
	seedTable(t, db, 500)
	db.Engine().Chaos = chaos.New(1).Add(chaos.Rule{Site: exec.SiteExecScan, Kind: chaos.Error, Limit: 1})
	res, err := db.ExecRetry(context.Background(), "SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatalf("ExecRetry: %v", err)
	}
	if res.Rows[0][0].(int64) != 500 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	if snap := db.Metrics().Snapshot(); snap["retry.attempts"] != 1 {
		t.Fatalf("retry.attempts = %v, want 1", snap["retry.attempts"])
	}
}

// TestExecRetryPermanentFailsFast: a parse error is permanent — no
// retries are burned on it.
func TestExecRetryPermanentFailsFast(t *testing.T) {
	db := Open()
	if _, err := db.ExecRetry(context.Background(), "SELECT FROM WHERE"); err == nil {
		t.Fatal("want parse error")
	}
	if snap := db.Metrics().Snapshot(); snap["retry.attempts"] != 0 {
		t.Fatalf("retry.attempts = %v, want 0", snap["retry.attempts"])
	}
}

// TestMemBudgetEndToEnd: the \maxmem path — a tiny budget aborts a wide
// materializing query with ErrMemBudget, clearing it lets it run.
func TestMemBudgetEndToEnd(t *testing.T) {
	db := Open()
	seedTable(t, db, 20_000)
	db.SetMemBudget(32 * 1024)
	if db.MemBudget() != 32*1024 {
		t.Fatalf("MemBudget = %d", db.MemBudget())
	}
	_, err := db.Exec("SELECT a, b FROM t WHERE b >= 0")
	if !errors.Is(err, governance.ErrMemBudget) {
		t.Fatalf("err = %v, want ErrMemBudget", err)
	}
	if snap := db.Metrics().Snapshot(); snap["mem.aborts"] != 1 {
		t.Fatalf("mem.aborts = %v, want 1", snap["mem.aborts"])
	}
	db.SetMemBudget(0)
	res, err := db.Exec("SELECT a, b FROM t WHERE b >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 20_000 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
}

// TestExplainAnalyzeMemBudget: EXPLAIN ANALYZE runs its statement under
// the same per-query memory budget as the statement itself.
func TestExplainAnalyzeMemBudget(t *testing.T) {
	db := Open()
	seedTable(t, db, 20_000)
	db.SetMemBudget(64 * 1024)
	for _, q := range []string{
		"SELECT a, b FROM t ORDER BY b",
		"EXPLAIN ANALYZE SELECT a, b FROM t ORDER BY b",
	} {
		if _, err := db.Exec(q); !errors.Is(err, governance.ErrMemBudget) {
			t.Errorf("%s: err = %v, want ErrMemBudget", q, err)
		}
	}
}

// TestExecScriptGoverned: the script path (what the REPL uses) passes
// every statement through the same governance plane as ExecContext —
// each statement is admitted individually and the default timeout
// applies per statement, not to the whole script.
func TestExecScriptGoverned(t *testing.T) {
	db := Open()
	db.SetMaxConcurrent(2)
	if _, err := db.ExecScript(`CREATE TABLE s (a INT);
		INSERT INTO s VALUES (1), (2), (3);
		SELECT a FROM s;`); err != nil {
		t.Fatal(err)
	}
	snap := db.Metrics().Snapshot()
	if got := snap["admission.admitted"]; got != 3 {
		t.Fatalf("admission.admitted = %v, want 3 (one per statement)", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.ExecScriptContext(ctx, "SELECT a FROM s;"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestGovernanceGaugesDrainToZero: after a storm of concurrent,
// cancelled, and shed statements the admission gauges must read 0 —
// a leaked slot or queue entry would poison every later time-series
// window and anomaly baseline built from these gauges.
func TestGovernanceGaugesDrainToZero(t *testing.T) {
	db := Open()
	seedTable(t, db, 3000)
	db.SetMaxConcurrent(2)
	defer db.SetMaxConcurrent(0)
	gauges := func() (float64, float64) {
		snap := db.Metrics().Snapshot()
		return snap["admission.active"], snap["admission.queue_depth"]
	}
	if a, q := gauges(); a != 0 || q != 0 {
		t.Fatalf("pre-storm gauges active=%v queue=%v, want 0/0", a, q)
	}
	// Saturate the gate and shed a dead-on-arrival statement so the
	// storm below is guaranteed to include the shed path.
	r1, err := db.AdmissionGate().Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := db.AdmissionGate().Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := gauges(); a != 2 {
		t.Fatalf("admission.active = %v with both slots held, want 2", a)
	}
	doa, cancelDoa := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	if _, err := db.ExecContext(doa, "SELECT COUNT(*) FROM t"); !errors.Is(err, governance.ErrShed) {
		t.Fatalf("saturated-gate err = %v, want ErrShed", err)
	}
	cancelDoa()
	r1()
	r2()
	const goroutines = 12
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer wg.Done()
			switch g % 3 {
			case 0:
				// Normal statement, queues behind the bound.
				_, _ = db.ExecContext(context.Background(), "SELECT COUNT(*) FROM t")
			case 1:
				// Cancelled mid-flight or while queued.
				ctx, cancel := context.WithCancel(context.Background())
				go func() {
					time.Sleep(time.Duration(g) * 100 * time.Microsecond)
					cancel()
				}()
				_, _ = db.ExecContext(ctx, "SELECT COUNT(*) FROM t WHERE b < 40")
			default:
				// Dead on arrival: shed at the gate.
				ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
				_, _ = db.ExecContext(ctx, "SELECT COUNT(*) FROM t")
				cancel()
			}
		}()
	}
	wg.Wait()
	if a, q := gauges(); a != 0 || q != 0 {
		t.Fatalf("post-storm gauges active=%v queue=%v, want 0/0 (leaked admission slot)", a, q)
	}
	// The storm really exercised the gate.
	snap := db.Metrics().Snapshot()
	if snap["admission.admitted"] < 4 {
		t.Errorf("admission.admitted = %v, storm did not admit work", snap["admission.admitted"])
	}
	if snap["admission.shed"] < 1 {
		t.Errorf("admission.shed = %v, storm did not shed work", snap["admission.shed"])
	}
}

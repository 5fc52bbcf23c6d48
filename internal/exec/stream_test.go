package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"aidb/internal/catalog"
	"aidb/internal/governance"
	"aidb/internal/obs"
)

// poolBalance installs the executor's leak-detection seam and returns a
// pointer to the balance observed after each run's pipeline teardown:
// gets - puts over the run's chunk pool. Zero means every pooled chunk
// was recycled — nothing leaked, nothing was double-freed.
func poolBalance(ex *Executor) *atomic.Int64 {
	var bal atomic.Int64
	ex.poolHook = func(p *chunkPool) { bal.Store(p.outstanding()) }
	return &bal
}

// TestStreamPoolBalancedOnSuccess: a completed query accounts for every
// pooled chunk — result chunks are boxed and recycled like the rest —
// across serial and parallel pipelines and every operator shape.
func TestStreamPoolBalancedOnSuccess(t *testing.T) {
	c := bigSetup(t, 4000)
	queries := []string{
		"SELECT id FROM users WHERE age > 40",
		"SELECT users.id, orders.amount FROM orders JOIN users ON orders.uid = users.id",
		"SELECT age, COUNT(*), AVG(id) FROM users GROUP BY age",
		"SELECT id FROM users ORDER BY age LIMIT 7",
		"SELECT DISTINCT age FROM users",
	}
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		for _, q := range queries {
			ex := parallelExec(workers)
			bal := poolBalance(ex)
			p := mustPlan(t, c, q)
			if _, err := ex.Run(p); err != nil {
				t.Fatalf("%s @%d: %v", q, workers, err)
			}
			if got := bal.Load(); got != 0 {
				t.Errorf("%s @%d workers: pool balance = %d, want 0", q, workers, got)
			}
		}
	}
}

// TestStreamPoolBalancedOnLimitEarlyClose: LIMIT tears the upstream
// down before the source is drained — the in-flight chunks buffered in
// worker channels must all be recycled by Close, not stranded.
func TestStreamPoolBalancedOnLimitEarlyClose(t *testing.T) {
	c := oneTableSetup(t, 50_000)
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		ex := New(nil)
		ex.Parallelism = workers
		ex.MorselSize = 128
		ex.ScanMorselPages = 1
		bal := poolBalance(ex)
		p := mustPlan(t, c, "SELECT id FROM big WHERE v >= 0 LIMIT 5")
		res, err := ex.Run(p)
		if err != nil {
			t.Fatalf("@%d workers: %v", workers, err)
		}
		if len(res.Rows) != 5 {
			t.Fatalf("@%d workers: %d rows, want 5", workers, len(res.Rows))
		}
		if got := bal.Load(); got != 0 {
			t.Errorf("@%d workers: pool balance after early close = %d, want 0", workers, got)
		}
	}
}

// TestCancelLeaksNoPooledChunks is the mid-pipeline cancellation leak
// check: a scalar function cancels the context partway through a
// parallel scan-filter, and the pool's get/put balance must
// still be zero after teardown — cancelled workers hand nothing to
// anyone, so Close must sweep every chunk parked in the hand-off
// channels. Run under -race this also shakes the teardown ordering.
func TestCancelLeaksNoPooledChunks(t *testing.T) {
	c := oneTableSetup(t, 50_000)
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for trigger := int64(1); trigger <= 20_001; trigger += 5000 {
				ctx, cancel := context.WithCancel(context.Background())
				var calls atomic.Int64
				funcs := FuncRegistry{
					"TRIP": func(args []catalog.Value) (catalog.Value, error) {
						if calls.Add(1) == trigger {
							cancel()
						}
						return args[0], nil
					},
				}
				ex := New(funcs)
				ex.Parallelism = workers
				ex.MorselSize = 64
				ex.ScanMorselPages = 1
				bal := poolBalance(ex)
				p := mustPlan(t, c, "SELECT id FROM big WHERE TRIP(v) >= 0")
				if _, err := ex.RunContext(ctx, p); !errors.Is(err, context.Canceled) {
					t.Fatalf("trigger %d: err = %v, want context.Canceled", trigger, err)
				}
				if got := bal.Load(); got != 0 {
					t.Errorf("trigger %d: pool balance after cancel = %d, want 0", trigger, got)
				}
				cancel()
			}
		})
	}
}

// TestMemBudgetAbortRefundsCharges: when a query dies on ErrMemBudget,
// every outstanding charge — chunks in flight and rows breakers hold — must
// be refunded, so a shared budget is immediately whole for the next
// query. Covers the scan-materialize abort and the parallel join-build
// abort, at several parallelism levels.
func TestMemBudgetAbortRefundsCharges(t *testing.T) {
	scanCat := oneTableSetup(t, 50_000)
	joinCat := bigSetup(t, 3000)
	cases := []struct {
		name  string
		cat   *catalog.Catalog
		query string
		limit int64
	}{
		{"scan", scanCat, "SELECT id, v FROM big WHERE v >= 0", 64 * 1024},
		{"join", joinCat, "SELECT users.id, orders.amount FROM orders JOIN users ON orders.uid = users.id", 16 * 1024},
		// Streaming aggregation holds only one chunk live at a time, so
		// the budget must undercut a single 64-row chunk to trip.
		{"agg", scanCat, "SELECT v, COUNT(*) FROM big GROUP BY v", 2 * 1024},
		{"sort", scanCat, "SELECT id FROM big ORDER BY v", 64 * 1024},
	}
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		for _, tc := range cases {
			mb := governance.NewMemBudget(tc.limit, governance.Metrics{})
			ex := parallelExec(workers)
			ex.Mem = mb
			bal := poolBalance(ex)
			p := mustPlan(t, tc.cat, tc.query)
			res, err := ex.Run(p)
			if !errors.Is(err, governance.ErrMemBudget) {
				t.Fatalf("%s @%d: err = %v, want ErrMemBudget", tc.name, workers, err)
			}
			if res != nil {
				t.Fatalf("%s @%d: aborted query returned a result", tc.name, workers)
			}
			if used := mb.Used(); used != 0 {
				t.Errorf("%s @%d workers: %d bytes still charged after abort, want 0", tc.name, workers, used)
			}
			if got := bal.Load(); got != 0 {
				t.Errorf("%s @%d workers: pool balance after abort = %d, want 0", tc.name, workers, got)
			}
			// The same budget must admit a small query afterwards.
			if err := mb.Charge(tc.limit / 2); err != nil {
				t.Errorf("%s @%d workers: budget not whole after abort: %v", tc.name, workers, err)
			}
			mb.Refund(tc.limit / 2)
		}
	}
}

// TestStreamChunkMetricsRecorded: a run over an instrumented executor
// advances the streaming counters — chunks emitted, pool hits/misses
// consistent with gets, and a peak-bytes observation.
func TestStreamChunkMetricsRecorded(t *testing.T) {
	c := oneTableSetup(t, 20_000)
	reg := obs.NewRegistry()
	ex := New(nil)
	ex.Obs = NewMetrics(reg)
	ex.ScanMorselPages = 1
	p := mustPlan(t, c, "SELECT id FROM big WHERE v >= 0")
	if _, err := ex.Run(p); err != nil {
		t.Fatal(err)
	}
	if got := ex.Obs.ChunksEmitted.Value(); got <= 1 {
		t.Errorf("exec.chunks_emitted = %d, want > 1 (20k rows span many chunks)", got)
	}
	misses := ex.Obs.ChunkPoolMisses.Value()
	if misses == 0 {
		t.Error("exec.chunk_pool.misses = 0, want > 0 (first gets always miss)")
	}
	snap := reg.Snapshot()
	if snap["exec.peak_bytes.count"] != 1 {
		t.Errorf("exec.peak_bytes.count = %v, want 1", snap["exec.peak_bytes.count"])
	}
	// A second identical run should find warm chunks... but pools are
	// per-run by design, so hits come from within-run recycling instead.
	// A filtered scan recycles each input chunk after projecting it, so
	// reruns and longer scans both see hits.
	if hits := ex.Obs.ChunkPoolHits.Value(); hits == 0 {
		t.Error("exec.chunk_pool.hits = 0, want > 0 (recycled chunks reused within the run)")
	}
}

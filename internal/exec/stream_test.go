package exec

import (
	"context"
	"errors"
	"fmt"
	"maps"
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
			bal := poolBalance(ex)
			p := mustPlan(t, tc.cat, tc.query)
			res, err := ex.RunCompiled(context.Background(), p, nil, RunArgs{Parallelism: workers, Mem: mb})
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
	// Every emitted chunk was got from the pool: a hit or a miss. Whether
	// the first gets miss depends on the chunks earlier runs left in the
	// recycled run state.
	hits, misses := ex.Obs.ChunkPoolHits.Value(), ex.Obs.ChunkPoolMisses.Value()
	if emitted := ex.Obs.ChunksEmitted.Value(); hits+misses < emitted {
		t.Errorf("exec.chunk_pool.hits + misses = %d, want at least the %d chunks emitted", hits+misses, emitted)
	}
	snap := reg.Snapshot()
	if snap["exec.peak_bytes.count"] != 1 {
		t.Errorf("exec.peak_bytes.count = %v, want 1", snap["exec.peak_bytes.count"])
	}
	// A filtered scan recycles each input chunk after boxing it, so the
	// run reuses its own chunks whatever state it started from.
	if hits == 0 {
		t.Error("exec.chunk_pool.hits = 0, want > 0 (recycled chunks reused within the run)")
	}
}

// TestStringKeyMemoCollisions: GROUP BY, DISTINCT and a TEXT equi-join
// over 1 200 keys that all land on one entry of the single-string key
// memo — one length, one first byte, one last byte — plus ” agree with
// answers computed here, serially and with 4 workers. The join's probe
// side holds keys its build side lacks, which must match nothing and
// must not be numbered by the probe.
func TestStringKeyMemoCollisions(t *testing.T) {
	keys := []string{""}
	for i := 0; i < 1200; i++ {
		keys = append(keys, fmt.Sprintf("k%05dz", i))
	}
	c := catalog.NewMem()
	schema := func(val string) catalog.Schema {
		return catalog.Schema{Columns: []catalog.Column{{Name: "k", Type: catalog.String}, {Name: val, Type: catalog.Int64}}}
	}
	l, err := c.CreateTable("l", schema("v"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.CreateTable("r", schema("w"))
	if err != nil {
		t.Fatal(err)
	}
	type group struct{ count, sum int64 }
	groups := map[string]group{}
	var firstSeen []string
	lRows := map[string][]int64{}
	for i := 0; i < 6000; i++ {
		k := keys[(i*i+7*i)%len(keys)] // uneven counts, in scattered order; some keys never
		if _, ok := groups[k]; !ok {
			firstSeen = append(firstSeen, k)
		}
		groups[k] = group{groups[k].count + 1, groups[k].sum + int64(i)}
		lRows[k] = append(lRows[k], int64(i))
		if _, err := l.Insert(catalog.Row{k, int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// r holds every other key, twice, plus keys l never has.
	wantPairs := map[[2]int64]int{}
	for i := 0; i < len(keys)+200; i += 2 {
		k := fmt.Sprintf("k%05dz", i)
		if i < len(keys) {
			k = keys[i]
		}
		for _, w := range []int64{int64(i), int64(-i - 1)} {
			if _, err := r.Insert(catalog.Row{k, w}); err != nil {
				t.Fatal(err)
			}
			for _, v := range lRows[k] {
				wantPairs[[2]int64{v, w}]++
			}
		}
	}
	for _, workers := range []int{1, 4} {
		ex := New(nil)
		ex.Parallelism = workers
		ex.MorselSize = 64
		ex.ScanMorselPages = 1
		query := func(q string) *Result {
			t.Helper()
			res, err := ex.Run(mustPlan(t, c, q))
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			return res
		}
		res := query("SELECT k, COUNT(*), SUM(v) FROM l GROUP BY k")
		if len(res.Rows) != len(firstSeen) {
			t.Fatalf("workers %d: %d groups, want %d", workers, len(res.Rows), len(firstSeen))
		}
		for i, row := range res.Rows {
			k := row[0].(string)
			if g := groups[k]; k != firstSeen[i] || row[1] != g.count || row[2] != float64(g.sum) {
				t.Fatalf("workers %d: group %d is %v, want %q %v in first-seen order", workers, i, row, firstSeen[i], g)
			}
		}
		res = query("SELECT DISTINCT k FROM l")
		if len(res.Rows) != len(firstSeen) {
			t.Fatalf("workers %d: DISTINCT gave %d keys, want %d", workers, len(res.Rows), len(firstSeen))
		}
		for i, row := range res.Rows {
			if row[0] != firstSeen[i] {
				t.Fatalf("workers %d: DISTINCT key %d is %v, want %q", workers, i, row[0], firstSeen[i])
			}
		}
		res = query("SELECT l.v, r.w FROM l JOIN r ON l.k = r.k")
		got := map[[2]int64]int{}
		for _, row := range res.Rows {
			got[[2]int64{row[0].(int64), row[1].(int64)}]++
		}
		if len(res.Rows) == 0 || !maps.Equal(got, wantPairs) {
			t.Fatalf("workers %d: join gave %d rows (%d distinct pairs), want %d distinct pairs", workers, len(res.Rows), len(got), len(wantPairs))
		}
	}
}

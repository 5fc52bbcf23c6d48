package exec

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aidb/internal/catalog"
	"aidb/internal/chaos"
	"aidb/internal/obs"
	"aidb/internal/plan"
	"aidb/internal/sql"
	"aidb/internal/storage"
)

// bigSetup builds a users/orders catalog large enough to span many heap
// pages, so scans really partition into morsels.
func bigSetup(t testing.TB, rows int) *catalog.Catalog {
	t.Helper()
	c := catalog.NewMem()
	users, err := c.CreateTable("users", catalog.Schema{Columns: []catalog.Column{
		{Name: "id", Type: catalog.Int64},
		{Name: "age", Type: catalog.Int64},
	}})
	if err != nil {
		t.Fatal(err)
	}
	orders, err := c.CreateTable("orders", catalog.Schema{Columns: []catalog.Column{
		{Name: "uid", Type: catalog.Int64},
		{Name: "amount", Type: catalog.Int64},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := users.Insert(catalog.Row{int64(i), int64(i % 80)}); err != nil {
			t.Fatal(err)
		}
		if _, err := orders.Insert(catalog.Row{int64(i % (rows/10 + 1)), int64(i % 997)}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func mustPlan(t testing.TB, c *catalog.Catalog, q string) plan.Node {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(c, stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// rowKey renders a row with each value's type, so int64(1) and
// float64(1) differ.
func rowKey(r catalog.Row) string {
	var sb strings.Builder
	for _, v := range r {
		fmt.Fprintf(&sb, "%T:%v|", v, v)
	}
	return sb.String()
}

// normRows renders rows order-insensitively for cross-mode comparison.
func normRows(rows []catalog.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = rowKey(r)
	}
	sort.Strings(out)
	return out
}

// parallelExec returns an executor forced onto the parallel path even
// for small inputs: tiny morsels, per-page scan morsels.
func parallelExec(workers int) *Executor {
	ex := New(nil)
	ex.Parallelism = workers
	ex.MorselSize = 64
	ex.ScanMorselPages = 1
	return ex
}

// TestParallelMatchesSerialOperators runs scan+filter, hash join,
// aggregation, projection and index-free sort queries at parallelism 1,
// 2 and NumCPU and requires identical results — the morsel design
// preserves order exactly, so the comparison is not even normalized.
func TestParallelMatchesSerialOperators(t *testing.T) {
	c := bigSetup(t, 3000)
	queries := []string{
		"SELECT id FROM users WHERE age > 40",
		"SELECT id * 2 + 1, age FROM users WHERE age < 13",
		"SELECT users.id, orders.amount FROM orders JOIN users ON orders.uid = users.id",
		"SELECT age, COUNT(*), SUM(id), MIN(id), MAX(id), AVG(id) FROM users GROUP BY age",
		"SELECT COUNT(*), SUM(amount) FROM orders",
		"SELECT DISTINCT age FROM users ORDER BY age DESC LIMIT 7",
	}
	for _, q := range queries {
		p := mustPlan(t, c, q)
		serial := New(nil)
		serial.Parallelism = 1
		want, err := serial.Run(p)
		if err != nil {
			t.Fatalf("%s serial: %v", q, err)
		}
		for _, w := range []int{2, runtime.NumCPU()} {
			got, err := parallelExec(w).Run(p)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", q, w, err)
			}
			if len(got.Rows) != len(want.Rows) {
				t.Fatalf("%s workers=%d: %d rows, serial %d", q, w, len(got.Rows), len(want.Rows))
			}
			for i := range want.Rows {
				if rowKey(got.Rows[i]) != rowKey(want.Rows[i]) {
					t.Fatalf("%s workers=%d: row %d = %v, serial %v", q, w, i, got.Rows[i], want.Rows[i])
				}
			}
		}
	}
}

// TestConcurrentRunsSharedExecutor drives one executor from many
// goroutines; under -race this is the regression test for the ExecStats
// data race, and the atomic totals must come out exact.
func TestConcurrentRunsSharedExecutor(t *testing.T) {
	c := bigSetup(t, 2000)
	p := mustPlan(t, c, "SELECT id FROM users WHERE age >= 0")
	ex := parallelExec(0) // 0 = auto (NumCPU)
	const goroutines, runs = 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				res, err := ex.Run(p)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != 2000 {
					errs <- fmt.Errorf("got %d rows, want 2000", len(res.Rows))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkCoresReleased(t)
	snap := ex.Stats.Snapshot()
	if want := uint64(goroutines * runs * 2000); snap.RowsScanned != want {
		t.Errorf("RowsScanned = %d, want %d", snap.RowsScanned, want)
	}
	if want := uint64(goroutines * runs * 2000); snap.RowsOutput != want {
		t.Errorf("RowsOutput = %d, want %d", snap.RowsOutput, want)
	}
}

// TestChunkVectors pins the chunk contract: a filter narrows sel without
// moving a cell, gather copies the live rows of one vector into another,
// a recycled chunk reuses its vectors, and strings gathered or boxed out
// of a chunk stay valid after it is recycled and refilled.
func TestChunkVectors(t *testing.T) {
	p := &chunkPool{}
	c := p.get()
	c.layout([]kind{kInt, kString})
	for i := 0; i < 10; i++ {
		c.cols[0].I = append(c.cols[0].I, int64(i*10))
		c.cols[1].S = append(c.cols[1].S, fmt.Sprint("s", i))
	}
	c.n = 10
	c.selectAll()
	c.sel = selectCmp(c.cols[0].I, int64(45), catalog.CmpGT, c.sel)
	if c.Len() != 5 || c.sel[0] != 5 || c.cols[0].I[5] != 50 {
		t.Fatalf("after the filter: sel %v, cells %v", c.sel, c.cols[0].I)
	}
	kept := &vec{k: kString}
	kept.gather(c.cols[1], c.sel)
	rows := c.box()
	if len(rows) != 5 || rows[0][0] != int64(50) || rows[0][1] != "s5" || rows[4][1] != "s9" {
		t.Fatalf("boxed rows %v", rows)
	}
	own := c.own[0]
	p.put(c)
	if c2 := p.get(); c2 != c || c2.Len() != 0 || len(c2.cols) != 0 {
		t.Fatalf("recycled chunk not reused empty")
	}
	c.layout([]kind{kString})
	if c.cols[0] != own || len(c.cols[0].S) != 0 {
		t.Fatal("a recycled chunk did not reuse its vector")
	}
	c.cols[0].S = append(c.cols[0].S, "overwrite", "overwrite", "overwrite")
	if kept.S[0] != "s5" || rows[4][1] != "s9" {
		t.Fatalf("gathered %v and boxed %v changed when the chunk was refilled", kept.S, rows)
	}
}

// TestChunkPoolBalance pins the pool accounting the leak tests build
// on: get/put round-trips hit the free list, double puts and puts of
// chunks the pool does not own are no-ops, and outstanding() nets to the
// chunks still held.
func TestChunkPoolBalance(t *testing.T) {
	p := &chunkPool{}
	a, b := p.get(), p.get()
	if a == b {
		t.Fatal("pool returned the same chunk twice")
	}
	p.put(a)
	p.put(a) // double put must not corrupt the free list
	if got := p.get(); got != a {
		t.Error("pool did not reuse the recycled chunk")
	}
	p.put(&Chunk{})                       // a static chunk is not the pool's
	if out := p.outstanding(); out != 2 { // a is held again, b still out
		t.Errorf("outstanding = %d, want 2", out)
	}
	p.put(b)
	p.put(a)
	if out := p.outstanding(); out != 0 {
		t.Errorf("outstanding after final put = %d, want 0", out)
	}
}

// TestFilterQueryIsolatedFromReruns closes the same aliasing contract
// end to end, serial and parallel: mutating one result's row slices
// must not leak into a re-execution of the same plan.
func TestFilterQueryIsolatedFromReruns(t *testing.T) {
	c := bigSetup(t, 1500)
	p := mustPlan(t, c, "SELECT id, age FROM users WHERE age < 40")
	for _, workers := range []int{1, runtime.NumCPU()} {
		ex := parallelExec(workers)
		first, err := ex.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		want := normRows(first.Rows)
		for i := range first.Rows {
			first.Rows[i] = catalog.Row{int64(-7), int64(-7)}
		}
		second, err := ex.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		got := normRows(second.Rows)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("workers=%d: rerun differs after mutating prior result", workers)
		}
	}
}

// TestScanChaosScheduleIndependentOfParallelism guards the per-morsel
// chaos contract: for a fixed seed and table, the SiteExecScan fault
// schedule must be identical at every Parallelism setting, because the
// injector is consulted on the coordinator in morsel order.
func TestScanChaosScheduleIndependentOfParallelism(t *testing.T) {
	type outcome struct {
		delays uint64
		errors []int
	}
	observe := func(workers int) outcome {
		c := bigSetup(t, 2000)
		p := mustPlan(t, c, "SELECT id FROM users")
		ex := New(nil)
		ex.ScanMorselPages = 1
		a := RunArgs{Parallelism: workers, Chaos: chaos.New(99).
			Add(chaos.Rule{Site: SiteExecScan, Kind: chaos.Latency, Every: 3, Delay: 5}).
			Add(chaos.Rule{Site: SiteExecScan, Kind: chaos.Error, After: 40, Every: 17})}
		var failed []int
		for i := 0; i < 12; i++ {
			if _, err := ex.RunCompiled(context.Background(), p, nil, a); err != nil {
				failed = append(failed, i)
			}
		}
		return outcome{delays: ex.Stats.InjectedDelayUnits.Load(), errors: failed}
	}
	want := observe(1)
	if want.delays == 0 {
		t.Fatal("latency rule never fired; schedule too sparse to compare")
	}
	for _, w := range []int{2, runtime.NumCPU()} {
		got := observe(w)
		if got.delays != want.delays || fmt.Sprint(got.errors) != fmt.Sprint(want.errors) {
			t.Errorf("workers=%d: schedule diverged: delays %d vs %d, errors %v vs %v",
				w, got.delays, want.delays, got.errors, want.errors)
		}
	}
}

// TestParallelIndexScanMatchesSerial drives IndexScanNode over the
// table's own index and checks subrange splitting preserves the serial
// (key, record id) order exactly.
func TestParallelIndexScanMatchesSerial(t *testing.T) {
	c := catalog.NewMem()
	tab, err := c.CreateTable("t", catalog.Schema{Columns: []catalog.Column{
		{Name: "k", Type: catalog.Int64},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Skewed key set: dense low band plus sparse high outliers, stored
	// unsorted.
	for i := int64(0); i < 4050; i++ {
		k := i % 700
		if i >= 4000 {
			k = 100000 + (i-4000)*31
		}
		if _, err := tab.Insert(catalog.Row{k}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.CreateIndex(0); err != nil {
		t.Fatal(err)
	}
	for _, bounds := range [][2]int64{{0, 699}, {-50, 200000}, {math.MinInt64, math.MaxInt64}, {650, 650}} {
		node := &plan.IndexScanNode{Table: tab, Alias: "t", Column: 0, Lo: []plan.Bound{{N: bounds[0]}}, Hi: []plan.Bound{{N: bounds[1]}}}
		serial := New(nil)
		serial.Parallelism = 1
		want, err := serial.Run(node)
		if err != nil {
			t.Fatal(err)
		}
		par := parallelExec(runtime.NumCPU())
		got, err := par.Run(node)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("range %v: %d rows parallel, %d serial", bounds, len(got.Rows), len(want.Rows))
		}
		for i := range want.Rows {
			if got.Rows[i][0] != want.Rows[i][0] {
				t.Fatalf("range %v: row %d = %v, serial %v", bounds, i, got.Rows[i], want.Rows[i])
			}
		}
	}
}

// TestSplitKeyRange checks the subranges exactly tile [lo, hi] in
// ascending order, including the full int64 key space.
func TestSplitKeyRange(t *testing.T) {
	cases := []struct {
		lo, hi int64
		k      int
	}{
		{0, 100, 4},
		{-50, 49, 3},
		{0, 0, 8},
		{0, 15, 8}, // narrower than k*minWidth: must not over-split
		{math.MinInt64, math.MaxInt64, 8},
		{math.MinInt64, math.MinInt64 + 10, 4},
	}
	for _, tc := range cases {
		subs := splitKeyRange(nil, tc.lo, tc.hi, tc.k, minIndexMorselWidth)
		if len(subs) == 0 {
			t.Fatalf("[%d,%d] k=%d: no subranges", tc.lo, tc.hi, tc.k)
		}
		if len(subs) > tc.k {
			t.Errorf("[%d,%d] k=%d: %d subranges", tc.lo, tc.hi, tc.k, len(subs))
		}
		if subs[0][0] != tc.lo || subs[len(subs)-1][1] != tc.hi {
			t.Errorf("[%d,%d]: tiling ends %v", tc.lo, tc.hi, subs)
		}
		for i := 0; i < len(subs); i++ {
			if subs[i][0] > subs[i][1] {
				t.Errorf("[%d,%d]: inverted subrange %v", tc.lo, tc.hi, subs[i])
			}
			if i > 0 && subs[i][0] != subs[i-1][1]+1 {
				t.Errorf("[%d,%d]: gap/overlap between %v and %v", tc.lo, tc.hi, subs[i-1], subs[i])
			}
		}
	}
	if got := splitKeyRange(nil, 10, 5, 4, 1); got != nil {
		t.Errorf("inverted input range: got %v, want nil", got)
	}
}

// TestChunkBounds checks row-range chunking tiles [0, n).
func TestChunkBounds(t *testing.T) {
	for _, tc := range []struct{ n, size, want int }{
		{0, 10, 0}, {1, 10, 1}, {10, 10, 1}, {11, 10, 2}, {100, 7, 15}, {5, 0, 5},
	} {
		chunks := chunkBounds(tc.n, tc.size)
		if len(chunks) != tc.want {
			t.Errorf("chunkBounds(%d,%d) = %d chunks, want %d", tc.n, tc.size, len(chunks), tc.want)
		}
		prev := 0
		for _, ch := range chunks {
			if ch[0] != prev || ch[1] <= ch[0] {
				t.Fatalf("chunkBounds(%d,%d): bad tiling %v", tc.n, tc.size, chunks)
			}
			prev = ch[1]
		}
		if prev != tc.n {
			t.Errorf("chunkBounds(%d,%d): covers %d", tc.n, tc.size, prev)
		}
	}
}

// TestPartitionPages checks scan morsel partitioning preserves page
// order and tiles the input.
func TestPartitionPages(t *testing.T) {
	pages := make([]storage.PageID, 11)
	for i := range pages {
		pages[i] = storage.PageID(i * 3)
	}
	parts := storage.PartitionPages(pages, 4)
	if len(parts) != 3 {
		t.Fatalf("parts = %d, want 3", len(parts))
	}
	var flat []storage.PageID
	for _, p := range parts {
		flat = append(flat, p...)
	}
	if fmt.Sprint(flat) != fmt.Sprint(pages) {
		t.Errorf("partitioning reordered pages: %v", flat)
	}
	if storage.PartitionPages(nil, 4) != nil {
		t.Error("empty input should yield nil")
	}
	if got := storage.PartitionPages(pages, 0); len(got) != len(pages) {
		t.Errorf("perMorsel<1 should clamp to 1, got %d parts", len(got))
	}
}

// TestParallelErrorPropagation ensures the first morsel error surfaces
// and later morsels are cancelled rather than deadlocking.
func TestParallelErrorPropagation(t *testing.T) {
	c := bigSetup(t, 1200)
	p := mustPlan(t, c, "SELECT id / (age - 40) FROM users")
	ex := parallelExec(runtime.NumCPU())
	if _, err := ex.Run(p); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v, want division by zero", err)
	}
	checkCoresReleased(t)
}

// checkCoresReleased fails the test unless every core a statement or a
// morsel worker claimed has been given back. The tests of this package
// do not run in parallel, so between statements the count is exactly 0.
func checkCoresReleased(t testing.TB) {
	t.Helper()
	if n := cores.Load(); n != 0 {
		t.Fatalf("%d cores still claimed after the statements returned", n)
	}
}

// TestAutoParallelismTakesOnlyIdleCores pins the idle-core rule on a
// two-core budget: while one statement is running (its scan workers
// blocked in a function of its filter), an auto-mode scan spawns no
// workers; once it has finished, the same scan spawns workers again; an
// explicit worker count spawns its workers either way.
func TestAutoParallelismTakesOnlyIdleCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	c := bigSetup(t, 3000)
	heldPlan := mustPlan(t, c, "SELECT id FROM users WHERE HOLD(age) >= 0")
	p := mustPlan(t, c, "SELECT id FROM users WHERE age > 40")
	// scan runs p and reports its scan's worker spawns and the
	// parallel_ops counter.
	scan := func(workers int) (int64, float64) {
		reg := obs.NewRegistry()
		ex := parallelExec(workers)
		ex.Obs = NewMetrics(reg)
		prof := NewQueryProfile(p, nil)
		if _, err := ex.RunCompiled(context.Background(), p, nil, RunArgs{Profile: prof, Parallelism: workers}); err != nil {
			t.Fatal(err)
		}
		var spawns int64
		prof.Walk(func(op *OpProfile, _ int) {
			if op.Kind == "Scan" {
				spawns = op.WorkerSpawns()
			}
		})
		return spawns, reg.Snapshot()["exec.parallel_ops"]
	}

	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	held := parallelExec(0)
	held.Funcs = FuncRegistry{"HOLD": func(args []catalog.Value) (catalog.Value, error) {
		once.Do(func() { close(entered) })
		<-release
		return args[0], nil
	}}
	done := make(chan error, 1)
	go func() {
		_, err := held.Run(heldPlan)
		done <- err
	}()
	<-entered
	if spawns, ops := scan(0); spawns != 0 || ops != 0 {
		t.Errorf("auto scan beside a running statement: %d worker spawns, %v parallel ops; want 0, 0", spawns, ops)
	}
	if spawns, _ := scan(4); spawns != 4 {
		t.Errorf("Parallelism 4 beside a running statement: %d worker spawns, want 4", spawns)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	checkCoresReleased(t)
	if spawns, ops := scan(0); spawns != 2 || ops != 1 {
		t.Errorf("auto scan on an idle machine: %d worker spawns, %v parallel ops; want 2, 1", spawns, ops)
	}
	if spawns, _ := scan(4); spawns != 4 {
		t.Errorf("Parallelism 4 on an idle machine: %d worker spawns, want 4", spawns)
	}
	checkCoresReleased(t)
}

// TestCoresReleasedOnEveryExit: success, an evaluation error, a
// cancellation mid-scan and a LIMIT that closes its scan while workers
// are still producing each give back every core, in auto mode and at an
// explicit worker count.
func TestCoresReleasedOnEveryExit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	c := bigSetup(t, 3000)
	for _, tc := range []struct {
		name, query string
		cancelAt    int64 // cancel the run on this TRIP call; 0 = never
		wantErr     bool
	}{
		{"success", "SELECT id FROM users WHERE age > 40", 0, false},
		{"error", "SELECT id / (age - 40) FROM users", 0, true},
		{"cancel", "SELECT id FROM users WHERE TRIP(age) >= 0", 500, true},
		{"limit", "SELECT id FROM users LIMIT 5", 0, false},
	} {
		for _, workers := range []int{0, 4} {
			ctx, cancel := context.WithCancel(context.Background())
			var calls atomic.Int64
			ex := parallelExec(workers)
			ex.Funcs = FuncRegistry{"TRIP": func(args []catalog.Value) (catalog.Value, error) {
				if calls.Add(1) == tc.cancelAt {
					cancel()
				}
				return args[0], nil
			}}
			_, err := ex.RunContext(ctx, mustPlan(t, c, tc.query))
			cancel()
			if (err != nil) != tc.wantErr {
				t.Fatalf("%s @%d workers: err = %v", tc.name, workers, err)
			}
			if n := cores.Load(); n != 0 {
				t.Fatalf("%s @%d workers: %d cores still claimed", tc.name, workers, n)
			}
		}
	}
}

// TestMorselCountersAdvance checks the obs wiring: a parallel run must
// account its morsels and worker spawns on the registry.
func TestMorselCountersAdvance(t *testing.T) {
	c := bigSetup(t, 3000)
	p := mustPlan(t, c, "SELECT age, COUNT(*) FROM users WHERE id >= 0 GROUP BY age")
	reg := obs.NewRegistry()
	ex := parallelExec(4)
	ex.Obs = NewMetrics(reg)
	if _, err := ex.Run(p); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap["exec.morsels"] == 0 {
		t.Error("exec.morsels did not advance")
	}
	if snap["exec.worker_spawns"] == 0 {
		t.Error("exec.worker_spawns did not advance")
	}
	if snap["exec.parallel_ops"] == 0 {
		t.Error("exec.parallel_ops did not advance")
	}
}

// TestIndexScanBoundsResolveAtOpen: one IndexScanNode with placeholder
// bounds serves every binding under a bare executor with Params set — a
// NULL reads nothing, and a binding with no int64 value reads the heap
// instead of the index. The heap holds the keys in descending order, so
// the order of the rows tells which of the two was read.
func TestIndexScanBoundsResolveAtOpen(t *testing.T) {
	c := catalog.NewMem()
	tab, err := c.CreateTable("t", catalog.Schema{Columns: []catalog.Column{{Name: "k", Type: catalog.Int64}}})
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(99); k >= 0; k-- {
		if _, err := tab.Insert(catalog.Row{k}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.CreateIndex(0); err != nil {
		t.Fatal(err)
	}
	node := &plan.IndexScanNode{Table: tab, Alias: "t", Column: 0,
		Lo: []plan.Bound{{Param: 1}}, Hi: []plan.Bound{{Param: 2, N: -1}}}
	for _, tc := range []struct {
		params   []catalog.Value
		rows     int
		viaIndex bool
	}{
		{[]catalog.Value{int64(10), int64(20)}, 10, true},
		{[]catalog.Value{int64(50), int64(51)}, 1, true},
		{[]catalog.Value{int64(60), int64(60)}, 0, true},
		{[]catalog.Value{nil, int64(20)}, 0, true},
		{[]catalog.Value{2.5, int64(20)}, 100, false}, // heap scan; a filter above would decide
		{[]catalog.Value{int64(10), "x"}, 100, false},
	} {
		for _, workers := range []int{1, 4} {
			ex := parallelExec(workers)
			ex.Params = tc.params
			res, err := ex.Run(node)
			if err != nil {
				t.Fatal(err)
			}
			ascending := true
			for i := 1; i < len(res.Rows); i++ {
				ascending = ascending && res.Rows[i-1][0].(int64) < res.Rows[i][0].(int64)
			}
			if len(res.Rows) != tc.rows || len(res.Rows) > 1 && ascending != tc.viaIndex {
				t.Errorf("params %v @%d workers: %d rows, ascending %v; want %d rows, read through the index %v",
					tc.params, workers, len(res.Rows), ascending, tc.rows, tc.viaIndex)
			}
		}
	}
}

// TestScanDoesNotHoldLatchAcrossEmit: a parallel scan whose consumer
// takes one chunk and then stops pulling leaves its workers parked on
// their next emits. None may hold the table's lock (or a buffer-pool
// latch) there, or a writer of the table would wait on a consumer that
// may be waiting on the writer: an insert into the scanned table must
// finish while the scan stalls.
func TestScanDoesNotHoldLatchAcrossEmit(t *testing.T) {
	c := oneTableSetup(t, 20_000)
	tab, err := c.Table("big")
	if err != nil {
		t.Fatal(err)
	}
	ex := New(nil)
	ex.Parallelism = 2
	ex.MorselSize = 64
	ctx := context.Background()
	p, err := ex.compile(mustPlan(t, c, "SELECT id, v FROM big"), nil)
	if err != nil {
		t.Fatal(err)
	}
	rc := ex.newRun(ctx, RunArgs{Parallelism: ex.Parallelism})
	op := p.root.open(rc)
	defer op.Close()
	if _, ok, err := op.Next(ctx); err != nil || !ok {
		t.Fatalf("first chunk: %v, %v", ok, err)
	}
	done := make(chan error, 1)
	go func() {
		done <- tab.InsertRows([]catalog.Row{{int64(-1), int64(0)}}, func(int, storage.RecordID) {})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("an insert waited 10 s on a stalled scan: a scan worker holds the table's lock across an emit")
	}
}

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

// numsTable registers a virtual table sys.nums with n rows
// (i, i%97, "g<i%7>") and returns a counter of snapshot fetches.
func numsTable(t testing.TB, c *catalog.Catalog, n int) *atomic.Int64 {
	t.Helper()
	var fetches atomic.Int64
	err := c.RegisterVirtual(&catalog.FuncTable{
		QName: "sys.nums",
		Cols: catalog.Schema{Columns: []catalog.Column{
			{Name: "i", Type: catalog.Int64},
			{Name: "mod", Type: catalog.Int64},
			{Name: "grp", Type: catalog.String},
		}},
		Est: func() int { return n },
		Fetch: func() ([]catalog.Row, error) {
			fetches.Add(1)
			rows := make([]catalog.Row, n)
			for i := range rows {
				rows[i] = catalog.Row{int64(i), int64(i % 97), fmt.Sprintf("g%d", i%7)}
			}
			return rows, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &fetches
}

// TestVirtualScanMatchesSerial runs filters, aggregates, sorts, and a
// heap-table join over a virtual source at parallelism 1, 2 and NumCPU
// and requires byte-identical results: virtual scans ride the same
// order-preserving morsel pipeline as heap scans.
func TestVirtualScanMatchesSerial(t *testing.T) {
	c := bigSetup(t, 4000)
	numsTable(t, c, 10_000)
	queries := []string{
		"SELECT i, mod FROM sys.nums",
		"SELECT i FROM sys.nums WHERE mod > 50",
		"SELECT grp, COUNT(*), SUM(mod) FROM sys.nums GROUP BY grp",
		"SELECT i FROM sys.nums ORDER BY mod LIMIT 9",
		"SELECT n.i, users.age FROM sys.nums n JOIN users ON n.i = users.id WHERE n.mod < 10",
	}
	for _, q := range queries {
		p := mustPlan(t, c, q)
		serial, err := parallelExec(1).Run(p)
		if err != nil {
			t.Fatalf("%s serial: %v", q, err)
		}
		for _, workers := range []int{2, runtime.NumCPU()} {
			ex := parallelExec(workers)
			bal := poolBalance(ex)
			got, err := ex.Run(p)
			if err != nil {
				t.Fatalf("%s @%d: %v", q, workers, err)
			}
			if len(got.Rows) != len(serial.Rows) {
				t.Fatalf("%s @%d: %d rows, serial %d", q, workers, len(got.Rows), len(serial.Rows))
			}
			for i := range got.Rows {
				if rowKey(got.Rows[i]) != rowKey(serial.Rows[i]) {
					t.Fatalf("%s @%d: row %d = %v, serial %v", q, workers, i, got.Rows[i], serial.Rows[i])
				}
			}
			if got := bal.Load(); got != 0 {
				t.Errorf("%s @%d: pool balance = %d, want 0", q, workers, got)
			}
		}
	}
}

// TestVirtualScanSnapshotLazy: planning and plan inspection never touch
// the provider; each execution takes exactly one snapshot.
func TestVirtualScanSnapshotLazy(t *testing.T) {
	c := catalog.NewMem()
	fetches := numsTable(t, c, 100)
	p := mustPlan(t, c, "SELECT i FROM sys.nums WHERE mod = 3")
	_ = p.Describe()
	if n := fetches.Load(); n != 0 {
		t.Fatalf("planning/describe fetched %d snapshots, want 0", n)
	}
	ex := New(nil)
	for i := 1; i <= 3; i++ {
		if _, err := ex.Run(p); err != nil {
			t.Fatal(err)
		}
		if n := fetches.Load(); n != int64(i) {
			t.Fatalf("after %d runs: %d snapshots", i, n)
		}
	}
}

// TestVirtualScanMidQueryCancel cancels the context from inside the
// snapshot fetch — after the scan has opened, before any row is
// emitted — and requires a clean cancellation error with a balanced
// chunk pool at every parallelism.
func TestVirtualScanMidQueryCancel(t *testing.T) {
	c := catalog.NewMem()
	var cancelRun context.CancelFunc
	err := c.RegisterVirtual(&catalog.FuncTable{
		QName: "sys.slow",
		Cols:  catalog.Schema{Columns: []catalog.Column{{Name: "i", Type: catalog.Int64}}},
		Fetch: func() ([]catalog.Row, error) {
			rows := make([]catalog.Row, 200_000)
			for i := range rows {
				rows[i] = catalog.Row{int64(i)}
			}
			cancelRun()
			return rows, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := mustPlan(t, c, "SELECT i FROM sys.slow WHERE i >= 0")
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		ex := parallelExec(workers)
		bal := poolBalance(ex)
		ctx, cancel := context.WithCancel(context.Background())
		cancelRun = cancel
		res, err := ex.RunContext(ctx, p)
		cancel()
		if !IsCancellation(err) {
			t.Fatalf("@%d workers: err = %v, want cancellation", workers, err)
		}
		if res != nil {
			t.Fatalf("@%d workers: cancelled run returned a result", workers)
		}
		if got := bal.Load(); got != 0 {
			t.Errorf("@%d workers: pool balance = %d, want 0", workers, got)
		}
	}
}

// TestVirtualScanFetchError: a failing provider surfaces its error,
// wrapped with the table name, instead of a partial result.
func TestVirtualScanFetchError(t *testing.T) {
	c := catalog.NewMem()
	boom := errors.New("collector offline")
	err := c.RegisterVirtual(&catalog.FuncTable{
		QName: "sys.bad",
		Cols:  catalog.Schema{Columns: []catalog.Column{{Name: "i", Type: catalog.Int64}}},
		Fetch: func() ([]catalog.Row, error) { return nil, boom },
	})
	if err != nil {
		t.Fatal(err)
	}
	p := mustPlan(t, c, "SELECT i FROM sys.bad")
	for _, workers := range []int{1, runtime.NumCPU()} {
		res, err := parallelExec(workers).Run(p)
		if !errors.Is(err, boom) {
			t.Fatalf("@%d workers: err = %v, want wrapped provider error", workers, err)
		}
		if res != nil {
			t.Fatalf("@%d workers: failed scan returned a result", workers)
		}
	}
}

// TestVirtualScanMemBudget: virtual rows are charged against the
// per-query budget like any other chunks.
func TestVirtualScanMemBudget(t *testing.T) {
	c := catalog.NewMem()
	numsTable(t, c, 50_000)
	p := mustPlan(t, c, "SELECT i, mod, grp FROM sys.nums")
	m := governance.NewMetrics(obs.NewRegistry())
	a := RunArgs{Mem: governance.NewMemBudget(64*1024, m)}
	if _, err := New(nil).RunCompiled(context.Background(), p, nil, a); !errors.Is(err, governance.ErrMemBudget) {
		t.Fatalf("err = %v, want ErrMemBudget", err)
	}
	a = RunArgs{Mem: governance.NewMemBudget(1<<30, m)}
	res, err := New(nil).RunCompiled(context.Background(), p, nil, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 50_000 {
		t.Fatalf("got %d rows, want 50000", len(res.Rows))
	}
	if res.Chunks <= 0 || res.PeakBytes <= 0 {
		t.Fatalf("result accounting chunks=%d peak=%d, want positive", res.Chunks, res.PeakBytes)
	}
}

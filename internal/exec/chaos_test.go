package exec

import (
	"context"
	"errors"
	"testing"

	"aidb/internal/chaos"
	"aidb/internal/plan"
	"aidb/internal/sql"
)

func buildPlan(t *testing.T, q string) plan.Node {
	t.Helper()
	c := setup(t)
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

// An injected scan fault must surface from Run wrapped with the table
// name and chaos.ErrInjected, and stop charging rows to the stats.
func TestScanFaultInjection(t *testing.T) {
	p := buildPlan(t, "SELECT * FROM users WHERE age > 21")
	ex := New(nil)
	a := RunArgs{Chaos: chaos.New(51).Add(chaos.Rule{Site: SiteExecScan, Kind: chaos.Error, After: 1})}
	if _, err := ex.RunCompiled(context.Background(), p, nil, a); err != nil {
		t.Fatalf("first scan should pass: %v", err)
	}
	_, err := ex.RunCompiled(context.Background(), p, nil, a)
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("second scan: err = %v, want wrapped chaos.ErrInjected", err)
	}
	scanned := ex.Stats.RowsScanned.Load()
	if _, err := ex.RunCompiled(context.Background(), p, nil, a); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("third scan: err = %v, want wrapped chaos.ErrInjected", err)
	}
	if ex.Stats.RowsScanned.Load() != scanned {
		t.Error("failed scans must not charge RowsScanned")
	}
}

// Latency rules accrue virtual delay units without changing results.
func TestScanLatencyInjection(t *testing.T) {
	p := buildPlan(t, "SELECT * FROM orders")
	ex := New(nil)
	a := RunArgs{Chaos: chaos.New(52).Add(chaos.Rule{Site: SiteExecScan, Kind: chaos.Latency, Every: 2, Delay: 7})}
	for i := 0; i < 6; i++ {
		res, err := ex.RunCompiled(context.Background(), p, nil, a)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 10 {
			t.Fatalf("run %d returned %d rows, want 10", i, len(res.Rows))
		}
	}
	if got := ex.Stats.InjectedDelayUnits.Load(); got != 21 {
		t.Errorf("delay = %d units, want 21 (7 units on every 2nd of 6 scans)", got)
	}
}

// A nil injector leaves the executor untouched.
func TestScanNilChaosTransparent(t *testing.T) {
	p := buildPlan(t, "SELECT * FROM users")
	ex := New(nil)
	res, err := ex.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	if got := ex.Stats.InjectedDelayUnits.Load(); got != 0 {
		t.Errorf("phantom delay units: %d", got)
	}
}

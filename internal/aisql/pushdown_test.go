package aisql

import (
	"fmt"
	"sync/atomic"
	"testing"

	"aidb/internal/catalog"
	"aidb/internal/exec"
	"aidb/internal/plan"
	"aidb/internal/sql"
)

// TestPredictPushdownCutsInvocations verifies the AI-operator pushdown
// end to end inside the engine: with a selective cheap predicate ANDed
// with a PREDICT call, the reordered filter must invoke the model only on
// rows that survive the cheap predicate.
func TestPredictPushdownCutsInvocations(t *testing.T) {
	e := NewEngine()
	seedChurn(t, e, 400)
	if _, err := e.Execute("CREATE MODEL m PREDICT label ON customers WITH (kind = 'tree')"); err != nil {
		t.Fatal(err)
	}
	// Count model invocations by wrapping the function registry: run the
	// same logical query through a hand-built executor with a counting
	// PREDICT, once in written order and once reordered.
	var calls int64
	counting := exec.FuncRegistry{
		"PREDICT": func(args []catalog.Value) (catalog.Value, error) {
			atomic.AddInt64(&calls, 1)
			m, err := e.Model(args[0].(string))
			if err != nil {
				return nil, err
			}
			f := make([]float64, len(args)-1)
			for i, a := range args[1:] {
				v, err := toF64(a)
				if err != nil {
					return nil, err
				}
				f[i] = v
			}
			return m.Predict(f)
		},
	}
	// age = 20 matches few rows; written with PREDICT first so only the
	// optimizer can save us.
	q := "SELECT COUNT(*) FROM customers WHERE PREDICT(m, age, spend) = 1 AND age = 20"
	run := func(optimize bool) (int64, int64) {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		rewritePredicts(stmt)
		p, err := plan.Build(e.Cat, stmt.(*sql.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		if optimize {
			p = plan.OptimizeFilters(p)
		}
		atomic.StoreInt64(&calls, 0)
		res, err := exec.New(counting).Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return atomic.LoadInt64(&calls), res.Rows[0][0].(int64)
	}
	naiveCalls, naiveAnswer := run(false)
	optCalls, optAnswer := run(true)
	t.Logf("model invocations: written order %d, optimized %d", naiveCalls, optCalls)
	if naiveAnswer != optAnswer {
		t.Fatalf("answers differ: %d vs %d", naiveAnswer, optAnswer)
	}
	if naiveCalls != 400 {
		t.Errorf("written order should invoke the model on all 400 rows, got %d", naiveCalls)
	}
	if optCalls*5 >= naiveCalls {
		t.Errorf("optimized plan invocations %d should be <20%% of naive %d", optCalls, naiveCalls)
	}
	// And the engine's own Execute path must use the optimized plan: the
	// same answer, with PREDICT's chunk form — what the engine runs —
	// handed only the rows age = 20 kept, at any parallelism.
	var rows atomic.Int64
	countChunkRows(e, &rows, &rows)
	for _, workers := range []int{1, 4} {
		e.Parallelism = workers
		rows.Store(0)
		res, err := e.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].(int64) != optAnswer {
			t.Errorf("parallelism %d: engine answer %v != %v", workers, res.Rows[0][0], optAnswer)
		}
		if got := rows.Load(); got != optCalls {
			t.Errorf("parallelism %d: the chunk form saw %d rows, want the %d that pass age = 20", workers, got, optCalls)
		}
	}
}

func TestRetrainModelTracksNewData(t *testing.T) {
	e := NewEngine()
	if _, err := e.Execute("CREATE TABLE pts (x FLOAT, y INT)"); err != nil {
		t.Fatal(err)
	}
	// Initial regime: y = 1 iff x > 50.
	for i := 0; i < 200; i++ {
		x := float64(i % 100)
		y := 0
		if x > 50 {
			y = 1
		}
		e.Execute(fmt.Sprintf("INSERT INTO pts VALUES (%.1f, %d)", x, y))
	}
	if _, err := e.Execute("CREATE MODEL b PREDICT y ON pts FEATURES (x) WITH (kind = 'tree')"); err != nil {
		t.Fatal(err)
	}
	evalAcc := func() float64 {
		res, err := e.Execute("EVALUATE MODEL b ON pts")
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][1].(float64)
	}
	if acc := evalAcc(); acc < 0.98 {
		t.Fatalf("initial accuracy %.3f", acc)
	}
	// Regime change: relabel everything as y = 1 iff x < 20.
	if _, err := e.Execute("UPDATE pts SET y = 0"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute("UPDATE pts SET y = 1 WHERE x < 20"); err != nil {
		t.Fatal(err)
	}
	stale := evalAcc()
	if stale > 0.8 {
		t.Fatalf("stale model accuracy %.3f; regime change should hurt it", stale)
	}
	if err := e.RetrainModel("b"); err != nil {
		t.Fatal(err)
	}
	if acc := evalAcc(); acc < 0.98 {
		t.Errorf("retrained accuracy %.3f, want recovery", acc)
	}
}

func TestRetrainErrors(t *testing.T) {
	e := NewEngine()
	if err := e.RetrainModel("ghost"); err == nil {
		t.Error("retraining a missing model should fail")
	}
	seedChurn(t, e, 50)
	e.Execute("CREATE MODEL m PREDICT label ON customers WITH (kind = 'tree')")
	e.Execute("DROP TABLE customers")
	if err := e.RetrainModel("m"); err == nil {
		t.Error("retraining after table drop should fail")
	}
}

func TestPredictInGroupByAndOrderBy(t *testing.T) {
	e := NewEngine()
	seedChurn(t, e, 200)
	if _, err := e.Execute("CREATE MODEL g PREDICT label ON customers WITH (kind = 'tree')"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute("SELECT PREDICT(g, age, spend), COUNT(*) FROM customers GROUP BY PREDICT(g, age, spend) ORDER BY PREDICT(g, age, spend)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %v", res.Rows)
	}
	if res.Rows[0][0].(float64) != 0 || res.Rows[1][0].(float64) != 1 {
		t.Errorf("group keys = %v", res.Rows)
	}
	total := res.Rows[0][1].(int64) + res.Rows[1][1].(int64)
	if total != 200 {
		t.Errorf("group counts sum to %d, want 200", total)
	}
}

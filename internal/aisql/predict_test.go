package aisql

import (
	"strings"
	"testing"
)

// TestPredictAllocsDoNotGrowWithRows gates PREDICT's chunk form: a
// filtered PREDICT count over twice the rows may allocate only for the
// extra pages and chunks, not for a row. Boxing a result per row, as the
// per-row call does, costs one allocation per row predicted 1 — 8 000
// more here.
func TestPredictAllocsDoNotGrowWithRows(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations inflate allocs/op")
	}
	const q = "SELECT COUNT(*) FROM c WHERE PREDICT(m, age, spend) = 1"
	allocs := func(rows int) (float64, int64) {
		e := predictEngine(t, rows, "logistic")
		e.Parallelism = 1
		res, err := e.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := e.Execute(q); err != nil {
				t.Fatal(err)
			}
		}), res.Rows[0][0].(int64)
	}
	small, _ := allocs(20000)
	large, ones := allocs(40000)
	t.Logf("PREDICT count: %.0f allocs over 20k rows, %.0f over 40k (%d predicted 1)", small, large, ones)
	if ones < 5000 {
		t.Fatalf("fixture: %d of 40k rows predicted 1, want enough for per-row boxing to show", ones)
	}
	if large-small > predictAllocGrowth {
		t.Fatalf("20k more rows cost %.0f more allocations (ceiling %d): something allocates per row", large-small, predictAllocGrowth)
	}
	if large > predictAllocCeiling {
		t.Fatalf("%.0f allocations over 40k rows exceed the ceiling %d", large, predictAllocCeiling)
	}
}

// predictAllocGrowth bounds what 20k more rows may add, pages and chunks
// only (measured 102); predictAllocCeiling bounds the whole 40k-row
// statement (measured 306).
const (
	predictAllocGrowth  = 300
	predictAllocCeiling = 600
)

// TestPredictFeatureCount checks that a call with too few or too many
// features fails with the model's error on every PREDICT form — it used
// to panic in PREDICT_PROBA — and that the engine keeps serving.
func TestPredictFeatureCount(t *testing.T) {
	e := NewEngine()
	seedChurn(t, e, 50)
	if _, err := e.Execute("CREATE MODEL p PREDICT label ON customers FEATURES (age, spend) WITH (kind = 'logistic', epochs = 5)"); err != nil {
		t.Fatal(err)
	}
	for _, fn := range []string{"PREDICT", "PREDICT_PROBA"} {
		for _, args := range []string{"age", "age, spend, age"} {
			for _, q := range []string{
				"SELECT " + fn + "(p, " + args + ") FROM customers LIMIT 1",
				"SELECT COUNT(*) FROM customers WHERE " + fn + "(p, " + args + ") > 0.5",
			} {
				_, err := e.Execute(q)
				if err == nil || !strings.Contains(err.Error(), `model "p" expects 2 features`) {
					t.Errorf("%s: error %v, want the feature count", q, err)
				}
			}
		}
	}
	if _, err := e.Execute("SELECT PREDICT_PROBA(p, age, spend) FROM customers LIMIT 1"); err != nil {
		t.Fatal(err)
	}
}

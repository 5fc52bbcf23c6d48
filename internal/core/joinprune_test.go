package core

import (
	"cmp"
	"slices"
	"strings"
	"testing"

	"aidb/internal/catalog"
)

// This file's name sorts after core_test.go on purpose — go test runs a
// package's test files in name order: its 300k-row join leaves recycled
// run state with many pooled chunks, and TestStreamingCountersInMetrics
// expects a fresh process's first chunk gets to miss.

// TestJoinTopPrunesByBuildKeys runs EXPLAIN ANALYZE of join_top on the
// analytic tables, which no ANALYZE has given a histogram: the zones
// estimate each filter within 10x of the rows it keeps, so the join
// builds on the few orders over 499, and their user ids restrict the
// users scan to the pages that may hold one — users ids lie in insert
// order. The answer is the one computed here from the tables' cells.
func TestJoinTopPrunesByBuildKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 300k rows")
	}
	db := analyticDB(t)
	q := analyticStatements[3]
	res, err := db.Exec("EXPLAIN ANALYZE " + q)
	if err != nil {
		t.Fatal(err)
	}
	// Each filter and scan by its operator and first operand.
	ops := map[string]catalog.Row{}
	for _, r := range res.Rows {
		if f := strings.Fields(r[0].(string)); len(f) > 1 {
			ops[f[0]+" "+f[1]] = r
		}
	}
	// The smaller estimate is the build side (plan.AnnotateBuildSides).
	if o, u := ops["Filter (orders.amount"], ops["Filter (users.age"]; o == nil || u == nil || o[1].(int64) >= u[1].(int64) {
		t.Errorf("join_top does not build on orders:\n%v", res.Rows)
	}
	for _, f := range []string{"(orders.amount", "(users.age"} {
		r, ok := ops["Filter "+f]
		if !ok {
			t.Fatalf("no Filter %s in %v", f, res.Rows)
		}
		est, actual := float64(r[1].(int64)), float64(r[2].(int64))
		if est < actual/10 || est > actual*10 {
			t.Errorf("Filter %s: est_rows %v, actual %v: not within 10x", f, est, actual)
		}
	}
	// Before ANALYZE a join key's distinct values are bounded by its
	// table's rows and its zones' span, not guessed as a tenth of the
	// cross product.
	for _, r := range res.Rows {
		if op := strings.TrimSpace(r[0].(string)); strings.HasPrefix(op, "HashJoin") {
			if est, actual := float64(r[1].(int64)), float64(r[2].(int64)); est < actual/10 || est > actual*10 {
				t.Errorf("%s: est_rows %v, actual %v: not within 10x", op, est, actual)
			}
		}
	}
	users := ops["Scan users"]
	if read, pruned := users[9].(int64), users[10].(int64); read > 340 || read+pruned != 848 {
		t.Errorf("users scan read %d pages and pruned %d, want at most 340 of 848 read", read, pruned)
	}
	if scanned := users[2].(int64); scanned != 100_000 {
		t.Errorf("users scan counts %d rows, want the table's 100000 (pruned rows count as scanned)", scanned)
	}

	got, err := db.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	var want []float64
	for id := uint64(0); id < 200_000; id++ {
		amount := float64(analyticHash(6, id)%50000000) / 100000
		if amount > 499 && analyticHash(1, analyticHash(5, id)%100_000)%80 == 30 {
			want = append(want, amount)
		}
	}
	slices.SortFunc(want, func(a, b float64) int { return cmp.Compare(b, a) })
	want = want[:min(5, len(want))]
	if len(got.Rows) != len(want) {
		t.Fatalf("join_top: %d rows, want %d", len(got.Rows), len(want))
	}
	for i, r := range got.Rows {
		if r[1].(float64) != want[i] || analyticHash(1, uint64(r[0].(int64)))%80 != 30 {
			t.Errorf("join_top row %d is %v, want amount %v from a user aged 30", i, r, want[i])
		}
	}
}

package exec

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"aidb/internal/catalog"
)

// selectCase checks selectCmp over cells and a non-ascending selection
// against the per-row test it stands for, op.Holds(cmpOrd(K(x), k)),
// for every operator and every constant in ks.
func selectCase[T, K int64 | float64](t *testing.T, name string, cells []T, ks []K, r *rand.Rand) {
	t.Helper()
	// Every row but a few, shuffled: the kernel must keep the
	// selection's order, whatever it is, and skip the rows not in it.
	var sel []int32
	for _, i := range r.Perm(len(cells)) {
		if i%7 != 3 {
			sel = append(sel, int32(i))
		}
	}
	for _, op := range []catalog.CmpOp{catalog.CmpEQ, catalog.CmpNE, catalog.CmpLT, catalog.CmpLE, catalog.CmpGT, catalog.CmpGE} {
		for _, k := range ks {
			var want []int32
			for _, row := range sel {
				if op.Holds(cmpOrd(K(cells[row]), k)) {
					want = append(want, row)
				}
			}
			if got := selectCmp(cells, k, op, slices.Clone(sel)); !slices.Equal(got, want) {
				t.Fatalf("%s: op %03b against %v kept %d rows, want %d:\n got %v\nwant %v", name, op, k, len(got), len(want), got, want)
			}
		}
	}
}

// TestSelectCmpMatchesCompare holds the branch-free selection kernel to
// the comparison the per-row path makes, for the three column/constant
// type pairs a filter binds, on the cells where the two could part:
// NaNs with any payload and sign (equal to everything, below and above
// nothing), ±0 (equal), ±Inf, the int64 extremes and the integers around
// 2^53, where an int64 converted to a float rounds.
func TestSelectCmpMatchesCompare(t *testing.T) {
	ints := []int64{0, 1, -1, 7, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
		1<<53 - 1, 1 << 53, 1<<53 + 1, -(1<<53 + 1), -(1 << 53)}
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 7,
		math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000000),
		math.Float64frombits(0x7ff8dead0000beef), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		1<<53 - 1, 1 << 53, 1<<53 + 2, math.MinInt64, 1 << 63}
	r := rand.New(rand.NewSource(1))
	// Each value several times over, so a selection holds runs of equal
	// and unequal cells in no order.
	var intCells []int64
	var floatCells []float64
	for i := 0; i < 8*len(floats); i++ {
		intCells = append(intCells, ints[r.Intn(len(ints))])
		floatCells = append(floatCells, floats[r.Intn(len(floats))])
	}
	selectCase(t, "int64 vs int64", intCells, ints, r)
	selectCase(t, "int64 vs float64", intCells, floats, r)
	selectCase(t, "float64 vs float64", floatCells, floats, r)
	// An empty selection selects nothing.
	if got := selectCmp(intCells, int64(0), catalog.CmpEQ, nil); len(got) != 0 {
		t.Errorf("an empty selection kept %v", got)
	}
}

// BenchmarkSelectCmp narrows a 100k-row selection over a shuffled
// column at the selectivities of the analytic workload's filters: an
// INT < at 37.5 %, a FLOAT > at 50 %, PREDICT's 0/1 output = 1 at ~30 %
// and an INT = at 1.25 %. The cells are random, not a short repeating
// pattern, which a branch predictor would learn.
func BenchmarkSelectCmp(b *testing.B) {
	const rows = 100000
	r := rand.New(rand.NewSource(7))
	ints := make([]int64, rows)     // uniform over [0, 80)
	floats := make([]float64, rows) // uniform over [0, 100)
	labels := make([]float64, rows) // 1 with probability 0.3, else 0
	for i := range ints {
		ints[i] = int64(r.Intn(80))
		floats[i] = r.Float64() * 100
		if r.Float64() < 0.3 {
			labels[i] = 1
		}
	}
	all := make([]int32, rows)
	for i := range all {
		all[i] = int32(i)
	}
	for _, c := range []struct {
		name string
		run  func(sel []int32) []int32
	}{
		{"int_lt_37.5pct", func(sel []int32) []int32 { return selectCmp(ints, int64(30), catalog.CmpLT, sel) }},
		{"float_gt_50pct", func(sel []int32) []int32 { return selectCmp(floats, 50.0, catalog.CmpGT, sel) }},
		{"float_eq_30pct", func(sel []int32) []int32 { return selectCmp(labels, 1.0, catalog.CmpEQ, sel) }},
		{"int_eq_1.25pct", func(sel []int32) []int32 { return selectCmp(ints, int64(7), catalog.CmpEQ, sel) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			sel := make([]int32, rows)
			kept := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(sel, all)
				b.StartTimer()
				kept = len(c.run(sel))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
			b.ReportMetric(float64(kept)/rows, "selected")
		})
	}
}

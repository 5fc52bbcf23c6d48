package aisql

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"aidb/internal/catalog"
	"aidb/internal/exec"
	"aidb/internal/ml"
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
// only (measured 61); predictAllocCeiling bounds the whole 40k-row
// statement (measured 220).
const (
	predictAllocGrowth  = 300
	predictAllocCeiling = 600
)

// countChunkRows wraps e's chunk forms so that evaluated counts the rows
// each Eval is handed and selected the rows each Selector is.
func countChunkRows(e *Engine, evaluated, selected *atomic.Int64) {
	counted := map[string]exec.VectorFunc{}
	for name, fn := range e.ex.VectorFuncs {
		c := exec.VectorFunc{Eval: func(first catalog.Value, args [][]float64, out []float64) error {
			evaluated.Add(int64(len(out)))
			return fn.Eval(first, args, out)
		}}
		if fn.Select != nil {
			c.Select = func(first catalog.Value, n int, accept uint8, k float64) (exec.Selector, error) {
				s, err := fn.Select(first, n, accept, k)
				if s == nil {
					return nil, err
				}
				return countingSelector{s, selected}, err
			}
		}
		counted[name] = c
	}
	e.ex.VectorFuncs = counted
}

type countingSelector struct {
	exec.Selector
	rows *atomic.Int64
}

func (s countingSelector) Select(floats [][]float64, ints [][]int64, sel []int32, scratch []float64) []int32 {
	s.rows.Add(int64(len(sel)))
	return s.Selector.Select(floats, ints, sel, scratch)
}

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

// TestPredictPastStackFeaturesAllocatesNothing: a logistic model over
// more features than a stack buffer holds used to scale each row into
// the heap — 1 025 allocations per 1 024-row chunk, one per Predict.
func TestPredictPastStackFeaturesAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations inflate allocs/op")
	}
	const n = stackFeatures + 1
	m := trainedModel(t, Logistic, n)
	cols, out := featureColumns(ml.NewRNG(3), n, 1024), make([]float64, 1024)
	f := make([]float64, n)
	for j, col := range cols {
		f[j] = col[0]
	}
	for _, proba := range []bool{false, true} {
		if a := testing.AllocsPerRun(10, func() {
			if err := m.PredictColumns(cols, out, proba); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("PredictColumns (proba %v) over %d features, 1 024 rows: %.0f allocations, want 0", proba, n, a)
		}
	}
	if a := testing.AllocsPerRun(10, func() {
		if _, err := m.Predict(f); err != nil {
			t.Fatal(err)
		}
		if _, err := m.PredictProba(f); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Predict and PredictProba over %d features: %.0f allocations, want 0", n, a)
	}
}

// trainedModel fits a model of kind on 512 rows of n normal features,
// labelled 1 where their sum is positive.
func trainedModel(tb testing.TB, kind ModelKind, n int) *Model {
	tb.Helper()
	rng := ml.NewRNG(uint64(17*n) + uint64(kind))
	x, y := ml.NewMatrix(512, n), make([]float64, 512)
	for i := range y {
		s := 0.0
		for j := 0; j < n; j++ {
			v := rng.NormFloat64()
			x.Set(i, j, v)
			s += v
		}
		if s > 0 {
			y[i] = 1
		}
	}
	features := make([]string, n)
	for j := range features {
		features[j] = fmt.Sprintf("f%d", j)
	}
	m, err := fit(&Model{Name: "m", Kind: kind, Features: features}, x, y, map[string]string{"epochs": "20"})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// featureColumns returns n columns of rows normal cells.
func featureColumns(rng *ml.RNG, n, rows int) [][]float64 {
	cols := make([][]float64, n)
	for j := range cols {
		cols[j] = make([]float64, rows)
		for i := range cols[j] {
			cols[j][i] = rng.NormFloat64() * 10
		}
	}
	return cols
}

// FuzzPredictColumns holds PREDICT's chunk form to the per-row form, the
// differential reference: for a logistic model with and without its
// scaler, a linear model and a tree, over 1 to 9 features and 0 to 2 100
// rows, PredictColumns must give Predict — PredictProba when asked — of
// every row, equal by math.Float64bits, and fail with the same error
// when the model is not probabilistic or is handed the wrong number of
// features. Weights, intercept, means and stds are the input's float64
// bits, cycled; cells mix NaN, ±Inf, ±0, subnormals and raw bits into
// normal values.
func FuzzPredictColumns(f *testing.F) {
	words := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(0), uint8(1), uint16(1024), false, words(0.7, -1.3, 0.1, 40, 12, 0.5, 3), uint64(1))
	f.Add(uint8(0), uint8(4), uint16(2100), true, words(0.7, 12, 3, -1.3, 40, 9, 0.25, -5, 0.5, 2.2, 1, 1, -0.9, 0, 2, 0.1), uint64(7))
	f.Add(uint8(2), uint8(5), uint16(1500), false, words(0.7, -1.3, 2.2, -0.4, 1.9, 0.01, 3), uint64(8))
	f.Add(uint8(1), uint8(8), uint16(2100), true, words(1e300, -1e-300, 5e-324, math.Inf(1)), uint64(2))
	f.Add(uint8(2), uint8(4), uint16(7), false, words(math.NaN(), math.Copysign(0, -1), 2), uint64(3))
	f.Add(uint8(3), uint8(8), uint16(300), false, []byte{}, uint64(4))
	f.Add(uint8(0x80), uint8(2), uint16(0), true, words(1), uint64(5))
	f.Add(uint8(2), uint8(3), uint16(10), true, words(1), uint64(6))
	f.Fuzz(func(t *testing.T, kind, feats uint8, rows uint16, proba bool, params []byte, seed uint64) {
		n, r := 1+int(feats)%9, int(rows)%2101
		params = append(params, make([]byte, 8-len(params)%8)...)
		word := func(k int) float64 {
			k %= len(params) / 8
			return math.Float64frombits(binary.LittleEndian.Uint64(params[8*k:]))
		}
		m := trainedModel(t, []ModelKind{Logistic, Logistic, Linear, Tree}[kind%4], n)
		switch kind % 4 {
		case 0, 1:
			for j := range m.logistic.Weights {
				m.logistic.Weights[j], m.means[j], m.stds[j] = word(3*j), word(3*j+1), word(3*j+2)
			}
			m.logistic.Intercept = word(3 * n)
			if kind%4 == 1 {
				m.means, m.stds = nil, nil
			}
		case 2:
			for j := range m.linear.Weights {
				m.linear.Weights[j] = word(j)
			}
			m.linear.Intercept = word(n)
		}
		offered := n
		if kind&0x80 != 0 {
			offered = n%9 + 1
		}
		rng := ml.NewRNG(seed)
		special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
			5e-324, -0x1p-1050, math.MaxFloat64, -9.223372036854775808e18}
		cols := make([][]float64, offered)
		for j := range cols {
			cols[j] = make([]float64, r)
			for i := range cols[j] {
				switch rng.Intn(4) {
				case 0:
					cols[j][i] = special[rng.Intn(len(special))]
				case 1:
					cols[j][i] = math.Float64frombits(rng.Uint64())
				default:
					cols[j][i] = rng.NormFloat64() * 50
				}
			}
		}
		row := make([]float64, offered)
		perRow := func() (float64, error) {
			if proba {
				return m.PredictProba(row)
			}
			return m.Predict(row)
		}
		_, wantErr := perRow()
		out := make([]float64, r)
		err := m.PredictColumns(cols, out, proba)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("PredictColumns error %v, per-row %v", err, wantErr)
		}
		if err != nil {
			return
		}
		for i := range out {
			for j, col := range cols {
				row[j] = col[i]
			}
			want, _ := perRow()
			if math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Fatalf("row %d %v: columns %v (%#x), per-row %v (%#x)", i, row, out[i], math.Float64bits(out[i]), want, math.Float64bits(want))
			}
		}
	})
}

// FuzzPredictSelect holds the selecting form of `PREDICT(m, …) op k` to
// the per-row form: for a logistic model with and without its scaler and
// a linear model, weights and intercepts fuzzed (NaN and infinite
// intercepts among them), over 1 to 9 features each an INT or a FLOAT
// column, 0 to 2 100 rows under the identity or a sparse selection, each
// of the six operators and k one of 0, 1, 0.5, -0, a fuzzed float and
// the prediction at an edge of the interval of sums, the model's
// selector must keep exactly the rows where comparing Predict of the
// row with k holds.
// Cells mix NaN, ±Inf, ±0, subnormals, raw bits and the int64 extremes
// into normal values, and about one row in four has its sum placed just
// inside [-1e-9, 0) past the intercept, or at k past it.
func FuzzPredictSelect(f *testing.F) {
	words := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(0), uint8(1), uint16(1024), uint8(0), uint8(1), false, words(0.7, -1.3, 0.1, 40, 12, 0.5, 3), uint64(1))
	f.Add(uint8(0), uint8(4), uint16(2100), uint8(1), uint8(5), true, words(0.7, 12, 3, -1.3, 40, 9, 0.25, -5, 0.5, 2.2, 1, 1, -0.9, 0, 2, 0.1), uint64(7))
	f.Add(uint8(2), uint8(5), uint16(1500), uint8(2), uint8(4), false, words(0.7, -1.3, 2.2, -0.4, 1.9, 0.01, 3), uint64(8))
	f.Add(uint8(1), uint8(8), uint16(2100), uint8(3), uint8(2), true, words(1e300, -1e-300, 5e-324, math.Inf(1)), uint64(2))
	f.Add(uint8(2), uint8(4), uint16(7), uint8(4), uint8(3), false, words(math.NaN(), math.Copysign(0, -1), 2), uint64(3))
	f.Add(uint8(0), uint8(1), uint16(300), uint8(5), uint8(5), true, words(0.5, 1, 2, math.Inf(-1)), uint64(4))
	f.Add(uint8(2), uint8(0), uint16(900), uint8(0), uint8(4), true, words(3, math.NaN()), uint64(5))
	f.Fuzz(func(t *testing.T, kind, feats uint8, rows uint16, op, kc uint8, sparse bool, params []byte, seed uint64) {
		n, r := 1+int(feats)%9, int(rows)%2101
		params = append(params, make([]byte, 8-len(params)%8)...)
		word := func(k int) float64 {
			k %= len(params) / 8
			return math.Float64frombits(binary.LittleEndian.Uint64(params[8*k:]))
		}
		m := trainedModel(t, []ModelKind{Logistic, Logistic, Linear}[kind%3], n)
		b := 0.0
		switch kind % 3 {
		case 0, 1:
			for j := range m.logistic.Weights {
				m.logistic.Weights[j], m.means[j], m.stds[j] = word(3*j), word(3*j+1), word(3*j+2)
			}
			m.logistic.Intercept = word(3 * n)
			b = m.logistic.Intercept
			if kind%3 == 1 {
				m.means, m.stds = nil, nil
			}
		case 2:
			for j := range m.linear.Weights {
				m.linear.Weights[j] = word(j)
			}
			m.linear.Intercept = word(n)
			b = m.linear.Intercept
		}
		accept := []uint8{2, 5, 1, 3, 4, 6}[op%6] // =, !=, <, <=, >, >=
		finish := func(s float64) float64 { return m.finishOne(s, false) }
		k := []float64{0, 1, 0.5, math.Copysign(0, -1), word(int(seed % 97)), 0}[kc%6]
		if kc%6 == 5 { // the prediction at an edge of the interval
			st := ml.NewSumTest(finish, accept, word(int(seed%89)))
			k = finish(st.Lo)
			if math.IsInf(st.Lo, 0) {
				k = finish(st.Hi)
			}
		}
		rng := ml.NewRNG(seed)
		special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
			5e-324, -0x1p-1050, math.MaxFloat64, -9.223372036854775808e18}
		floats, ints := make([][]float64, n), make([][]int64, n)
		for j := range floats {
			if rng.Intn(2) == 0 {
				ints[j] = make([]int64, r)
				for i := range ints[j] {
					switch rng.Intn(6) {
					case 0:
						ints[j][i] = []int64{math.MinInt64, math.MaxInt64, 0, -1, 1 << 53, 1<<53 + 1}[rng.Intn(6)]
					case 1:
						ints[j][i] = int64(rng.Uint64())
					default:
						ints[j][i] = int64(rng.Intn(200)) - 100
					}
				}
				continue
			}
			floats[j] = make([]float64, r)
			for i := range floats[j] {
				switch rng.Intn(4) {
				case 0:
					floats[j][i] = special[rng.Intn(len(special))]
				case 1:
					floats[j][i] = math.Float64frombits(rng.Uint64())
				default:
					floats[j][i] = rng.NormFloat64() * 50
				}
			}
		}
		cell := func(j, i int) float64 {
			if ints[j] != nil {
				return float64(ints[j][i])
			}
			return floats[j][i]
		}
		scaled := func(j int, x float64) float64 {
			if m.means != nil {
				return (x - m.means[j]) / m.stds[j]
			}
			return x
		}
		// Place some rows' sums at the edges: the last feature, when it is
		// a FLOAT, takes the cell that brings the sum there.
		w := m.weights()
		if last := n - 1; ints[last] == nil {
			for i := 0; i < r; i += 1 + rng.Intn(4) {
				s := 0.0
				for j := 0; j < last; j++ {
					s += w[j] * scaled(j, cell(j, i))
				}
				target := -b - rng.Float64()*1e-9
				if rng.Intn(2) == 0 {
					target = k - b + rng.NormFloat64()*1e-12
				}
				x := (target - s) / w[last]
				if m.means != nil {
					x = x*m.stds[last] + m.means[last]
				}
				floats[last][i] = x
			}
		}
		var sel []int32
		for i := 0; i < r; i++ {
			if !sparse || rng.Intn(3) == 0 {
				sel = append(sel, int32(i))
			}
		}
		row := make([]float64, n)
		var want []int32
		for _, i := range sel {
			for j := range row {
				row[j] = cell(j, int(i))
			}
			p, err := m.Predict(row)
			if err != nil {
				t.Fatal(err)
			}
			o := 0
			if p < k {
				o = -1
			} else if p > k {
				o = 1
			}
			if accept>>(o+1)&1 != 0 {
				want = append(want, i)
			}
		}
		s := m.selector(n, accept, k)
		if s == nil {
			t.Fatalf("a %v model has no selecting form", m.Kind)
		}
		got := s.Select(floats, ints, append([]int32(nil), sel...), make([]float64, len(sel)))
		if len(got) != len(want) {
			t.Fatalf("accept %d, k %v: %d rows selected, per-row %d", accept, k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				for j := range row {
					row[j] = cell(j, int(want[i]))
				}
				p, _ := m.Predict(row)
				t.Fatalf("accept %d, k %v: selected row %d at %d, per-row row %d (%v predicts %v)", accept, k, got[i], i, want[i], row, p)
			}
		}
	})
}

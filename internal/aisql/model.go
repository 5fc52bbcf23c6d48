// Package aisql implements the DB4AI declarative language layer (E14):
// the AISQL statements CREATE MODEL / EVALUATE MODEL / DROP MODEL and the
// PREDICT() scalar function, executed inside the database engine so
// training and inference read tables directly — no export/import step.
// A statement runs either from its text (Execute) or from a prepared
// handle (ExecutePrepared); a script runs statement by statement through
// the text path and its plan cache (RunScript), like ad-hoc statements.
// The package also implements the external-pipeline baseline (serialize
// to CSV, train outside, re-import predictions) whose data-movement cost
// the in-database path avoids.
package aisql

import (
	"fmt"
	"math"
	"strconv"
	"sync"

	"aidb/internal/catalog"
	"aidb/internal/exec"
	"aidb/internal/ml"
)

// ModelKind enumerates trainable model types.
type ModelKind int

// Supported model kinds.
const (
	Logistic ModelKind = iota
	Linear
	Tree
)

// ParseModelKind maps AISQL option strings to kinds.
func ParseModelKind(s string) (ModelKind, error) {
	switch s {
	case "", "logistic":
		return Logistic, nil
	case "linear":
		return Linear, nil
	case "tree":
		return Tree, nil
	default:
		return 0, fmt.Errorf("aisql: unknown model kind %q", s)
	}
}

// Model is a trained in-database model.
type Model struct {
	Name     string
	Kind     ModelKind
	Table    string
	Label    string
	Features []string

	logistic *ml.LogisticRegression
	linear   *ml.LinearRegression
	tree     *ml.DecisionTree

	// Feature scaler (fit at training time) for gradient-trained kinds.
	means, stds []float64

	// selectors holds the selecting forms found so far, by the outcomes
	// they accept and their constant's bits. A model is replaced, never
	// changed, so one found is good for the model's life.
	mu        sync.Mutex
	selectors map[selectorKey]*sumSelector
}

// stackFeatures is how many features a caller of Predict can hold in a
// stack buffer: PREDICT over that many allocates nothing per row.
const stackFeatures = 8

// trainingData extracts (features, labels) from a table: the feature and
// label columns decoded a page at a time into typed vectors, rows in
// heap order (page, then slot), each cell converted as toF64 converts
// it.
func trainingData(t *catalog.Table, features []string, label string) (*ml.Matrix, []float64, error) {
	labelIdx := t.Schema.ColIndex(label)
	if labelIdx < 0 {
		return nil, nil, fmt.Errorf("aisql: label column %q not found in %q", label, t.Name)
	}
	featIdx := make([]int, len(features))
	for i, f := range features {
		idx := t.Schema.ColIndex(f)
		if idx < 0 {
			return nil, nil, fmt.Errorf("aisql: feature column %q not found in %q", f, t.Name)
		}
		featIdx[i] = idx
	}
	vs := make([]catalog.Vector, len(t.Schema.Columns))
	cols := make([]*catalog.Vector, len(vs))
	cols[labelIdx] = &vs[labelIdx]
	for _, idx := range featIdx {
		cols[idx] = &vs[idx]
	}
	_, n, err := t.DecodePages(t.PageIDs(), cols, nil, math.MaxInt)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, nil, fmt.Errorf("aisql: table %q is empty", t.Name)
	}
	types := t.Schema.Columns
	x := ml.NewMatrix(n, len(features))
	y := make([]float64, n)
	for r := 0; r < n; r++ {
		for c, idx := range featIdx {
			v, err := cellF64(&vs[idx], types[idx].Type, r)
			if err != nil {
				return nil, nil, fmt.Errorf("aisql: feature %q row %d: %w", features[c], r, err)
			}
			x.Set(r, c, v)
		}
		lv, err := cellF64(&vs[labelIdx], types[labelIdx].Type, r)
		if err != nil {
			return nil, nil, fmt.Errorf("aisql: label row %d: %w", r, err)
		}
		y[r] = lv
	}
	return x, y, nil
}

// cellF64 is toF64 of row r of a column of type typ decoded into v.
func cellF64(v *catalog.Vector, typ catalog.ColType, r int) (float64, error) {
	switch typ {
	case catalog.Int64:
		return float64(v.I[r]), nil
	case catalog.Float64:
		return v.F[r], nil
	default:
		return parseF64(v.S[r])
	}
}

func toF64(v catalog.Value) (float64, error) {
	switch x := v.(type) {
	case int64:
		return float64(x), nil
	case float64:
		return x, nil
	case string:
		return parseF64(x)
	default:
		return 0, fmt.Errorf("unsupported value type %T", v)
	}
}

// parseF64 reads a numeric TEXT cell as a number.
func parseF64(s string) (float64, error) {
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f, nil
	}
	return 0, fmt.Errorf("non-numeric string %q", s)
}

// TrainModel fits a model of the given kind on a table. options carry
// epochs/lr overrides from the WITH clause.
func TrainModel(name string, kind ModelKind, t *catalog.Table, features []string, label string, options map[string]string) (*Model, error) {
	x, y, err := trainingData(t, features, label)
	if err != nil {
		return nil, err
	}
	return fit(&Model{Name: name, Kind: kind, Table: t.Name, Label: label, Features: features}, x, y, options)
}

// fit trains m, whose name, kind and columns are set, on features x and
// labels y.
func fit(m *Model, x *ml.Matrix, y []float64, options map[string]string) (*Model, error) {
	epochs := 200
	if v, ok := options["epochs"]; ok {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			epochs = n
		}
	}
	lr := 0.1
	if v, ok := options["lr"]; ok {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			lr = f
		}
	}
	switch m.Kind {
	case Logistic:
		// Standardize features so gradient descent converges regardless
		// of the columns' natural scales.
		m.means, m.stds = ml.Standardize(x)
		m.logistic = &ml.LogisticRegression{Epochs: epochs, LearningRate: lr}
		if err := m.logistic.Fit(x, y); err != nil {
			return nil, err
		}
	case Linear:
		m.linear = &ml.LinearRegression{}
		if err := m.linear.Fit(x, y); err != nil {
			return nil, err
		}
	case Tree:
		labels := make([]int, len(y))
		for i, v := range y {
			labels[i] = int(v)
		}
		m.tree = &ml.DecisionTree{MaxDepth: 8}
		if err := m.tree.Fit(x, labels); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Predict applies the model to one feature vector.
func (m *Model) Predict(f []float64) (float64, error) {
	if err := m.check(len(f), false); err != nil {
		return 0, err
	}
	return m.predict(f, false), nil
}

// PredictProba returns P(y=1) for logistic models and an error otherwise.
func (m *Model) PredictProba(f []float64) (float64, error) {
	if err := m.check(len(f), true); err != nil {
		return 0, err
	}
	return m.predict(f, true), nil
}

// PredictColumns writes one prediction per row of the feature columns
// cols into out: out[i] is Predict — PredictProba when proba is set — of
// (cols[0][i], cols[1][i], ...), bit for bit, and the error is theirs.
// A logistic or linear model sums a feature column at a time
// (ml.DotColumns) and allocates nothing; a tree walks row by row.
func (m *Model) PredictColumns(cols [][]float64, out []float64, proba bool) error {
	if err := m.check(len(cols), proba); err != nil {
		return err
	}
	if m.Kind == Tree {
		var buf [stackFeatures]float64
		f := buf[:]
		if len(cols) > stackFeatures {
			f = make([]float64, len(cols))
		}
		f = f[:len(cols)]
		for i := range out {
			for j, col := range cols {
				f[j] = col[i]
			}
			out[i] = float64(m.tree.Predict(f))
		}
		return nil
	}
	ml.DotColumns(out, m.weights(), cols, m.means, m.stds)
	m.finish(out, proba)
	return nil
}

// check is the error a prediction over n features fails with: a
// probability from a model that has none, or the wrong feature count.
func (m *Model) check(n int, proba bool) error {
	if proba && m.Kind != Logistic {
		return fmt.Errorf("aisql: model %q is not probabilistic", m.Name)
	}
	if n != len(m.Features) {
		return fmt.Errorf("aisql: model %q expects %d features, got %d", m.Name, len(m.Features), n)
	}
	return nil
}

// predict is the per-row kernel under Predict and PredictProba, on
// features check has accepted. A logistic or linear model scales each
// feature as it sums, in the operations and order of ml.DotColumns.
func (m *Model) predict(f []float64, proba bool) float64 {
	if m.Kind == Tree {
		return float64(m.tree.Predict(f))
	}
	w, s := m.weights(), 0.0
	for j, x := range f {
		if m.means != nil {
			x = (x - m.means[j]) / m.stds[j]
		}
		s += w[j] * x
	}
	return m.finishOne(s, proba)
}

// finishOne is finish of one sum: a one-row chunk, finished as any
// chunk is.
func (m *Model) finishOne(s float64, proba bool) float64 {
	sum := [1]float64{s}
	m.finish(sum[:], proba)
	return sum[0]
}

// selector is the selecting form of `PREDICT(m, …) op k` for a logistic
// or linear model: comparing Predict's result with k gives an outcome
// in accept (1 below, 2 equal, 4 above) exactly when the row's weighted
// feature sum passes one ml.SumTest, since a row's prediction is finish
// of that sum and finish is monotone in it — a rounded addition of the
// intercept, then for a logistic model the label, a step. A tree has no
// such sum and gets nil, as does a model over other than n features.
func (m *Model) selector(n int, accept uint8, k float64) exec.Selector {
	if m.Kind == Tree || n != len(m.Features) {
		return nil
	}
	key := selectorKey{accept, math.Float64bits(k)}
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.selectors[key]; ok {
		return s
	}
	if m.selectors == nil || len(m.selectors) == maxSelectors {
		m.selectors = make(map[selectorKey]*sumSelector)
	}
	s := &sumSelector{m: m, test: ml.NewSumTest(func(s float64) float64 { return m.finishOne(s, false) }, accept, k)}
	m.selectors[key] = s
	return s
}

// maxSelectors bounds a model's selecting forms: past it they are found
// again (two bisections of 64 steps each).
const maxSelectors = 64

type selectorKey struct {
	accept uint8
	k      uint64
}

// sumSelector is a model's selecting form for one comparison.
type sumSelector struct {
	m    *Model
	test ml.SumTest
}

func (s *sumSelector) Select(floats [][]float64, ints [][]int64, sel []int32, scratch []float64) []int32 {
	return ml.SelectSum(&s.test, s.m.weights(), floats, ints, s.m.means, s.m.stds, sel, scratch)
}

// weights is a logistic or linear model's feature weights.
func (m *Model) weights() []float64 {
	if m.Kind == Linear {
		return m.linear.Weights
	}
	return m.logistic.Weights
}

// finish turns each weighted, scaled feature sum in out into its row's
// prediction: the intercept added, then a logistic model's label or
// probability. A NaN comes out as math.NaN(): which of two NaN operands
// an addition passes on is the hardware's choice, and the compiler may
// swap the operands, so the row and column forms could otherwise differ
// in a NaN's bits.
func (m *Model) finish(out []float64, proba bool) {
	if m.Kind == Logistic {
		m.logistic.FromSums(out, proba)
		if !proba {
			return // a label is 0 or 1
		}
	}
	for i, z := range out {
		if m.Kind == Linear {
			z += m.linear.Intercept
		}
		if z != z {
			z = math.NaN()
		}
		out[i] = z
	}
}

// PredictBatch applies the model to every row of x, leaving x as it
// was: PredictColumns over the columns of a chunk of x's rows at a time,
// so outputs are identical to calling Predict per row.
func (m *Model) PredictBatch(x *ml.Matrix) ([]float64, error) {
	if err := m.check(x.Cols, false); err != nil {
		return nil, err
	}
	out := make([]float64, x.Rows)
	for lo := 0; lo < x.Rows; lo += exec.DefaultMorselRows {
		t := x.RowSlice(lo, min(lo+exec.DefaultMorselRows, x.Rows)).T()
		cols := make([][]float64, t.Rows)
		for j := range cols {
			cols[j] = t.Row(j)
		}
		if err := m.PredictColumns(cols, out[lo:lo+t.Cols], false); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Metrics holds EVALUATE MODEL output.
type Metrics struct {
	Rows     int
	Accuracy float64 // classification kinds
	MSE      float64 // regression kinds
}

// Evaluate scores the model against a labelled table with one batched
// prediction pass instead of a per-row loop.
func (m *Model) Evaluate(t *catalog.Table) (Metrics, error) {
	x, y, err := trainingData(t, m.Features, m.Label)
	if err != nil {
		return Metrics{}, err
	}
	var met Metrics
	met.Rows = x.Rows
	preds, err := m.PredictBatch(x)
	if err != nil {
		return Metrics{}, err
	}
	switch m.Kind {
	case Linear:
		met.MSE = ml.MSE(preds, y)
	default:
		correct := 0
		for i := range preds {
			if preds[i] == y[i] {
				correct++
			}
		}
		met.Accuracy = float64(correct) / float64(len(preds))
	}
	return met, nil
}

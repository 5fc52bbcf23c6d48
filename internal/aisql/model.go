// Package aisql implements the DB4AI declarative language layer (E14):
// the AISQL statements CREATE MODEL / EVALUATE MODEL / DROP MODEL and the
// PREDICT() scalar function, executed inside the database engine so
// training and inference read tables directly — no export/import step.
// The package also implements the external-pipeline baseline (serialize
// to CSV, train outside, re-import predictions) whose data-movement cost
// the in-database path avoids.
package aisql

import (
	"fmt"
	"strconv"

	"aidb/internal/catalog"
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
}

// stackFeatures is how many features a caller of Predict can hold in a
// stack buffer: PREDICT over that many allocates nothing per row.
const stackFeatures = 8

// scale applies the fitted feature scaler, writing into dst's storage
// (a caller's stack buffer); without a scaler it returns f itself.
func (m *Model) scale(dst, f []float64) []float64 {
	if m.means == nil {
		return f
	}
	dst = dst[:0]
	for i, v := range f {
		dst = append(dst, (v-m.means[i])/m.stds[i])
	}
	return dst
}

// trainingData extracts (features, labels) from a table.
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
	rows, err := t.AllRows()
	if err != nil {
		return nil, nil, err
	}
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("aisql: table %q is empty", t.Name)
	}
	x := ml.NewMatrix(len(rows), len(features))
	y := make([]float64, len(rows))
	for r, row := range rows {
		for c, idx := range featIdx {
			v, err := toF64(row[idx])
			if err != nil {
				return nil, nil, fmt.Errorf("aisql: feature %q row %d: %w", features[c], r, err)
			}
			x.Set(r, c, v)
		}
		lv, err := toF64(row[labelIdx])
		if err != nil {
			return nil, nil, fmt.Errorf("aisql: label row %d: %w", r, err)
		}
		y[r] = lv
	}
	return x, y, nil
}

func toF64(v catalog.Value) (float64, error) {
	switch x := v.(type) {
	case int64:
		return float64(x), nil
	case float64:
		return x, nil
	case string:
		if f, err := strconv.ParseFloat(x, 64); err == nil {
			return f, nil
		}
		return 0, fmt.Errorf("non-numeric string %q", x)
	default:
		return 0, fmt.Errorf("unsupported value type %T", v)
	}
}

// TrainModel fits a model of the given kind on a table. options carry
// epochs/lr overrides from the WITH clause.
func TrainModel(name string, kind ModelKind, t *catalog.Table, features []string, label string, options map[string]string) (*Model, error) {
	x, y, err := trainingData(t, features, label)
	if err != nil {
		return nil, err
	}
	m := &Model{Name: name, Kind: kind, Table: t.Name, Label: label, Features: features}
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
	switch kind {
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
	if len(f) != len(m.Features) {
		return 0, fmt.Errorf("aisql: model %q expects %d features, got %d", m.Name, len(m.Features), len(f))
	}
	switch m.Kind {
	case Logistic:
		var buf [stackFeatures]float64
		return m.logistic.Predict(m.scale(buf[:], f)), nil
	case Linear:
		return m.linear.Predict(f), nil
	default:
		return float64(m.tree.Predict(f)), nil
	}
}

// PredictProba returns P(y=1) for logistic models and an error otherwise.
func (m *Model) PredictProba(f []float64) (float64, error) {
	if m.Kind != Logistic {
		return 0, fmt.Errorf("aisql: model %q is not probabilistic", m.Name)
	}
	var buf [stackFeatures]float64
	return m.logistic.PredictProba(m.scale(buf[:], f)), nil
}

// PredictBatch applies the model to every row of x in one batched pass
// per kind (scaling in place for gradient-trained kinds — x must be
// caller-owned). Outputs are identical to calling Predict per row.
func (m *Model) PredictBatch(x *ml.Matrix) ([]float64, error) {
	if x.Cols != len(m.Features) {
		return nil, fmt.Errorf("aisql: model %q expects %d features, got %d", m.Name, len(m.Features), x.Cols)
	}
	switch m.Kind {
	case Logistic:
		m.scaleMatrix(x)
		return m.logistic.PredictBatch(x), nil
	case Linear:
		return m.linear.PredictBatch(x), nil
	default:
		classes := m.tree.PredictBatch(x)
		out := make([]float64, len(classes))
		for i, c := range classes {
			out[i] = float64(c)
		}
		return out, nil
	}
}

// scaleMatrix applies the fitted feature scaler to every row in place.
func (m *Model) scaleMatrix(x *ml.Matrix) {
	if m.means == nil {
		return
	}
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for j, v := range row {
			row[j] = (v - m.means[j]) / m.stds[j]
		}
	}
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

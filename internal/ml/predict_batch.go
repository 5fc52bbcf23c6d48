package ml

// Batched prediction for the classic models. Each PredictBatch is the
// whole-matrix counterpart of calling Predict per row with bitwise-equal
// outputs (same accumulation order per row), and each Into variant
// writes into a caller-owned slice so hot loops — inference scoring,
// RMI stage assignment, model-selection scoring — stop allocating per
// call.

// PredictBatchInto writes the fitted value of every row of x into dst,
// growing it when needed, and returns it.
func (lr *LinearRegression) PredictBatchInto(dst []float64, x *Matrix) []float64 {
	dst = growFloats(dst, x.Rows)
	w := lr.Weights
	b := lr.Intercept
	for i := range dst {
		row := x.Row(i)
		s := 0.0
		for j, v := range w {
			s += v * row[j]
		}
		dst[i] = s + b
	}
	return dst
}

// PredictBatch returns the fitted values for every row of x.
func (lr *LinearRegression) PredictBatch(x *Matrix) []float64 {
	return lr.PredictBatchInto(nil, x)
}

// PredictProbaBatchInto writes P(y=1 | row) for every row of x into dst,
// growing it when needed, and returns it.
func (m *LogisticRegression) PredictProbaBatchInto(dst []float64, x *Matrix) []float64 {
	dst = growFloats(dst, x.Rows)
	for i := range dst {
		dst[i] = Sigmoid(m.logit(x.Row(i)))
	}
	return dst
}

// PredictProbaBatch returns P(y=1 | row) for every row of x.
func (m *LogisticRegression) PredictProbaBatch(x *Matrix) []float64 {
	return m.PredictProbaBatchInto(nil, x)
}

// PredictBatch returns the hard 0/1 label for every row of x.
func (m *LogisticRegression) PredictBatch(x *Matrix) []float64 {
	dst := make([]float64, x.Rows)
	for i := range dst {
		dst[i] = label(m.logit(x.Row(i)))
	}
	return dst
}

// PredictBatchInto writes the predicted class of every row of x into
// dst, growing it when needed, and returns it.
func (t *DecisionTree) PredictBatchInto(dst []int, x *Matrix) []int {
	if cap(dst) < x.Rows {
		dst = make([]int, x.Rows)
	}
	dst = dst[:x.Rows]
	for i := range dst {
		dst[i] = t.Predict(x.Row(i))
	}
	return dst
}

// PredictBatch returns the predicted class for every row of x.
func (t *DecisionTree) PredictBatch(x *Matrix) []int {
	return t.PredictBatchInto(nil, x)
}

// growFloats returns dst resized to n, reallocating only when capacity
// is insufficient.
func growFloats(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

package ml

// Batched prediction for linear regression: PredictBatch is the
// whole-matrix counterpart of calling Predict per row with bitwise-equal
// outputs (same accumulation order per row), and PredictBatchInto writes
// into a caller-owned slice so the RMI's stage assignment stops
// allocating per call. A logistic model predicts a batch of feature
// columns with DotColumns and FromSums.

// PredictBatchInto writes the fitted value of every row of x into dst,
// growing it when needed, and returns it.
func (lr *LinearRegression) PredictBatchInto(dst []float64, x *Matrix) []float64 {
	if cap(dst) < x.Rows {
		dst = make([]float64, x.Rows)
	}
	dst = dst[:x.Rows]
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

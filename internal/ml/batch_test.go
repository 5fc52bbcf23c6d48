package ml

import (
	"math"
	"runtime"
	"testing"
)

// workerSweep is the parallelism grid every batch-vs-per-row equality
// property is checked over: pinned serial, two workers, every core, and
// the automatic threshold policy.
func workerSweep() []int {
	return []int{1, 2, runtime.NumCPU(), 0}
}

func randomMatrix(rng *RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func requireBitwiseEqual(t *testing.T, got, want *Matrix, ctx string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", ctx, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v (bits %x), want %v (bits %x)",
				ctx, i, v, math.Float64bits(v), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

func TestMatMulMatchesNaiveAcrossShapesAndWorkers(t *testing.T) {
	rng := NewRNG(7)
	shapes := [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 1, 7}, {17, 64, 9}, {33, 65, 31}, {64, 200, 48}, {128, 70, 130}}
	for _, sh := range shapes {
		a := randomMatrix(rng, sh[0], sh[1])
		b := randomMatrix(rng, sh[1], sh[2])
		// Inject exact zeros so the naive kernel's zero-skip path is
		// exercised against the blocked kernel's straight accumulate.
		for i := 0; i < len(a.Data); i += 7 {
			a.Data[i] = 0
		}
		want := MatMulNaive(a, b)
		for _, w := range workerSweep() {
			requireBitwiseEqual(t, MatMulWorkers(a, b, w), want, "MatMulWorkers")
			dst := randomMatrix(rng, sh[0], sh[2]) // stale contents must be overwritten
			requireBitwiseEqual(t, MatMulInto(dst, a, b, w), want, "MatMulInto")
		}
	}
}

func TestMatMulAddBiasMatchesPerRow(t *testing.T) {
	rng := NewRNG(8)
	a := randomMatrix(rng, 37, 19)
	w := randomMatrix(rng, 19, 11)
	bias := make([]float64, 11)
	for j := range bias {
		bias[j] = rng.NormFloat64()
	}
	// Per-row oracle in the forward pass's accumulation order: bias
	// first, then k ascending.
	want := NewMatrix(a.Rows, w.Cols)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j := 0; j < w.Cols; j++ {
			s := bias[j]
			for k, v := range row {
				s += v * w.At(k, j)
			}
			want.Set(i, j, s)
		}
	}
	requireBitwiseEqual(t, MatMulAddBias(a, w, bias), want, "MatMulAddBias")
	for _, workers := range workerSweep() {
		dst := randomMatrix(rng, a.Rows, w.Cols)
		requireBitwiseEqual(t, MatMulAddBiasInto(dst, a, w, bias, workers), want, "MatMulAddBiasInto")
	}
}

func TestMatMulIntoShapeAndBiasPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("bad dst", func() { MatMulInto(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(3, 4), 1) })
	mustPanic("bad bias", func() { MatMulAddBias(NewMatrix(2, 3), NewMatrix(3, 4), make([]float64, 3)) })
	mustPanic("naive mismatch", func() { MatMulNaive(NewMatrix(2, 3), NewMatrix(2, 3)) })
}

func TestMLPPredictBatchBitwiseEqualsPredict(t *testing.T) {
	rng := NewRNG(21)
	archs := [][]int{{3, 8, 1}, {5, 16, 16, 2}, {7, 4, 4, 4, 3}}
	acts := []Activation{ReLU, Tanh, SigmoidAct}
	for ai, sizes := range archs {
		net := NewMLP(rng, acts[ai%len(acts)], sizes...)
		for _, n := range []int{1, 2, 64, 129} {
			x := randomMatrix(rng, n, sizes[0])
			want := NewMatrix(n, sizes[len(sizes)-1])
			for i := 0; i < n; i++ {
				copy(want.Row(i), net.Predict(x.Row(i)))
			}
			requireBitwiseEqual(t, net.PredictBatch(x), want, "PredictBatch")
			// Scratch reuse across calls must not change results.
			var s MLPScratch
			requireBitwiseEqual(t, net.PredictBatchInto(&s, x).Clone(), want, "PredictBatchInto cold")
			requireBitwiseEqual(t, net.PredictBatchInto(&s, x).Clone(), want, "PredictBatchInto warm")
			got1 := net.Predict1Batch(&s, x, nil)
			for i, v := range got1 {
				if math.Float64bits(v) != math.Float64bits(want.At(i, 0)) {
					t.Fatalf("Predict1Batch[%d] = %v, want %v", i, v, want.At(i, 0))
				}
			}
		}
	}
}

func TestForwardBatchLayerActivationsMatchPerRow(t *testing.T) {
	rng := NewRNG(22)
	net := NewMLP(rng, ReLU, 4, 6, 5, 2)
	x := randomMatrix(rng, 23, 4)
	var s MLPScratch
	acts := net.ForwardBatch(&s, x)
	for r := 0; r < x.Rows; r++ {
		perRow := net.forward(x.Row(r))
		for l, a := range perRow {
			for j, v := range a {
				if math.Float64bits(acts[l].At(r, j)) != math.Float64bits(v) {
					t.Fatalf("layer %d row %d col %d: batch %v, per-row %v", l, r, j, acts[l].At(r, j), v)
				}
			}
		}
	}
}

func TestTrainMinibatchParallelismInvariant(t *testing.T) {
	rng := NewRNG(31)
	base := NewMLP(rng, ReLU, 6, 12, 12, 2)
	x := randomMatrix(rng, 250, 6) // several chunks, last one ragged
	y := randomMatrix(rng, 250, 2)
	var ref *MLP
	var refLoss float64
	for _, workers := range workerSweep() {
		net := base.Clone()
		var s MLPScratch
		loss := net.TrainMinibatch(&s, x, y, 0.05, workers)
		loss2 := net.TrainMinibatch(&s, x, y, 0.05, workers) // warm-scratch second step
		if ref == nil {
			ref, refLoss = net, loss
			continue
		}
		if math.Float64bits(loss) != math.Float64bits(refLoss) {
			t.Fatalf("workers=%d: loss %v, want %v", workers, loss, refLoss)
		}
		_ = loss2
		for l := range net.weights {
			requireBitwiseEqual(t, net.weights[l], ref.weights[l], "weights after TrainMinibatch")
			for j, b := range net.biases[l] {
				if math.Float64bits(b) != math.Float64bits(ref.biases[l][j]) {
					t.Fatalf("workers=%d layer %d bias %d: %v vs %v", workers, l, j, b, ref.biases[l][j])
				}
			}
		}
	}
}

func TestTrainMinibatchMatchesAccumulatedSGDGradient(t *testing.T) {
	// One minibatch step must equal the *summed* per-example gradient
	// scaled by lrate/n — verified numerically against per-example
	// TrainStep applied to a frozen copy of the weights.
	rng := NewRNG(33)
	net := NewMLP(rng, Tanh, 3, 5, 1)
	n := 9
	x := randomMatrix(rng, n, 3)
	y := randomMatrix(rng, n, 1)
	// Accumulate per-example gradients from frozen weights: apply
	// TrainStep to a fresh clone per example and diff the weights.
	sumW := make([]*Matrix, len(net.weights))
	for l := range sumW {
		sumW[l] = NewMatrix(net.weights[l].Rows, net.weights[l].Cols)
	}
	lrate := 0.1
	for i := 0; i < n; i++ {
		c := net.Clone()
		c.TrainStep(x.Row(i), y.Row(i), lrate)
		for l := range sumW {
			for k := range sumW[l].Data {
				sumW[l].Data[k] += c.weights[l].Data[k] - net.weights[l].Data[k]
			}
		}
	}
	batch := net.Clone()
	var s MLPScratch
	batch.TrainMinibatch(&s, x, y, lrate, 1)
	for l := range sumW {
		for k := range sumW[l].Data {
			gotDelta := batch.weights[l].Data[k] - net.weights[l].Data[k]
			wantDelta := sumW[l].Data[k] / float64(n)
			if math.Abs(gotDelta-wantDelta) > 1e-12 {
				t.Fatalf("layer %d elem %d: minibatch delta %v, mean per-example delta %v", l, k, gotDelta, wantDelta)
			}
		}
	}
}

func TestTrainBatchedLearnsAndIsDeterministic(t *testing.T) {
	// y = 2*x0 - x1 on standardized inputs: the batched trainer must
	// drive loss near zero and produce identical weights across runs
	// with the same seed at different worker counts.
	build := func(workers int) (*MLP, float64) {
		rng := NewRNG(5)
		net := NewMLP(rng, ReLU, 2, 16, 1)
		net.Epochs = 120
		net.BatchSize = 32
		net.LearningRate = 0.05
		x := NewMatrix(256, 2)
		y := make([]float64, 256)
		dataRng := NewRNG(6)
		for i := 0; i < 256; i++ {
			a, b := dataRng.NormFloat64(), dataRng.NormFloat64()
			x.Set(i, 0, a)
			x.Set(i, 1, b)
			y[i] = 2*a - b
		}
		loss, err := net.TrainBatchedScalar(rng, x, y, workers)
		if err != nil {
			t.Fatal(err)
		}
		return net, loss
	}
	serial, lossSerial := build(1)
	if lossSerial > 0.05 {
		t.Fatalf("TrainBatched final loss %v, want < 0.05", lossSerial)
	}
	parallel, lossParallel := build(runtime.NumCPU())
	if math.Float64bits(lossSerial) != math.Float64bits(lossParallel) {
		t.Fatalf("loss differs across parallelism: %v vs %v", lossSerial, lossParallel)
	}
	for l := range serial.weights {
		requireBitwiseEqual(t, parallel.weights[l], serial.weights[l], "TrainBatched weights")
	}
}

func TestLinearRegressionPredictBatchMatches(t *testing.T) {
	rng := NewRNG(41)
	lr := &LinearRegression{Weights: []float64{1.5, -2.25, 0.5}, Intercept: 3.75}
	x := randomMatrix(rng, 57, 3)
	got := lr.PredictBatch(x)
	for i, v := range got {
		if math.Float64bits(v) != math.Float64bits(lr.Predict(x.Row(i))) {
			t.Fatalf("row %d: batch %v, per-row %v", i, v, lr.Predict(x.Row(i)))
		}
	}
	// Into variant reuses the destination.
	dst := make([]float64, 0, 57)
	dst2 := lr.PredictBatchInto(dst[:0], x)
	if &dst2[0] != &dst[:1][0] {
		t.Fatal("PredictBatchInto reallocated despite sufficient capacity")
	}
}

// TestDotColumnsMatchesDot pins the column kernel to the per-row sum bit
// for bit, with and without a scaler, through FromSums' label and
// probability: DotColumns then FromSums is Predict / PredictProba of the
// row, and with means and stds Dot(w, scale(f)) + Intercept. Cells
// include NaN, ±Inf, ±0, subnormals and int64-sized values, one to a
// row (which of two NaNs a sum passes on is the hardware's choice).
func TestDotColumnsMatchesDot(t *testing.T) {
	rng := NewRNG(42)
	m := &LogisticRegression{Weights: []float64{0.8, -1.2, 2.5, -0.3}, Intercept: 0.3}
	x := randomMatrix(rng, 256, 4)
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324, -0x1p-1060, 9.2e18}
	for i, v := range odd {
		x.Set(i, i%4, v)
		x.Set(len(odd)+i, (i+1)%4, v)
	}
	means, stds := []float64{0.5, -2, 0, 7}, []float64{3, 0.25, 1.7, 0.1}
	xt, cols := x.T(), make([][]float64, x.Cols)
	for j := range cols {
		cols[j] = xt.Row(j)
	}
	f := make([]float64, x.Cols)
	for _, proba := range []bool{false, true} {
		got, scaled := make([]float64, x.Rows), make([]float64, x.Rows)
		DotColumns(got, m.Weights, cols, nil, nil)
		DotColumns(scaled, m.Weights, cols, means, stds)
		m.FromSums(got, proba)
		m.FromSums(scaled, proba)
		for i := 0; i < x.Rows; i++ {
			row := x.Row(i)
			want := m.Predict(row)
			if proba {
				want = m.PredictProba(row)
			}
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("row %d proba=%v: columns %v, per-row %v", i, proba, got[i], want)
			}
			for j, v := range row {
				f[j] = (v - means[j]) / stds[j]
			}
			want = label(Dot(m.Weights, f) + m.Intercept)
			if proba {
				want = Sigmoid(Dot(m.Weights, f) + m.Intercept)
			}
			if math.Float64bits(scaled[i]) != math.Float64bits(want) {
				t.Fatalf("row %d proba=%v scaled: columns %v, per-row %v", i, proba, scaled[i], want)
			}
		}
	}
}

func TestRowSliceSharesStorage(t *testing.T) {
	m := MatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	s := m.RowSlice(1, 3)
	if s.Rows != 2 || s.Cols != 2 || s.At(0, 0) != 3 || s.At(1, 1) != 6 {
		t.Fatalf("RowSlice wrong view: %+v", s)
	}
	s.Set(0, 0, 99)
	if m.At(1, 0) != 99 {
		t.Fatal("RowSlice does not share storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range RowSlice")
		}
	}()
	m.RowSlice(2, 4)
}

package ml

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLinearRegressionRecoversCoefficients(t *testing.T) {
	rng := NewRNG(1)
	n := 300
	x := NewMatrix(n, 3)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			x.Set(i, j, rng.Float64()*4-2)
		}
		y[i] = 2*x.At(i, 0) - 1.5*x.At(i, 1) + 0.5*x.At(i, 2) + 7
	}
	var lr LinearRegression
	if err := lr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	want := []float64{2, -1.5, 0.5}
	for j, w := range want {
		if math.Abs(lr.Weights[j]-w) > 1e-6 {
			t.Errorf("weight[%d] = %v, want %v", j, lr.Weights[j], w)
		}
	}
	if math.Abs(lr.Intercept-7) > 1e-6 {
		t.Errorf("intercept = %v, want 7", lr.Intercept)
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	var lr LinearRegression
	if err := lr.Fit(NewMatrix(0, 2), nil); err == nil {
		t.Error("expected error fitting empty data")
	}
	if err := lr.Fit(NewMatrix(3, 2), []float64{1}); err == nil {
		t.Error("expected error on row/target mismatch")
	}
}

func TestLogisticRegressionSeparable(t *testing.T) {
	rng := NewRNG(2)
	n := 400
	x := NewMatrix(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		if a+b > 0 {
			y[i] = 1
		}
	}
	m := LogisticRegression{Epochs: 500, LearningRate: 0.5}
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < n; i++ {
		if m.Predict(x.Row(i)) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(n); acc < 0.95 {
		t.Errorf("accuracy = %v, want >= 0.95 on separable data", acc)
	}
}

func TestLogisticPartialFitLearns(t *testing.T) {
	rng := NewRNG(3)
	m := LogisticRegression{LearningRate: 0.3}
	for e := 0; e < 2000; e++ {
		a := rng.Float64()*2 - 1
		lbl := 0.0
		if a > 0.1 {
			lbl = 1
		}
		m.PartialFit([]float64{a}, lbl)
	}
	if m.PredictProba([]float64{0.9}) < 0.7 {
		t.Errorf("P(1|0.9) = %v, want > 0.7", m.PredictProba([]float64{0.9}))
	}
	if m.PredictProba([]float64{-0.9}) > 0.3 {
		t.Errorf("P(1|-0.9) = %v, want < 0.3", m.PredictProba([]float64{-0.9}))
	}
}

func TestSigmoidProperties(t *testing.T) {
	f := func(z float64) bool {
		if math.IsNaN(z) || math.IsInf(z, 0) {
			return true
		}
		p := Sigmoid(z)
		if p < 0 || p > 1 {
			return false
		}
		// Symmetry: sigmoid(z) + sigmoid(-z) == 1.
		return math.Abs(p+Sigmoid(-z)-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLabelMatchesSigmoidThreshold pins the exponential-free logistic
// label to the definition it replaces, Sigmoid(z) >= 0.5, at the values
// where they could part — the zeros, the smallest subnormal, the band's
// edge and its neighbours, the infinities, NaN — and at a million seeded
// logits spread over every magnitude; Predict and the column kernel,
// DotColumns then FromSums, must give the same label for each.
func TestLabelMatchesSigmoidThreshold(t *testing.T) {
	want := func(z float64) float64 {
		if Sigmoid(z) >= 0.5 {
			return 1
		}
		return 0
	}
	var zs []float64
	for _, z := range []float64{0, 5e-324, 0x1p-54, 1e-17, 1e-9, 1, math.Inf(1)} {
		zs = append(zs, z, -z, math.Nextafter(z, 0), -math.Nextafter(z, 0), math.Nextafter(z, 2), -math.Nextafter(z, 2))
	}
	zs = append(zs, math.NaN(), math.Copysign(0, -1))
	rng := NewRNG(7)
	for i := 0; i < 1_000_000; i++ {
		var z float64
		switch i % 3 {
		case 0: // every binary exponent, subnormals included
			z = math.Ldexp(rng.Float64(), -rng.Intn(1075))
		case 1: // the band and its surroundings
			z = rng.Float64() * 4e-9
		default:
			z = rng.Float64() * 80
		}
		if rng.Intn(2) == 0 {
			z = -z
		}
		zs = append(zs, z)
	}
	inBand := 0
	for _, z := range zs {
		if got := label(z); math.Float64bits(got) != math.Float64bits(want(z)) {
			t.Fatalf("label(%v) = %v, Sigmoid(z) >= 0.5 says %v", z, got, want(z))
		}
		if z < 0 && z >= -labelBand {
			inBand++
		}
	}
	if inBand < 100_000 {
		t.Fatalf("only %d logits inside the band", inBand)
	}
	// One feature, weight 1, intercept 0: the logit is the feature.
	m := &LogisticRegression{Weights: []float64{1}}
	batch := make([]float64, len(zs))
	DotColumns(batch, m.Weights, [][]float64{zs}, nil, nil)
	m.FromSums(batch, false)
	for i, z := range zs {
		if got := m.Predict(zs[i : i+1]); got != want(z) || batch[i] != got {
			t.Fatalf("z = %v: Predict %v, columns %v, want %v", z, got, batch[i], want(z))
		}
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	rng := NewRNG(4)
	net := NewMLP(rng, Tanh, 2, 8, 1)
	net.LearningRate = 0.1
	net.Epochs = 2000
	x := MatrixFromRows([][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	y := []float64{0, 1, 1, 0}
	if _, err := net.TrainScalar(rng, x, y); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		got := net.Predict1(x.Row(i))
		if math.Abs(got-y[i]) > 0.3 {
			t.Errorf("XOR(%v) = %v, want ~%v", x.Row(i), got, y[i])
		}
	}
}

func TestMLPCloneIndependent(t *testing.T) {
	rng := NewRNG(5)
	a := NewMLP(rng, ReLU, 2, 4, 1)
	b := a.Clone()
	before := b.Predict1([]float64{1, 1})
	a.TrainStep([]float64{1, 1}, []float64{100}, 0.5)
	if got := b.Predict1([]float64{1, 1}); got != before {
		t.Error("clone must be unaffected by training the original")
	}
	b.CopyFrom(a)
	if b.Predict1([]float64{1, 1}) != a.Predict1([]float64{1, 1}) {
		t.Error("CopyFrom must synchronize outputs")
	}
}

func TestDecisionTreeAxisAligned(t *testing.T) {
	rng := NewRNG(6)
	n := 500
	x := NewMatrix(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64(), rng.Float64()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		if a > 0.5 && b > 0.5 {
			y[i] = 1
		}
	}
	tr := DecisionTree{MaxDepth: 4}
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pred := make([]int, n)
	for i := 0; i < n; i++ {
		pred[i] = tr.Predict(x.Row(i))
	}
	if acc := Accuracy(pred, y); acc < 0.97 {
		t.Errorf("tree accuracy = %v, want >= 0.97 on axis-aligned data", acc)
	}
	if tr.Depth() == 0 {
		t.Error("tree should have split at least once")
	}
}

func TestDecisionTreeProbaSumsToOne(t *testing.T) {
	rng := NewRNG(7)
	x := NewMatrix(100, 2)
	y := make([]int, 100)
	for i := 0; i < 100; i++ {
		x.Set(i, 0, rng.Float64())
		x.Set(i, 1, rng.Float64())
		y[i] = rng.Intn(3)
	}
	var tr DecisionTree
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	p := tr.PredictProba([]float64{0.5, 0.5})
	s := 0.0
	for _, v := range p {
		s += v
	}
	if math.Abs(s-1) > 1e-9 {
		t.Errorf("leaf probabilities sum to %v, want 1", s)
	}
}

func TestGaussianNBSeparatedClusters(t *testing.T) {
	rng := NewRNG(8)
	n := 300
	x := NewMatrix(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		y[i] = c
		off := float64(c) * 5
		x.Set(i, 0, off+rng.NormFloat64())
		x.Set(i, 1, off+rng.NormFloat64())
	}
	var nb GaussianNB
	if err := nb.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if nb.Predict([]float64{0, 0}) != 0 || nb.Predict([]float64{5, 5}) != 1 {
		t.Error("GaussianNB misclassifies well-separated cluster centers")
	}
}

func TestKNNPredict(t *testing.T) {
	x := MatrixFromRows([][]float64{{0, 0}, {0, 1}, {1, 0}, {10, 10}, {10, 11}, {11, 10}})
	y := []int{0, 0, 0, 1, 1, 1}
	k := KNN{K: 3}
	if err := k.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if k.Predict([]float64{0.2, 0.2}) != 0 {
		t.Error("expected class 0 near origin")
	}
	if k.Predict([]float64{10.5, 10.5}) != 1 {
		t.Error("expected class 1 near (10,10)")
	}
}

func TestKMeansTwoBlobs(t *testing.T) {
	rng := NewRNG(9)
	n := 200
	x := NewMatrix(n, 2)
	for i := 0; i < n; i++ {
		off := 0.0
		if i%2 == 1 {
			off = 8
		}
		x.Set(i, 0, off+rng.NormFloat64()*0.5)
		x.Set(i, 1, off+rng.NormFloat64()*0.5)
	}
	km := KMeans{K: 2}
	if err := km.Fit(rng, x); err != nil {
		t.Fatal(err)
	}
	c0, _ := km.Assign([]float64{0, 0})
	c1, _ := km.Assign([]float64{8, 8})
	if c0 == c1 {
		t.Error("blob centers should land in different clusters")
	}
	if km.Inertia > float64(n) {
		t.Errorf("inertia = %v unexpectedly high for tight blobs", km.Inertia)
	}
}

func TestKMeansErrors(t *testing.T) {
	rng := NewRNG(10)
	km := KMeans{K: 5}
	if err := km.Fit(rng, NewMatrix(2, 2)); err == nil {
		t.Error("expected error when rows < K")
	}
	km = KMeans{K: 0}
	if err := km.Fit(rng, NewMatrix(2, 2)); err == nil {
		t.Error("expected error when K = 0")
	}
}

func TestQError(t *testing.T) {
	if q := QError(10, 100); q != 10 {
		t.Errorf("QError(10,100) = %v, want 10", q)
	}
	if q := QError(100, 10); q != 10 {
		t.Errorf("QError(100,10) = %v, want 10", q)
	}
	if q := QError(0, 0); q != 1 {
		t.Errorf("QError(0,0) = %v, want 1 (clamped)", q)
	}
}

func TestQErrorSymmetric(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if math.IsInf(a, 0) || math.IsInf(b, 0) || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		q1, q2 := QError(a, b), QError(b, a)
		return q1 >= 1 && math.Abs(q1-q2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMetrics(t *testing.T) {
	if m := MSE([]float64{1, 2}, []float64{1, 4}); m != 2 {
		t.Errorf("MSE = %v, want 2", m)
	}
	if m := MAE([]float64{1, 2}, []float64{2, 4}); m != 1.5 {
		t.Errorf("MAE = %v, want 1.5", m)
	}
	if a := Accuracy([]int{1, 0, 1}, []int{1, 1, 1}); math.Abs(a-2.0/3) > 1e-9 {
		t.Errorf("Accuracy = %v", a)
	}
	p, r := PrecisionRecall([]int{1, 1, 0, 0}, []int{1, 0, 1, 0}, 1)
	if p != 0.5 || r != 0.5 {
		t.Errorf("P/R = %v/%v, want 0.5/0.5", p, r)
	}
	if f := F1([]int{1, 1, 0, 0}, []int{1, 0, 1, 0}, 1); f != 0.5 {
		t.Errorf("F1 = %v, want 0.5", f)
	}
	if r2 := R2([]float64{1, 2, 3}, []float64{1, 2, 3}); r2 != 1 {
		t.Errorf("perfect R2 = %v, want 1", r2)
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 3, 2, 4}
	if p := Percentile(vals, 0.5); p != 3 {
		t.Errorf("median = %v, want 3", p)
	}
	if p := Percentile(vals, 0); p != 1 {
		t.Errorf("p0 = %v, want 1", p)
	}
	if p := Percentile(vals, 1); p != 5 {
		t.Errorf("p100 = %v, want 5", p)
	}
}

func TestSummarizeQErrors(t *testing.T) {
	s := SummarizeQErrors([]float64{1, 2, 3, 4, 100})
	if s.Max != 100 {
		t.Errorf("max = %v, want 100", s.Max)
	}
	if s.Median != 3 {
		t.Errorf("median = %v, want 3", s.Median)
	}
	if s.Mean != 22 {
		t.Errorf("mean = %v, want 22", s.Mean)
	}
}

func TestTrainTestSplit(t *testing.T) {
	rng := NewRNG(12)
	train, test := TrainTestSplit(rng, 100, 0.2)
	if len(test) != 20 || len(train) != 80 {
		t.Fatalf("split sizes = %d/%d, want 80/20", len(train), len(test))
	}
	seen := map[int]bool{}
	for _, i := range append(append([]int{}, train...), test...) {
		if seen[i] {
			t.Fatal("index appears twice in split")
		}
		seen[i] = true
	}
}

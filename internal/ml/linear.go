package ml

import (
	"errors"
	"math"
)

// LinearRegression is ordinary least squares with optional ridge damping.
// Fit learns weights (one per feature) plus an intercept.
type LinearRegression struct {
	Weights   []float64
	Intercept float64
	// Lambda is the ridge regularization strength used at Fit time.
	Lambda float64
}

// Fit estimates parameters from x (n x d) and targets y (length n) via the
// normal equations.
func (lr *LinearRegression) Fit(x *Matrix, y []float64) error {
	if x.Rows != len(y) {
		return errors.New("ml: LinearRegression.Fit row/target mismatch")
	}
	if x.Rows == 0 {
		return errors.New("ml: LinearRegression.Fit with no samples")
	}
	// Augment with a bias column.
	aug := NewMatrix(x.Rows, x.Cols+1)
	for i := 0; i < x.Rows; i++ {
		copy(aug.Row(i), x.Row(i))
		aug.Set(i, x.Cols, 1)
	}
	lambda := lr.Lambda
	if lambda == 0 {
		lambda = 1e-9 // numerical guard only
	}
	w, err := SolveLeastSquares(aug, y, lambda)
	if err != nil {
		return err
	}
	lr.Weights = w[:x.Cols]
	lr.Intercept = w[x.Cols]
	return nil
}

// Predict returns the fitted value for feature vector f.
func (lr *LinearRegression) Predict(f []float64) float64 {
	return Dot(lr.Weights, f) + lr.Intercept
}

// Sigmoid is the logistic function 1 / (1 + e^-z).
func Sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// LogisticRegression is binary logistic regression trained with full-batch
// gradient descent on the regularized cross-entropy loss.
type LogisticRegression struct {
	Weights   []float64
	Intercept float64

	// Hyperparameters; zero values select sensible defaults at Fit time.
	LearningRate float64 // default 0.1
	Epochs       int     // default 200
	L2           float64 // default 0
}

// Fit trains on x (n x d) with binary labels y in {0, 1}.
func (m *LogisticRegression) Fit(x *Matrix, y []float64) error {
	if x.Rows != len(y) {
		return errors.New("ml: LogisticRegression.Fit row/label mismatch")
	}
	if x.Rows == 0 {
		return errors.New("ml: LogisticRegression.Fit with no samples")
	}
	lrate := m.LearningRate
	if lrate == 0 {
		lrate = 0.1
	}
	epochs := m.Epochs
	if epochs == 0 {
		epochs = 200
	}
	m.Weights = make([]float64, x.Cols)
	m.Intercept = 0
	n := float64(x.Rows)
	gradW := make([]float64, x.Cols)
	for e := 0; e < epochs; e++ {
		for j := range gradW {
			gradW[j] = 0
		}
		gradB := 0.0
		for i := 0; i < x.Rows; i++ {
			row := x.Row(i)
			p := Sigmoid(Dot(m.Weights, row) + m.Intercept)
			d := p - y[i]
			for j, v := range row {
				gradW[j] += d * v
			}
			gradB += d
		}
		for j := range m.Weights {
			m.Weights[j] -= lrate * (gradW[j]/n + m.L2*m.Weights[j])
		}
		m.Intercept -= lrate * gradB / n
	}
	return nil
}

// PartialFit performs one gradient step on a single example, enabling
// online training (used by ActiveClean-style iterative cleaning).
func (m *LogisticRegression) PartialFit(f []float64, y float64) {
	if m.Weights == nil {
		m.Weights = make([]float64, len(f))
	}
	lrate := m.LearningRate
	if lrate == 0 {
		lrate = 0.1
	}
	p := Sigmoid(Dot(m.Weights, f) + m.Intercept)
	d := p - y
	for j, v := range f {
		m.Weights[j] -= lrate * (d*v + m.L2*m.Weights[j])
	}
	m.Intercept -= lrate * d
}

// PredictProba returns P(y=1 | f).
func (m *LogisticRegression) PredictProba(f []float64) float64 {
	return Sigmoid(Dot(m.Weights, f) + m.Intercept)
}

// Predict returns the hard 0/1 label at threshold 0.5.
func (m *LogisticRegression) Predict(f []float64) float64 {
	return label(Dot(m.Weights, f) + m.Intercept)
}

// FromSums replaces each weighted feature sum in out — Dot(Weights, f)
// of a row f, as DotColumns leaves them — with that row's Predict, or
// PredictProba when proba is set: the intercept added, then the label or
// the probability.
func (m *LogisticRegression) FromSums(out []float64, proba bool) {
	if proba {
		for i, s := range out {
			out[i] = Sigmoid(s + m.Intercept)
		}
		return
	}
	for i, s := range out {
		out[i] = label(s + m.Intercept)
	}
}

// labelBand is the width below zero inside which Sigmoid rounds to 0.5
// or above: exp(z) is within an ulp or two of 1 there. Below it the
// probability is under 0.5 by far more than rounding can reach.
const labelBand = 1e-9

// label is Sigmoid(z) >= 0.5 as 1 or 0, decided by z's sign without an
// exponential except inside the band where rounding decides: z >= 0 is
// 1 (1+exp(-z) <= 2), z < -labelBand or NaN is 0. Logits fall on either
// side of 0 unpredictably, so the sign picks the label's bits without a
// branch; the one branch tests for the band, which hardly any logit is
// in: as unsigned integers, the bits of a z in [-labelBand, 0) are those
// just above -0's, up to -labelBand's. It is small enough to inline.
func label(z float64) float64 {
	if math.Float64bits(z)-(negZero+1) < bandBits-negZero {
		return bandLabel(z)
	}
	var bits uint64
	if z >= 0 {
		bits = oneBits
	}
	return math.Float64frombits(bits)
}

// bandLabel is label inside the band, where Sigmoid decides. It stays a
// call, so label inlines.
//
//go:noinline
func bandLabel(z float64) float64 {
	if Sigmoid(z) >= 0.5 {
		return 1
	}
	return 0
}

// The bits of -0, -labelBand and 1.
const (
	negZero  = 1 << 63
	bandBits = 0xbe112e0be826d695
	oneBits  = 0x3ff0000000000000
)

// Loss returns the mean cross-entropy of the model on (x, y).
func (m *LogisticRegression) Loss(x *Matrix, y []float64) float64 {
	if x.Rows == 0 {
		return 0
	}
	s := 0.0
	for i := 0; i < x.Rows; i++ {
		p := m.PredictProba(x.Row(i))
		p = math.Min(math.Max(p, 1e-12), 1-1e-12)
		if y[i] > 0.5 {
			s += -math.Log(p)
		} else {
			s += -math.Log(1 - p)
		}
	}
	return s / float64(x.Rows)
}

package ml

import (
	"errors"
	"math"
	"math/bits"
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

// SumTest decides a row by its weighted feature sum s, as a comparison
// of finish(s) with a constant does: a finite s passes when it lies in
// [Lo, Hi] — or outside it, when Out is set — and a NaN or infinite s by
// the verdict kept for it. NewSumTest builds one.
type SumTest struct {
	Lo, Hi              float64
	Out                 bool
	NaN, NegInf, PosInf bool
}

// Holds reports whether a row whose sum is s passes.
func (t *SumTest) Holds(s float64) bool {
	if s-s != 0 { // NaN or an infinity
		switch {
		case s != s:
			return t.NaN
		case s > 0:
			return t.PosInf
		}
		return t.NegInf
	}
	return (t.Lo <= s && s <= t.Hi) != t.Out
}

// NewSumTest is the test a row's sum s passes when comparing finish(s)
// with k gives an outcome in accept — 1 below, 2 equal, 4 above, so
// `<=` is 3 — where a NaN on either side compares equal. finish must be
// monotone non-decreasing over the finite floats and give -0 and +0 the
// same outcome, as a rounded addition followed by a step or by nothing
// does: the sums of each outcome are then one interval of the finite
// floats in order, and two bisections (threshold) find their edges.
func NewSumTest(finish func(s float64) float64, accept uint8, k float64) SumTest {
	outcome := func(s float64) int {
		switch x := finish(s); {
		case x < k:
			return -1
		case x > k:
			return 1
		}
		return 0
	}
	holds := func(s float64) bool { return accept>>(outcome(s)+1)&1 != 0 }
	// Below, equal and above are the keys [minKey, eq), [eq, above) and
	// [above, maxKey]; a bound one past either end is an infinity's key.
	eq := threshold(func(s float64) bool { return outcome(s) >= 0 })
	above := threshold(func(s float64) bool { return outcome(s) > 0 })
	t := SumTest{NaN: holds(math.NaN()), NegInf: holds(math.Inf(-1)), PosInf: holds(math.Inf(1))}
	lo, hi := [3]int64{minKey, eq, above}, [3]int64{eq - 1, above - 1, maxKey}
	switch accept {
	case 0:
		t.Lo, t.Hi = math.Inf(1), math.Inf(-1)
	case 5: // below or above: outside the equal keys
		t.Lo, t.Hi, t.Out = fromKey(eq), fromKey(above-1), true
	default:
		t.Lo, t.Hi = fromKey(lo[bits.TrailingZeros8(accept)]), fromKey(hi[7-bits.LeadingZeros8(accept)])
	}
	return t
}

// threshold is the order key of the least finite float64 at which up
// holds, for an up that is false and then true over the finite floats
// in order; +Inf's key when it holds at none. It bisects the keys, at
// most 64 steps; the distance between two keys can pass MaxInt64, so it
// is taken unsigned.
func threshold(up func(s float64) bool) int64 {
	lo, hi := minKey, maxKey+1 // up is false below lo and true from hi on
	for lo < hi {
		mid := lo + int64((uint64(hi)-uint64(lo))/2)
		if up(fromKey(mid)) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// orderKey maps a float64 to an int64 that orders as the floats do: -0
// just below +0, the infinities just past the greatest finite
// magnitudes, and NaNs past them. fromKey is its inverse.
func orderKey(f float64) int64 {
	b := int64(math.Float64bits(f))
	return b ^ (b>>63)&math.MaxInt64
}

func fromKey(k int64) float64 {
	return math.Float64frombits(uint64(k ^ (k>>63)&math.MaxInt64))
}

// The keys of the least and greatest finite float64s.
var minKey, maxKey = orderKey(-math.MaxFloat64), orderKey(math.MaxFloat64)

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

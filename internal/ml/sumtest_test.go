package ml

import (
	"math"
	"testing"
)

// TestThresholdFindsTheFirstFloat: for up = s >= t, threshold finds t
// itself for every finite t — ±0, subnormals, the extremes — and +Inf
// when up holds at no finite float; keys order the floats.
func TestThresholdFindsTheFirstFloat(t *testing.T) {
	for _, want := range []float64{0, -0x1p-1074, 0x1p-1074, 1, -1, -1e-9, 0x1p-54, -math.MaxFloat64, math.MaxFloat64, 1e300, -3.5} {
		if got := thresholdFloat(func(s float64) bool { return s >= want }); got != want {
			t.Errorf("thresholdFloat(s >= %g) = %g", want, got)
		}
	}
	if got := thresholdFloat(func(float64) bool { return false }); !math.IsInf(got, 1) {
		t.Errorf("thresholdFloat(never) = %g, want +Inf", got)
	}
	if got := thresholdFloat(func(float64) bool { return true }); got != -math.MaxFloat64 {
		t.Errorf("thresholdFloat(always) = %g, want -MaxFloat64", got)
	}
	order := []float64{math.Inf(-1), -math.MaxFloat64, -1, -0x1p-1074, math.Copysign(0, -1), 0, 0x1p-1074, 1, math.MaxFloat64, math.Inf(1)}
	for i := 1; i < len(order); i++ {
		if a, b := orderKey(order[i-1]), orderKey(order[i]); a+1 > b || fromKey(b) != order[i] {
			t.Errorf("keys of %g and %g: %d, %d", order[i-1], order[i], a, b)
		}
	}
	if orderKey(-math.MaxFloat64)-1 != orderKey(math.Inf(-1)) || orderKey(math.MaxFloat64)+1 != orderKey(math.Inf(1)) {
		t.Error("the infinities' keys are not one past the finite ends")
	}
}

func thresholdFloat(up func(float64) bool) float64 { return fromKey(threshold(up)) }

// TestSumTestMatchesFinish holds NewSumTest to its definition for a
// logistic label and a linear model's sum, over intercepts finite, tiny,
// huge and not finite, every operator, and constants on and off the
// values finish takes: at each edge of the interval and one float past
// it, at the labels' band, at non-finite sums and at seeded sums,
// Holds(s) must be the comparison of finish(s) with k.
func TestSumTestMatchesFinish(t *testing.T) {
	nan := math.NaN()
	finishes := map[string]func(b float64) func(float64) float64{
		"logistic": func(b float64) func(float64) float64 {
			m := &LogisticRegression{Intercept: b}
			return func(s float64) float64 {
				out := [1]float64{s}
				m.FromSums(out[:], false)
				return out[0]
			}
		},
		"linear": func(b float64) func(float64) float64 {
			return func(s float64) float64 {
				if z := s + b; z == z {
					return z
				}
				return nan
			}
		},
	}
	intercepts := []float64{0, 0.3, -0.7, 1e-9, -0x1p-54, 5e-324, 1e300, -1e300, math.MaxFloat64, math.Inf(1), math.Inf(-1), nan, math.Copysign(0, -1)}
	rng := NewRNG(11)
	edges := 0
	for name, mk := range finishes {
		for _, b := range intercepts {
			finish := mk(b)
			ks := []float64{0, 1, 0.5, math.Copysign(0, -1), -2.5, 7, 1e308, math.Inf(1), nan, finish(-b), finish(3), finish(-1e-10 - b)}
			for _, k := range ks {
				for accept := uint8(0); accept < 8; accept++ {
					st := NewSumTest(finish, accept, k)
					want := func(s float64) bool {
						x, o := finish(s), 0
						if x < k {
							o = -1
						} else if x > k {
							o = 1
						}
						return accept>>(o+1)&1 != 0
					}
					probe := []float64{nan, math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -b, -math.MaxFloat64, math.MaxFloat64, 5e-324, -5e-324}
					for _, e := range []float64{st.Lo, st.Hi} {
						if !math.IsInf(e, 0) {
							edges++
							probe = append(probe, e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1)))
						}
					}
					for i := 0; i < 200; i++ {
						switch i % 4 {
						case 0:
							probe = append(probe, -b-rng.Float64()*2e-9) // the label's band past the intercept
						case 1:
							probe = append(probe, math.Float64frombits(rng.Uint64()))
						case 2:
							probe = append(probe, -b+rng.NormFloat64())
						default:
							probe = append(probe, rng.NormFloat64()*100)
						}
					}
					for _, s := range probe {
						if st.Holds(s) != want(s) {
							t.Fatalf("%s intercept %g, accept %d, k %g: s %g (%#x): test %v, finish(s) = %g says %v; test %+v",
								name, b, accept, k, s, math.Float64bits(s), st.Holds(s), finish(s), want(s), st)
						}
					}
				}
			}
		}
	}
	if edges < 500 {
		t.Errorf("weak coverage: %d finite interval edges probed", edges)
	}
}

// TestLabelThresholdIsSharp pins where the logistic label turns from 0
// to 1 for a zero intercept: the first z whose Sigmoid rounds to 0.5,
// -2^-54, and the float below it, which rounds to less.
func TestLabelThresholdIsSharp(t *testing.T) {
	z := thresholdFloat(func(s float64) bool { return label(s) == 1 })
	below := math.Nextafter(z, math.Inf(-1))
	if z != -0x1p-54 || label(z) != 1 || label(below) != 0 || Sigmoid(z) < 0.5 || Sigmoid(below) >= 0.5 {
		t.Fatalf("threshold %g (label %v), below it %g (label %v)", z, label(z), below, label(below))
	}
}

// TestSelectSumMatchesDot: SelectSum keeps exactly the rows whose
// per-row sum — Dot's operations in Dot's order, each INT cell converted
// by float64 — passes the test, over INT and FLOAT features, with and
// without a scaler, under the identity and sparse selections, with NaN,
// infinite, signed-zero and subnormal cells.
func TestSelectSumMatchesDot(t *testing.T) {
	rng := NewRNG(5)
	const rows = 700
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324, -0x1p-1060}
	for trial := 0; trial < 60; trial++ {
		n := 1 + trial%4
		w, means, stds := make([]float64, n), make([]float64, n), make([]float64, n)
		floats, ints := make([][]float64, n), make([][]int64, n)
		for j := 0; j < n; j++ {
			w[j], means[j], stds[j] = rng.NormFloat64(), rng.NormFloat64(), 0.5+rng.Float64()
			if rng.Intn(2) == 0 {
				ints[j] = make([]int64, rows)
				for i := range ints[j] {
					ints[j][i] = int64(rng.Uint64()) >> uint(rng.Intn(64))
				}
				continue
			}
			floats[j] = make([]float64, rows)
			for i := range floats[j] {
				floats[j][i] = rng.NormFloat64() * 3
				if rng.Intn(20) == 0 {
					floats[j][i] = odd[rng.Intn(len(odd))]
				}
			}
		}
		if trial%2 == 0 {
			means, stds = nil, nil
		}
		m := &LogisticRegression{Weights: w, Intercept: rng.NormFloat64()}
		finish := func(s float64) float64 {
			out := [1]float64{s}
			m.FromSums(out[:], false)
			return out[0]
		}
		st := NewSumTest(finish, uint8(1+trial%7), 0.5)
		var sel []int32
		for i := 0; i < rows; i++ {
			if trial%3 == 0 || rng.Intn(3) == 0 {
				sel = append(sel, int32(i))
			}
		}
		var want []int32
		f := make([]float64, n)
		for _, r := range sel {
			for j := range f {
				if ints[j] != nil {
					f[j] = float64(ints[j][r])
				} else {
					f[j] = floats[j][r]
				}
				if means != nil {
					f[j] = (f[j] - means[j]) / stds[j]
				}
			}
			if st.Holds(Dot(w, f)) {
				want = append(want, r)
			}
		}
		got := SelectSum(&st, w, floats, ints, means, stds, append([]int32(nil), sel...), make([]float64, len(sel)))
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d rows selected, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: row %d selected at %d, want %d", trial, got[i], i, want[i])
			}
		}
	}
}

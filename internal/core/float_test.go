package core

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// floatCases are floats appendFloat must write as strconv does: the
// edges of its fast range and their neighbours, values strconv writes
// with an exponent, and non-finite values.
var floatCases = []float64{
	0, math.Copysign(0, -1), 1e-4, 1e6, 999999.9999999999, 0.1, 0.2, 0.3, 1.0 / 3, 2.0 / 3,
	123456.789, 5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1),
	math.NaN(), 4503599627370496, 0.30000000000000004, 99999.5, 9.5367431640625e-07, 1 << 52,
}

func checkFloat(t *testing.T, x float64) {
	t.Helper()
	if got, want := appendFloat(nil, x), strconv.AppendFloat(nil, x, 'g', -1, 64); string(got) != string(want) {
		t.Fatalf("appendFloat(%v) (bits %#x) = %s, want %s", x, math.Float64bits(x), got, want)
	}
}

// TestAppendFloatMatchesStrconv holds appendFloat to strconv on short
// decimals and the floats next to them — where a product rounded the
// wrong way would pick a longer or a farther decimal — on the edges of
// its range, and on random bit patterns and random floats in its range.
func TestAppendFloatMatchesStrconv(t *testing.T) {
	for _, x := range floatCases {
		for _, y := range []float64{x, -x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1))} {
			checkFloat(t, y)
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200_000; i++ {
		// m/10^k with up to 17 digits, scaled into the fast range.
		m := r.Int63n(int64(math.Pow10(1 + r.Intn(17))))
		x := float64(m) / math.Pow10(r.Intn(20))
		for _, y := range []float64{x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, 0)} {
			checkFloat(t, y)
		}
		checkFloat(t, math.Float64frombits(r.Uint64()))
		checkFloat(t, math.Ldexp(r.Float64(), r.Intn(40)-20))
	}
}

// FuzzAppendFloat holds appendFloat to strconv on any bit pattern.
func FuzzAppendFloat(f *testing.F) {
	for _, x := range floatCases {
		f.Add(math.Float64bits(x))
	}
	f.Add(math.Float64bits(73.456))
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkFloat(t, math.Float64frombits(bits))
	})
}

func BenchmarkAppendFloat(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	xs := make([]float64, 1206)
	for i := range xs {
		xs[i] = float64(r.Intn(100000)) / 1000 // rows_age's scores
	}
	var buf []byte
	b.Run("appendFloat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = buf[:0]
			for _, x := range xs {
				buf = appendFloat(buf, x)
			}
		}
	})
	b.Run("strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = buf[:0]
			for _, x := range xs {
				buf = strconv.AppendFloat(buf, x, 'g', -1, 64)
			}
		}
	})
}

package ml

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zero-filled rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("ml: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// MatrixFromRows builds a matrix from row slices, which must be equal length.
func MatrixFromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("ml: ragged rows in MatrixFromRows")
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// RowSlice returns a view of rows [i, j) as a matrix sharing m's
// storage — the zero-copy way to hand a contiguous row chunk to a
// batched kernel.
func (m *Matrix) RowSlice(i, j int) *Matrix {
	if i < 0 || j < i || j > m.Rows {
		panic(fmt.Sprintf("ml: RowSlice [%d, %d) out of range for %d rows", i, j, m.Rows))
	}
	return &Matrix{Rows: j - i, Cols: m.Cols, Data: m.Data[i*m.Cols : j*m.Cols]}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Add returns a+b element-wise.
func Add(a, b *Matrix) *Matrix {
	checkSameShape(a, b, "Add")
	out := NewMatrix(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// Sub returns a-b element-wise.
func Sub(a, b *Matrix) *Matrix {
	checkSameShape(a, b, "Sub")
	out := NewMatrix(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// Scale returns s*a.
func Scale(a *Matrix, s float64) *Matrix {
	out := NewMatrix(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] * s
	}
	return out
}

// Apply returns f applied element-wise to a.
func Apply(a *Matrix, f func(float64) float64) *Matrix {
	out := NewMatrix(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = f(a.Data[i])
	}
	return out
}

// Hadamard returns the element-wise product a.*b.
func Hadamard(a, b *Matrix) *Matrix {
	checkSameShape(a, b, "Hadamard")
	out := NewMatrix(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return out
}

func checkSameShape(a, b *Matrix, op string) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("ml: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%.4f", m.At(i, j))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// SolveLeastSquares solves min ||A x - y||^2 via the normal equations with
// ridge damping lambda (lambda = 0 gives plain least squares, but a tiny
// lambda guards against singular A^T A). A is n x d, y is length n; the
// result has length d.
func SolveLeastSquares(a *Matrix, y []float64, lambda float64) ([]float64, error) {
	if a.Rows != len(y) {
		return nil, fmt.Errorf("ml: SolveLeastSquares rows %d != len(y) %d", a.Rows, len(y))
	}
	at := a.T()
	ata := MatMul(at, a)
	for i := 0; i < ata.Rows; i++ {
		ata.Set(i, i, ata.At(i, i)+lambda)
	}
	aty := make([]float64, a.Cols)
	for i := 0; i < a.Cols; i++ {
		s := 0.0
		for k := 0; k < a.Rows; k++ {
			s += a.At(k, i) * y[k]
		}
		aty[i] = s
	}
	return SolveLinear(ata, aty)
}

// SolveLinear solves the square system m x = b using Gaussian elimination
// with partial pivoting. It returns an error if m is singular.
func SolveLinear(m *Matrix, b []float64) ([]float64, error) {
	if m.Rows != m.Cols || m.Rows != len(b) {
		return nil, fmt.Errorf("ml: SolveLinear needs square system, got %dx%d with len(b)=%d", m.Rows, m.Cols, len(b))
	}
	n := m.Rows
	a := m.Clone()
	x := make([]float64, n)
	rhs := make([]float64, n)
	copy(rhs, b)
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-12 {
			return nil, fmt.Errorf("ml: SolveLinear singular matrix at column %d", col)
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				v1, v2 := a.At(col, j), a.At(pivot, j)
				a.Set(col, j, v2)
				a.Set(pivot, j, v1)
			}
			rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
		}
		pv := a.At(col, col)
		for r := col + 1; r < n; r++ {
			f := a.At(r, col) / pv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				a.Set(r, j, a.At(r, j)-f*a.At(col, j))
			}
			rhs[r] -= f * rhs[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := rhs[i]
		for j := i + 1; j < n; j++ {
			s -= a.At(i, j) * x[j]
		}
		x[i] = s / a.At(i, i)
	}
	return x, nil
}

// Dot returns the inner product of equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("ml: Dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// DotColumns sets out[i] to the inner product of w with row i of the
// columns cols — (cols[0][i], cols[1][i], ...), each cell x of column j
// first scaled to (x - means[j]) / stds[j] when means is non-nil — a
// column at a time, with Dot's operations in Dot's order: from 0, adding
// w[0]·x0, then w[1]·x1, and so on. Each column holds at least len(out)
// cells.
func DotColumns(out, w []float64, cols [][]float64, means, stds []float64) {
	if len(w) != len(cols) {
		panic("ml: DotColumns length mismatch")
	}
	clear(out)
	for j, col := range cols {
		col, wj := col[:len(out)], w[j]
		if means == nil {
			for i, x := range col {
				out[i] += wj * x
			}
			continue
		}
		mean, std := means[j], stds[j]
		for i, x := range col {
			out[i] += wj * ((x - mean) / std)
		}
	}
}

// SelectSum narrows sel, in place, to the rows whose weighted feature
// sum passes t, and returns it. A row r's sum is DotColumns' — from 0,
// adding w[j]·x for each feature j in order, x scaled to (x - means[j])
// / stds[j] when means is non-nil — where x is floats[j][r], or
// float64(ints[j][r]) when ints[j] is set: the features are read where
// they lie, at the rows of sel only. The sums build up a feature at a
// time in acc, which holds len(sel) cells; the last feature's pass
// decides each row as it finishes its sum.
func SelectSum(t *SumTest, w []float64, floats [][]float64, ints [][]int64, means, stds []float64, sel []int32, acc []float64) []int32 {
	if len(w) == 0 || len(w) != len(floats) || len(w) != len(ints) {
		panic("ml: SelectSum length mismatch")
	}
	acc = acc[:len(sel)]
	clear(acc)
	last := len(w) - 1
	scale := func(j int) (float64, float64, bool) {
		if means == nil {
			return 0, 1, false
		}
		return means[j], stds[j], true
	}
	for j := range last {
		mean, std, scaled := scale(j)
		if ints[j] != nil {
			addFeature(acc, ints[j], sel, w[j], mean, std, scaled)
		} else {
			addFeature(acc, floats[j], sel, w[j], mean, std, scaled)
		}
	}
	mean, std, scaled := scale(last)
	if ints[last] != nil {
		return selectFeature(t, acc, ints[last], sel, w[last], mean, std, scaled)
	}
	return selectFeature(t, acc, floats[last], sel, w[last], mean, std, scaled)
}

// addFeature adds w·x, x each selected row's cell (scaled), to its sum.
func addFeature[T int64 | float64](acc []float64, col []T, sel []int32, w, mean, std float64, scaled bool) {
	if !scaled {
		for i, r := range sel {
			acc[i] += w * float64(col[r])
		}
		return
	}
	for i, r := range sel {
		acc[i] += w * ((float64(col[r]) - mean) / std)
	}
}

// selectFeature adds the last feature as addFeature does and keeps the
// rows whose sum passes t. Like exec's comparison loops it writes every
// row and advances by the outcome, so a sum's side of the interval is
// not a branch; only a NaN or infinite sum, which t decides apart,
// takes one.
func selectFeature[T int64 | float64](t *SumTest, acc []float64, col []T, sel []int32, w, mean, std float64, scaled bool) []int32 {
	lo, hi, out := t.Lo, t.Hi, b2i(t.Out)
	j := 0
	for i, r := range sel {
		x := float64(col[r])
		if scaled {
			x = (x - mean) / std
		}
		s := acc[i] + w*x
		sel[j] = r
		pass := b2i(lo <= s)&b2i(s <= hi) ^ out
		if s-s != 0 {
			pass = b2i(t.Holds(s))
		}
		j += pass
	}
	return sel[:j]
}

// b2i is 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	return math.Sqrt(Dot(v, v))
}

// Standardize rescales each column of x to zero mean and unit variance,
// returning the means and standard deviations used (stds of constant
// columns are reported as 1 so the transform is a no-op there).
func Standardize(x *Matrix) (means, stds []float64) {
	means = make([]float64, x.Cols)
	stds = make([]float64, x.Cols)
	if x.Rows == 0 {
		for j := range stds {
			stds[j] = 1
		}
		return means, stds
	}
	for j := 0; j < x.Cols; j++ {
		s := 0.0
		for i := 0; i < x.Rows; i++ {
			s += x.At(i, j)
		}
		means[j] = s / float64(x.Rows)
		v := 0.0
		for i := 0; i < x.Rows; i++ {
			d := x.At(i, j) - means[j]
			v += d * d
		}
		stds[j] = math.Sqrt(v / float64(x.Rows))
		if stds[j] < 1e-12 {
			stds[j] = 1
		}
		for i := 0; i < x.Rows; i++ {
			x.Set(i, j, (x.At(i, j)-means[j])/stds[j])
		}
	}
	return means, stds
}

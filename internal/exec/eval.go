// Package exec executes logical plans from internal/plan against catalog
// tables with a streaming, morsel-driven parallel executor: plans
// compile into pull-based BatchOperator pipelines through which pooled
// chunks — typed column vectors ([]int64, []float64, []string) under a
// selection vector — flow scan → filter → project → limit without
// materializing intermediate results. Scans decode pages straight into
// vectors, split page/key ranges into fixed-size morsels pulled by a
// worker set drawn from idle cores; filters narrow the selection
// with typed loops and projections reference or compute vectors, fused
// into the scan workers; hash joins key on typed values and stream the
// probe side; aggregation folds typed columns into one partial state as
// chunks arrive. Values are boxed into rows once, for the result.
// Chunks hand off through small bounded channels drained in morsel
// order, so parallel results are row-for-row identical to serial ones
// (Executor.Parallelism = 1 pins the serial baseline). The evaluator has
// a pluggable scalar-function registry (which is how AISQL's PREDICT()
// reaches trained models without an import cycle), where a function may
// also have a chunk form that runs once per chunk over float64 vectors;
// registered functions must be safe for concurrent use under
// parallelism.
package exec

import (
	"fmt"
	"strings"

	"aidb/internal/catalog"
	"aidb/internal/plan"
	"aidb/internal/sql"
)

// ScalarFunc is a user-registered scalar function (e.g. PREDICT). args
// are valid only during the call: the executor reuses the slice for the
// next row.
type ScalarFunc func(args []catalog.Value) (catalog.Value, error)

// FuncRegistry resolves scalar function names to implementations.
type FuncRegistry map[string]ScalarFunc

// VectorFunc is the chunk form of the ScalarFunc registered under the
// same name, for a function whose results are float64. A call binds to
// it when its first argument is a constant (a literal or a parameter),
// which arrives once as first, and every other argument is a number;
// any other call runs the ScalarFunc row by row. Both forms must give
// each row the ScalarFunc's result, and fail when the ScalarFunc fails
// on some row — the selection is then run again through the
// ScalarFunc, whose first error is the call's. They may use their
// arguments only during the call.
type VectorFunc struct {
	// Eval evaluates the function for every row of a selection in one
	// call, writing row i's result into out[i]: args[j][i] is row i's
	// argument j+1 as a float64.
	Eval func(first catalog.Value, args [][]float64, out []float64) error
	// Select, when set, is the selecting form of `call op k` for a
	// number k, looked up once per chunk: the Selector that narrows a
	// selection to the rows where comparing the call's result with k
	// gives an outcome in accept (1 below, 2 equal, 4 above, as
	// catalog.ZoneCond.Accept), or nil when the call has none — it then
	// runs through Eval and is compared after. args is the call's
	// argument count past first.
	Select func(first catalog.Value, args int, accept uint8, k float64) (Selector, error)
}

// Selector narrows sel, in place, to the rows of a selecting call that
// pass, and returns it. Argument j of row r is floats[j][r], or
// float64(ints[j][r]) when ints[j] is set: columns of the chunk, indexed
// by row. scratch holds len(sel) cells the Selector may write.
type Selector interface {
	Select(floats [][]float64, ints [][]int64, sel []int32, scratch []float64) []int32
}

// Scope maps qualified column names to chunk columns for binding.
// Params, when set, carries the positional bindings for $N parameter
// placeholders (1-based; Params[0] binds $1): a $N binds to its slot and
// its value's kind, and reads the value of the run it is evaluated in.
type Scope struct {
	names []string
	// kinds is each column's vector kind; nil means every column is
	// boxed (a row handed to Eval).
	kinds  []kind
	Params []catalog.Value
	// vectors are the chunk forms of the executor's functions.
	vectors map[string]VectorFunc
}

// NewScope builds a scope from a plan schema.
func NewScope(names []string) *Scope { return &Scope{names: names} }

// NewScopeParams builds a scope from a plan schema with positional
// parameter bindings, for evaluation outside an executor (DML paths).
func NewScopeParams(names []string, params []catalog.Value) *Scope {
	return &Scope{names: names, Params: params}
}

// Resolve finds the position of a column reference; it accepts exact
// qualified matches and unambiguous suffix matches (plan.ResolveColumn,
// the resolver the planner's column pass uses too).
func (s *Scope) Resolve(ref *sql.ColumnRef) (int, error) {
	idx, matches := plan.ResolveColumn(s.names, ref.Table, ref.Column)
	if matches == 1 {
		return idx, nil
	}
	want := ref.Column
	if ref.Table != "" {
		want = ref.Table + "." + ref.Column
	}
	if matches > 1 {
		return 0, fmt.Errorf("exec: ambiguous column %q", want)
	}
	return 0, fmt.Errorf("exec: unknown column %q (schema: %v)", want, s.names)
}

// column binds a column reference. A column the chunks will carry no
// vector for — one the planner did not mark as read — fails here, before
// anything runs.
func (s *Scope) column(ref *sql.ColumnRef) (bound, error) {
	idx, err := s.Resolve(ref)
	if err != nil {
		return bound{}, err
	}
	k := kAny
	if s.kinds != nil {
		k = s.kinds[idx]
	}
	if k == kNone {
		return bound{}, fmt.Errorf("exec: column %q is read but the scan did not decode it (planner bug)", s.names[idx])
	}
	return bound{k: k, col: idx}, nil
}

// Eval binds e in scope and evaluates it against row. It is for callers
// with one expression and at most one row (INSERT values, EXECUTE
// arguments); operators bind once and evaluate per chunk. A nil scope
// has no columns and no parameters. A literal, a VALUES list's usual
// cell, is its value: there is nothing to bind.
func Eval(e sql.Expr, scope *Scope, row catalog.Row, funcs FuncRegistry) (catalog.Value, error) {
	switch v := e.(type) {
	case *sql.IntLit:
		return v.Value, nil
	case *sql.FloatLit:
		return v.Value, nil
	case *sql.StringLit:
		return v.Value, nil
	}
	if scope == nil {
		scope = &Scope{}
	}
	b, err := bind(e, scope, funcs)
	if err != nil {
		return nil, err
	}
	if b.isConst() {
		return b.konstIn(scope.Params), nil // a literal or a parameter: no row to read
	}
	return b.value(rowChunk(row, scope.Params), 0)
}

// EvalBool is Eval for a condition.
func EvalBool(e sql.Expr, scope *Scope, row catalog.Row, funcs FuncRegistry) (bool, error) {
	if scope == nil {
		scope = &Scope{}
	}
	p, err := bindBool(e, scope, funcs)
	if err != nil {
		return false, err
	}
	return p.test(rowChunk(row, scope.Params), 0)
}

// rowChunk is a one-row chunk of boxed columns holding row, evaluated
// under params.
func rowChunk(row catalog.Row, params []catalog.Value) *Chunk {
	c := &Chunk{n: 1, sel: []int32{0}, params: params}
	for _, v := range row {
		c.cols = append(c.cols, &vec{k: kAny, V: []catalog.Value{v}})
	}
	return c
}

// compare returns -1, 0 or 1 ordering a and b, promoting ints to floats.
func compare(a, b catalog.Value) (int, error) {
	switch av := a.(type) {
	case int64:
		switch bv := b.(type) {
		case int64:
			return cmpOrd(av, bv), nil
		case float64:
			return cmpOrd(float64(av), bv), nil
		}
	case float64:
		switch bv := b.(type) {
		case int64:
			return cmpOrd(av, float64(bv)), nil
		case float64:
			return cmpOrd(av, bv), nil
		}
	case string:
		if bv, ok := b.(string); ok {
			return strings.Compare(av, bv), nil
		}
	}
	return 0, fmt.Errorf("exec: cannot compare %T with %T", a, b)
}

// cmpOrd orders two numbers; a NaN is neither below nor above anything,
// so it compares equal.
func cmpOrd[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// arith applies op to two boxed values: int64 arithmetic for two
// integers, float64 for any other two numbers.
func arith(op string, a, b catalog.Value) (catalog.Value, error) {
	ai, aok := a.(int64)
	bi, bok := b.(int64)
	if aok && bok {
		x, err := intArith(op, ai, bi)
		if err != nil {
			return nil, err
		}
		return x, nil
	}
	af, err := toFloat(a)
	if err != nil {
		return nil, err
	}
	bf, err := toFloat(b)
	if err != nil {
		return nil, err
	}
	x, err := floatArith(op, af, bf)
	if err != nil {
		return nil, err
	}
	return x, nil
}

func intArith(op string, a, b int64) (int64, error) {
	switch op {
	case "+":
		return a + b, nil
	case "-":
		return a - b, nil
	case "*":
		return a * b, nil
	case "/":
		if b == 0 {
			return 0, fmt.Errorf("exec: division by zero")
		}
		return a / b, nil
	}
	return 0, fmt.Errorf("exec: unsupported arithmetic operator %q", op)
}

func floatArith(op string, a, b float64) (float64, error) {
	switch op {
	case "+":
		return a + b, nil
	case "-":
		return a - b, nil
	case "*":
		return a * b, nil
	case "/":
		if b == 0 {
			return 0, fmt.Errorf("exec: division by zero")
		}
		return a / b, nil
	}
	return 0, fmt.Errorf("exec: unsupported arithmetic operator %q", op)
}

func toFloat(v catalog.Value) (float64, error) {
	switch x := v.(type) {
	case int64:
		return float64(x), nil
	case float64:
		return x, nil
	default:
		return 0, fmt.Errorf("exec: non-numeric value %T in arithmetic", v)
	}
}

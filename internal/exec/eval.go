// Package exec executes logical plans from internal/plan against catalog
// tables with a streaming, morsel-driven parallel executor: plans
// compile into pull-based BatchOperator pipelines through which pooled
// chunks — typed column vectors ([]int64, []float64, []string) under a
// selection vector — flow scan → filter → project → limit without
// materializing intermediate results. Scans decode pages straight into
// vectors, split page/key ranges into fixed-size morsels pulled by a
// runtime.NumCPU()-bounded worker set; filters narrow the selection
// with typed loops and projections reference or compute vectors, fused
// into the scan workers; hash joins key on typed values and stream the
// probe side; aggregation folds typed columns into one partial state as
// chunks arrive. Values are boxed into rows once, for the result.
// Chunks hand off through small bounded channels drained in morsel
// order, so parallel results are row-for-row identical to serial ones
// (Executor.Parallelism = 1 pins the serial baseline). The evaluator has
// a pluggable scalar-function registry (which is how AISQL's PREDICT()
// reaches trained models without an import cycle); registered functions
// must be safe for concurrent use under parallelism.
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

// Scope maps qualified column names to chunk columns for binding.
// Params, when set, carries the positional bindings for $N parameter
// placeholders (1-based; Params[0] binds $1), so one cached
// parameterized plan evaluates against per-execution values.
type Scope struct {
	names []string
	// kinds is each column's vector kind; nil means every column is
	// boxed (a row handed to Eval).
	kinds  []kind
	Params []catalog.Value
}

// NewScope builds a scope from a plan schema.
func NewScope(names []string) *Scope { return &Scope{names: names} }

// NewScopeParams builds a scope from a plan schema with positional
// parameter bindings, for evaluation outside an executor (DML paths).
func NewScopeParams(names []string, params []catalog.Value) *Scope {
	return &Scope{names: names, Params: params}
}

// newScope builds a scope over columns of the given kinds carrying this
// executor's parameter bindings, so $N placeholders in cached plans
// resolve against the current run.
func (ex *Executor) newScope(names []string, kinds []kind) *Scope {
	return &Scope{names: names, kinds: kinds, Params: ex.Params}
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
// has no columns and no parameters.
func Eval(e sql.Expr, scope *Scope, row catalog.Row, funcs FuncRegistry) (catalog.Value, error) {
	if scope == nil {
		scope = &Scope{}
	}
	b, err := bind(e, scope, funcs)
	if err != nil {
		return nil, err
	}
	if b.col < 0 && b.fi == nil && b.ff == nil && b.fv == nil {
		return b.kv, nil // a literal or a parameter: no row to read
	}
	return b.value(rowChunk(row), 0)
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
	return p.test(rowChunk(row), 0)
}

// rowChunk is a one-row chunk of boxed columns holding row.
func rowChunk(row catalog.Row) *Chunk {
	c := &Chunk{n: 1, sel: []int32{0}}
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

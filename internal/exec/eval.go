// Package exec executes logical plans from internal/plan against catalog
// tables with a streaming, morsel-driven parallel executor: plans
// compile into pull-based BatchOperator pipelines through which pooled
// row chunks (~MorselSize rows, arena-backed) flow scan → filter →
// project → limit without materializing intermediate results. Scans
// split page/key ranges into fixed-size morsels pulled by a
// runtime.NumCPU()-bounded worker set; filters and projections fuse
// into the scan workers as row-wise transforms; hash joins build
// hash(key)-partitioned tables from their (escaped) build side and
// stream the probe side; aggregation folds chunks into one partial
// state as they arrive. Chunks hand off through small bounded channels
// drained in morsel order, so parallel results are row-for-row
// identical to serial ones (Executor.Parallelism = 1 pins the serial
// baseline). The expression evaluator has a pluggable scalar-function
// registry (which is how AISQL's PREDICT() reaches trained models
// without an import cycle); registered functions must be safe for
// concurrent use under parallelism.
package exec

import (
	"fmt"
	"strings"

	"aidb/internal/catalog"
	"aidb/internal/plan"
	"aidb/internal/sql"
)

// ScalarFunc is a user-registered scalar function (e.g. PREDICT).
type ScalarFunc func(args []catalog.Value) (catalog.Value, error)

// FuncRegistry resolves scalar function names to implementations.
type FuncRegistry map[string]ScalarFunc

// Scope maps qualified column names to row positions for evaluation.
// Params, when set, carries the positional bindings for $N parameter
// placeholders (1-based; Params[0] binds $1), so one cached
// parameterized plan evaluates against per-execution values.
type Scope struct {
	names  []string
	Params []catalog.Value
}

// NewScope builds a scope from a plan schema.
func NewScope(names []string) *Scope { return &Scope{names: names} }

// NewScopeParams builds a scope from a plan schema with positional
// parameter bindings, for evaluation outside an executor (DML paths).
func NewScopeParams(names []string, params []catalog.Value) *Scope {
	return &Scope{names: names, Params: params}
}

// newScope builds a scope carrying this executor's parameter bindings,
// so $N placeholders in cached plans resolve against the current run.
func (ex *Executor) newScope(names []string) *Scope {
	return &Scope{names: names, Params: ex.Params}
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

// Eval binds e in scope and evaluates it against row. It is for callers
// with one expression and at most one row (INSERT values, EXECUTE
// arguments); operators bind once and evaluate per row. A nil scope has
// no columns and no parameters.
func Eval(e sql.Expr, scope *Scope, row catalog.Row, funcs FuncRegistry) (catalog.Value, error) {
	if scope == nil {
		scope = &Scope{}
	}
	b, err := bind(e, scope, funcs)
	if err != nil {
		return nil, err
	}
	return b.eval(row)
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
	return p(row)
}

func boolVal(b bool) catalog.Value {
	if b {
		return int64(1)
	}
	return int64(0)
}

// compare returns -1, 0 or 1 ordering a and b, promoting ints to floats.
func compare(a, b catalog.Value) (int, error) {
	switch av := a.(type) {
	case int64:
		switch bv := b.(type) {
		case int64:
			return cmpI(av, bv), nil
		case float64:
			return cmpF(float64(av), bv), nil
		}
	case float64:
		switch bv := b.(type) {
		case int64:
			return cmpF(av, float64(bv)), nil
		case float64:
			return cmpF(av, bv), nil
		}
	case string:
		if bv, ok := b.(string); ok {
			return strings.Compare(av, bv), nil
		}
	}
	return 0, notComparable(a, b)
}

// notComparable is the error for a pair compare has no ordering for. A
// slot a scan left undecoded is itself an error value and reports
// itself, so a wrong needed-column set reads as what it is.
func notComparable(a, b catalog.Value) error {
	for _, v := range [2]catalog.Value{a, b} {
		if err, ok := v.(error); ok {
			return err
		}
	}
	return fmt.Errorf("exec: cannot compare %T with %T", a, b)
}

func cmpI(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpF(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func arith(op string, a, b catalog.Value) (catalog.Value, error) {
	ai, aok := a.(int64)
	bi, bok := b.(int64)
	if aok && bok {
		switch op {
		case "+":
			return ai + bi, nil
		case "-":
			return ai - bi, nil
		case "*":
			return ai * bi, nil
		case "/":
			if bi == 0 {
				return nil, fmt.Errorf("exec: division by zero")
			}
			return ai / bi, nil
		}
	}
	af, err := toFloat(a)
	if err != nil {
		return nil, err
	}
	bf, err := toFloat(b)
	if err != nil {
		return nil, err
	}
	switch op {
	case "+":
		return af + bf, nil
	case "-":
		return af - bf, nil
	case "*":
		return af * bf, nil
	case "/":
		if bf == 0 {
			return nil, fmt.Errorf("exec: division by zero")
		}
		return af / bf, nil
	}
	return nil, fmt.Errorf("exec: unsupported arithmetic operator %q", op)
}

func toFloat(v catalog.Value) (float64, error) {
	switch x := v.(type) {
	case int64:
		return float64(x), nil
	case float64:
		return x, nil
	case error:
		return 0, x // an undecoded slot: see notComparable
	default:
		return 0, fmt.Errorf("exec: non-numeric value %T in arithmetic", v)
	}
}

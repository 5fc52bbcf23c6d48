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
// qualified matches and unambiguous suffix matches.
func (s *Scope) Resolve(ref *sql.ColumnRef) (int, error) {
	want := ref.Column
	if ref.Table != "" {
		want = ref.Table + "." + ref.Column
	}
	found := -1
	for i, n := range s.names {
		if n == want || strings.HasSuffix(n, "."+want) {
			if found >= 0 {
				return 0, fmt.Errorf("exec: ambiguous column %q", want)
			}
			found = i
		}
	}
	if found < 0 {
		return 0, fmt.Errorf("exec: unknown column %q (schema: %v)", want, s.names)
	}
	return found, nil
}

// Eval evaluates e against row in scope, using funcs for scalar calls.
func Eval(e sql.Expr, scope *Scope, row catalog.Row, funcs FuncRegistry) (catalog.Value, error) {
	switch v := e.(type) {
	case *sql.IntLit:
		return v.Value, nil
	case *sql.FloatLit:
		return v.Value, nil
	case *sql.StringLit:
		return v.Value, nil
	case *sql.ColumnRef:
		idx, err := scope.Resolve(v)
		if err != nil {
			return nil, err
		}
		return row[idx], nil
	case *sql.ParamRef:
		var bound []catalog.Value
		if scope != nil {
			bound = scope.Params
		}
		if v.Index < 1 || v.Index > len(bound) {
			return nil, fmt.Errorf("exec: parameter $%d is not bound (%d bound)", v.Index, len(bound))
		}
		return bound[v.Index-1], nil
	case *sql.NotExpr:
		b, err := EvalBool(v.Inner, scope, row, funcs)
		if err != nil {
			return nil, err
		}
		return boolVal(!b), nil
	case *sql.InExpr:
		sub, err := Eval(v.Subject, scope, row, funcs)
		if err != nil {
			return nil, err
		}
		found := false
		for _, item := range v.List {
			iv, err := Eval(item, scope, row, funcs)
			if err != nil {
				return nil, err
			}
			c, err := compare(sub, iv)
			if err != nil {
				return nil, err
			}
			if c == 0 {
				found = true
				break
			}
		}
		return boolVal(found != v.Negated), nil
	case *sql.BetweenExpr:
		sub, err := Eval(v.Subject, scope, row, funcs)
		if err != nil {
			return nil, err
		}
		lo, err := Eval(v.Lo, scope, row, funcs)
		if err != nil {
			return nil, err
		}
		hi, err := Eval(v.Hi, scope, row, funcs)
		if err != nil {
			return nil, err
		}
		geLo, err := compare(sub, lo)
		if err != nil {
			return nullIsFalse(err, sub, lo)
		}
		leHi, err := compare(sub, hi)
		if err != nil {
			return nullIsFalse(err, sub, hi)
		}
		return boolVal(geLo >= 0 && leHi <= 0), nil
	case *sql.BinaryExpr:
		switch v.Op {
		case "AND":
			lb, err := EvalBool(v.Left, scope, row, funcs)
			if err != nil {
				return nil, err
			}
			if !lb {
				return boolVal(false), nil
			}
			rb, err := EvalBool(v.Right, scope, row, funcs)
			if err != nil {
				return nil, err
			}
			return boolVal(rb), nil
		case "OR":
			lb, err := EvalBool(v.Left, scope, row, funcs)
			if err != nil {
				return nil, err
			}
			if lb {
				return boolVal(true), nil
			}
			rb, err := EvalBool(v.Right, scope, row, funcs)
			if err != nil {
				return nil, err
			}
			return boolVal(rb), nil
		}
		l, err := Eval(v.Left, scope, row, funcs)
		if err != nil {
			return nil, err
		}
		r, err := Eval(v.Right, scope, row, funcs)
		if err != nil {
			return nil, err
		}
		switch v.Op {
		case "=", "!=", "<", "<=", ">", ">=":
			c, err := compare(l, r)
			if err != nil {
				return nullIsFalse(err, l, r)
			}
			switch v.Op {
			case "=":
				return boolVal(c == 0), nil
			case "!=":
				return boolVal(c != 0), nil
			case "<":
				return boolVal(c < 0), nil
			case "<=":
				return boolVal(c <= 0), nil
			case ">":
				return boolVal(c > 0), nil
			default:
				return boolVal(c >= 0), nil
			}
		case "+", "-", "*", "/":
			return arith(v.Op, l, r)
		}
		return nil, fmt.Errorf("exec: unsupported operator %q", v.Op)
	case *sql.FuncCall:
		fn, ok := funcs[v.Name]
		if !ok {
			return nil, fmt.Errorf("exec: unknown function %q", v.Name)
		}
		args := make([]catalog.Value, len(v.Args))
		for i, a := range v.Args {
			av, err := Eval(a, scope, row, funcs)
			if err != nil {
				return nil, err
			}
			args[i] = av
		}
		return fn(args)
	case *sql.Star:
		return nil, fmt.Errorf("exec: '*' is only valid as a projection or COUNT argument")
	default:
		return nil, fmt.Errorf("exec: cannot evaluate %T", e)
	}
}

// EvalBool evaluates e and coerces to boolean (int64 0/1).
func EvalBool(e sql.Expr, scope *Scope, row catalog.Row, funcs FuncRegistry) (bool, error) {
	v, err := Eval(e, scope, row, funcs)
	if err != nil {
		return false, err
	}
	switch b := v.(type) {
	case int64:
		return b != 0, nil
	case float64:
		return b != 0, nil
	case string:
		return b != "", nil
	default:
		return false, fmt.Errorf("exec: non-boolean condition value %T", v)
	}
}

// nullIsFalse settles a failed comparison: when an operand is NULL (a
// nil parameter — tables hold none) the comparison is not true of any
// row, as in SQL; any other mismatch stays the error it was. Only the
// failure path pays for the check.
func nullIsFalse(err error, a, b catalog.Value) (catalog.Value, error) {
	if a == nil || b == nil {
		return boolVal(false), nil
	}
	return nil, err
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
	return 0, fmt.Errorf("exec: cannot compare %T with %T", a, b)
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
	default:
		return 0, fmt.Errorf("exec: non-numeric value %T in arithmetic", v)
	}
}

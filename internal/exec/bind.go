package exec

import (
	"fmt"

	"aidb/internal/catalog"
	"aidb/internal/plan"
	"aidb/internal/sql"
)

// Expressions are bound once per operator, when the plan is compiled:
// every column reference becomes a row position, every operator a
// closure, every $N the value the run binds to it. What depends only on
// the plan is decided here and never again in the row loop, and a name
// that does not resolve fails the statement before a page is read —
// whatever the table holds and wherever in the expression it stands.
// Bound expressions live for one run; they hold no mutable state, so
// morsel workers share them.

// bound is an expression ready to evaluate against rows of the schema
// it was bound to: a row position, a constant, or a closure over bound
// operands.
type bound struct {
	fn  func(catalog.Row) (catalog.Value, error)
	col int           // row position, when fn is nil and col >= 0
	k   catalog.Value // the constant otherwise
}

func constant(v catalog.Value) bound { return bound{col: -1, k: v} }

func (b bound) eval(row catalog.Row) (catalog.Value, error) {
	if b.fn != nil {
		return b.fn(row)
	}
	if b.col >= 0 {
		return row[b.col], nil
	}
	return b.k, nil
}

// pred is a bound condition.
type pred func(catalog.Row) (bool, error)

// isCondition reports whether e yields a truth value by construction;
// bindBool binds those directly, bind everything else.
func isCondition(e sql.Expr) bool {
	switch v := e.(type) {
	case *sql.NotExpr, *sql.InExpr, *sql.BetweenExpr:
		return true
	case *sql.BinaryExpr:
		return v.Op == "AND" || v.Op == "OR" || cmpTest(v.Op) != nil
	}
	return false
}

// bind resolves e against scope: names to positions, $N to scope's
// parameters, function names to funcs.
func bind(e sql.Expr, scope *Scope, funcs FuncRegistry) (bound, error) {
	if isCondition(e) {
		p, err := bindBool(e, scope, funcs)
		if err != nil {
			return bound{}, err
		}
		return bound{fn: func(row catalog.Row) (catalog.Value, error) {
			ok, err := p(row)
			if err != nil {
				return nil, err
			}
			return boolVal(ok), nil
		}}, nil
	}
	switch v := e.(type) {
	case *sql.IntLit:
		return constant(v.Value), nil
	case *sql.FloatLit:
		return constant(v.Value), nil
	case *sql.StringLit:
		return constant(v.Value), nil
	case *sql.ColumnRef:
		idx, err := scope.Resolve(v)
		return bound{col: idx}, err
	case *sql.ParamRef:
		if v.Index < 1 || v.Index > len(scope.Params) {
			return bound{}, fmt.Errorf("exec: parameter $%d is not bound (%d bound)", v.Index, len(scope.Params))
		}
		return constant(scope.Params[v.Index-1]), nil
	case *sql.BinaryExpr:
		switch v.Op {
		case "+", "-", "*", "/":
		default:
			return bound{}, fmt.Errorf("exec: unsupported operator %q", v.Op)
		}
		l, r, err := bindPair(v.Left, v.Right, scope, funcs)
		if err != nil {
			return bound{}, err
		}
		op := v.Op
		return bound{fn: func(row catalog.Row) (catalog.Value, error) {
			a, err := l.eval(row)
			if err != nil {
				return nil, err
			}
			b, err := r.eval(row)
			if err != nil {
				return nil, err
			}
			return arith(op, a, b)
		}}, nil
	case *sql.FuncCall:
		fn, ok := funcs[v.Name]
		if !ok {
			return bound{}, fmt.Errorf("exec: unknown function %q", v.Name)
		}
		args, err := bindList(v.Args, scope, funcs)
		if err != nil {
			return bound{}, err
		}
		return bound{fn: func(row catalog.Row) (catalog.Value, error) {
			// A fresh slice per call: fn may keep it, and workers share
			// this closure.
			vals := make([]catalog.Value, len(args))
			for i := range args {
				v, err := args[i].eval(row)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			return fn(vals)
		}}, nil
	case *sql.Star:
		return bound{}, fmt.Errorf("exec: '*' is only valid as a projection or COUNT argument")
	default:
		return bound{}, fmt.Errorf("exec: cannot evaluate %T", e)
	}
}

func bindPair(l, r sql.Expr, scope *Scope, funcs FuncRegistry) (bound, bound, error) {
	lb, err := bind(l, scope, funcs)
	if err != nil {
		return bound{}, bound{}, err
	}
	rb, err := bind(r, scope, funcs)
	return lb, rb, err
}

func bindList(es []sql.Expr, scope *Scope, funcs FuncRegistry) ([]bound, error) {
	out := make([]bound, len(es))
	for i, e := range es {
		b, err := bind(e, scope, funcs)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// bindBool binds e as a condition. AND and OR evaluate their right arm
// only when the left does not decide — but both arms are bound.
func bindBool(e sql.Expr, scope *Scope, funcs FuncRegistry) (pred, error) {
	if !isCondition(e) {
		b, err := bind(e, scope, funcs)
		if err != nil {
			return nil, err
		}
		return func(row catalog.Row) (bool, error) {
			v, err := b.eval(row)
			if err != nil {
				return false, err
			}
			return truthy(v)
		}, nil
	}
	switch v := e.(type) {
	case *sql.NotExpr:
		inner, err := bindBool(v.Inner, scope, funcs)
		if err != nil {
			return nil, err
		}
		return func(row catalog.Row) (bool, error) {
			ok, err := inner(row)
			if err != nil {
				return false, err
			}
			return !ok, nil
		}, nil
	case *sql.InExpr:
		sub, err := bind(v.Subject, scope, funcs)
		if err != nil {
			return nil, err
		}
		list, err := bindList(v.List, scope, funcs)
		if err != nil {
			return nil, err
		}
		negated := v.Negated
		return func(row catalog.Row) (bool, error) {
			s, err := sub.eval(row)
			if err != nil {
				return false, err
			}
			for i := range list {
				iv, err := list[i].eval(row)
				if err != nil {
					return false, err
				}
				c, err := compare(s, iv)
				if err != nil {
					return false, err
				}
				if c == 0 {
					return !negated, nil
				}
			}
			return negated, nil
		}, nil
	case *sql.BetweenExpr:
		sub, lo, err := bindPair(v.Subject, v.Lo, scope, funcs)
		if err != nil {
			return nil, err
		}
		hi, err := bind(v.Hi, scope, funcs)
		if err != nil {
			return nil, err
		}
		return func(row catalog.Row) (bool, error) {
			s, err := sub.eval(row)
			if err != nil {
				return false, err
			}
			l, err := lo.eval(row)
			if err != nil {
				return false, err
			}
			h, err := hi.eval(row)
			if err != nil {
				return false, err
			}
			geLo, err := compare(s, l)
			if err != nil {
				return false, nullIsFalse(err, s, l)
			}
			leHi, err := compare(s, h)
			if err != nil {
				return false, nullIsFalse(err, s, h)
			}
			return geLo >= 0 && leHi <= 0, nil
		}, nil
	}
	v := e.(*sql.BinaryExpr)
	if v.Op == "AND" || v.Op == "OR" {
		l, err := bindBool(v.Left, scope, funcs)
		if err != nil {
			return nil, err
		}
		r, err := bindBool(v.Right, scope, funcs)
		if err != nil {
			return nil, err
		}
		decides := v.Op == "OR" // the left value that settles the result
		return func(row catalog.Row) (bool, error) {
			ok, err := l(row)
			if err != nil || ok == decides {
				return ok, err
			}
			return r(row)
		}, nil
	}
	if p, ok, err := bindColumnVsNumber(v, scope); ok {
		return p, err
	}
	l, r, err := bindPair(v.Left, v.Right, scope, funcs)
	if err != nil {
		return nil, err
	}
	test := cmpTest(v.Op)
	return func(row catalog.Row) (bool, error) {
		a, err := l.eval(row)
		if err != nil {
			return false, err
		}
		b, err := r.eval(row)
		if err != nil {
			return false, err
		}
		return compareAnd(test, a, b)
	}, nil
}

// compareAnd applies a comparison operator's test to two values.
func compareAnd(test func(int) bool, a, b catalog.Value) (bool, error) {
	c, err := compare(a, b)
	if err != nil {
		return false, nullIsFalse(err, a, b)
	}
	return test(c), nil
}

// bindColumnVsNumber binds the predicate most filters are made of — a
// column compared with a numeric literal or parameter, either way round
// — to a closure that holds the number unboxed and reads the column in
// place: no operand calls, no allocation to bind the number, and for the
// numeric column types no trip through compare. ok is false for every
// other shape, which the general path binds.
func bindColumnVsNumber(v *sql.BinaryExpr, scope *Scope) (p pred, ok bool, err error) {
	ref, number, op := v.Left, v.Right, v.Op
	if _, isRef := ref.(*sql.ColumnRef); !isRef {
		ref, number, op = v.Right, v.Left, plan.MirrorOp(v.Op)
	}
	cr, isRef := ref.(*sql.ColumnRef)
	if !isRef {
		return nil, false, nil
	}
	var k catalog.Value
	if pr, isParam := number.(*sql.ParamRef); isParam && pr.Index >= 1 && pr.Index <= len(scope.Params) {
		k = scope.Params[pr.Index-1]
	}
	// The number as an int64 when it is one, and as a float64 always.
	var ki int64
	var kf float64
	isInt := false
	switch n := number.(type) {
	case *sql.IntLit:
		ki, kf, isInt = n.Value, float64(n.Value), true
	case *sql.FloatLit:
		kf = n.Value
	default:
		switch n := k.(type) {
		case int64:
			ki, kf, isInt = n, float64(n), true
		case float64:
			kf = n
		default:
			return nil, false, nil
		}
	}
	col, err := scope.Resolve(cr)
	test := cmpTest(op)
	return func(row catalog.Row) (bool, error) {
		switch x := row[col].(type) {
		case int64:
			if isInt {
				return test(cmpI(x, ki)), nil
			}
			return test(cmpF(float64(x), kf)), nil
		case float64:
			return test(cmpF(x, kf)), nil
		}
		if isInt {
			return compareAnd(test, row[col], ki)
		}
		return compareAnd(test, row[col], kf)
	}, true, err
}

// cmpTest turns a comparison operator into the test it makes of
// compare's result; nil for any other operator.
func cmpTest(op string) func(c int) bool {
	switch op {
	case "=":
		return func(c int) bool { return c == 0 }
	case "!=":
		return func(c int) bool { return c != 0 }
	case "<":
		return func(c int) bool { return c < 0 }
	case "<=":
		return func(c int) bool { return c <= 0 }
	case ">":
		return func(c int) bool { return c > 0 }
	case ">=":
		return func(c int) bool { return c >= 0 }
	}
	return nil
}

// truthy coerces a value used as a condition.
func truthy(v catalog.Value) (bool, error) {
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
func nullIsFalse(err error, a, b catalog.Value) error {
	if a == nil || b == nil {
		return nil
	}
	return err
}

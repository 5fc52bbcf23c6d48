package exec

import (
	"fmt"
	"strings"

	"aidb/internal/catalog"
	"aidb/internal/sql"
)

// Expressions are bound once per operator, when the plan is compiled:
// every column reference becomes a vector position of a known kind, every
// operator a closure chosen for its operands' kinds, every $N the value
// the run binds to it. What depends only on the plan is decided here and
// never again in the row loop, and a name that does not resolve — or a
// column the scan below does not decode — fails the statement before a
// page is read, whatever the table holds and wherever in the expression
// it stands. Bound expressions live for one run; they hold no mutable
// state, so morsel workers share them.

// bound is an expression ready to evaluate on the rows of chunks laid out
// like the scope it was bound to: a column, a constant, or a computation
// over bound operands. k is the kind it yields; the accessor of that kind
// (int, float, str, value) reads one row without boxing unless k is kAny.
type bound struct {
	k   kind
	col int // the column read, when >= 0

	// The constant, when col < 0 and no function is set.
	kv catalog.Value

	// A computation: the function of its kind.
	fi func(c *Chunk, r int32) (int64, error)
	ff func(c *Chunk, r int32) (float64, error)
	fv func(c *Chunk, r int32) (catalog.Value, error)
}

func constant(v catalog.Value) bound {
	b := bound{k: kAny, col: -1, kv: v}
	switch v.(type) {
	case int64:
		b.k = kInt
	case float64:
		b.k = kFloat
	case string:
		b.k = kString
	}
	return b
}

func (k kind) numeric() bool { return k == kInt || k == kFloat }

// int reads row r of a kInt expression.
func (b *bound) int(c *Chunk, r int32) (int64, error) {
	switch {
	case b.fi != nil:
		return b.fi(c, r)
	case b.col >= 0:
		return c.cols[b.col].I[r], nil
	}
	return b.kv.(int64), nil
}

// float reads row r of a numeric expression as a float64.
func (b *bound) float(c *Chunk, r int32) (float64, error) {
	switch {
	case b.k == kInt:
		x, err := b.int(c, r)
		return float64(x), err
	case b.ff != nil:
		return b.ff(c, r)
	case b.col >= 0:
		return c.cols[b.col].F[r], nil
	}
	return b.kv.(float64), nil
}

// str reads row r of a kString expression (a column or a constant).
func (b *bound) str(c *Chunk, r int32) string {
	if b.col >= 0 {
		return c.cols[b.col].S[r]
	}
	return b.kv.(string)
}

// value reads row r of any expression, boxed.
func (b *bound) value(c *Chunk, r int32) (catalog.Value, error) {
	switch {
	case b.fv != nil:
		return b.fv(c, r)
	case b.fi != nil:
		x, err := b.fi(c, r)
		if err != nil {
			return nil, err
		}
		return x, nil
	case b.ff != nil:
		x, err := b.ff(c, r)
		if err != nil {
			return nil, err
		}
		return x, nil
	case b.col >= 0:
		return c.cols[b.col].value(r), nil
	}
	return b.kv, nil
}

// fill writes the expression's value at every row of sel into dst, an
// empty vector of its kind, sized to c.
func (b *bound) fill(dst *vec, c *Chunk, sel []int32) error {
	dst.extend(c.n)
	var err error
	for _, r := range sel {
		switch b.k {
		case kInt:
			dst.I[r], err = b.int(c, r)
		case kFloat:
			dst.F[r], err = b.float(c, r)
		case kString:
			dst.S[r] = b.str(c, r)
		default:
			dst.V[r], err = b.value(c, r)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// appendTo appends the expression's value at row r to dst, a vector of
// its kind.
func (b *bound) appendTo(dst *vec, c *Chunk, r int32) (err error) {
	var x int64
	var f float64
	var v catalog.Value
	switch b.k {
	case kInt:
		x, err = b.int(c, r)
		dst.I = append(dst.I, x)
	case kFloat:
		f, err = b.float(c, r)
		dst.F = append(dst.F, f)
	case kString:
		dst.S = append(dst.S, b.str(c, r))
	default:
		v, err = b.value(c, r)
		dst.V = append(dst.V, v)
	}
	return err
}

// pred is a bound condition. test decides one row; apply narrows a
// selection, in place, to the rows that satisfy it — a typed loop over a
// vector where the condition has one, test row by row otherwise.
type pred interface {
	test(c *Chunk, r int32) (bool, error)
	apply(c *Chunk, sel []int32) ([]int32, error)
}

// rowPred is a condition decided row by row.
type rowPred func(c *Chunk, r int32) (bool, error)

func (p rowPred) test(c *Chunk, r int32) (bool, error) { return p(c, r) }

func (p rowPred) apply(c *Chunk, sel []int32) ([]int32, error) {
	out := sel[:0]
	for _, r := range sel {
		ok, err := p(c, r)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

// andPred narrows by its left arm, then the right arm narrows what is
// left: the right arm is evaluated only on rows the left holds for.
type andPred struct{ l, r pred }

func (p andPred) test(c *Chunk, r int32) (bool, error) {
	ok, err := p.l.test(c, r)
	if !ok || err != nil {
		return false, err
	}
	return p.r.test(c, r)
}

func (p andPred) apply(c *Chunk, sel []int32) ([]int32, error) {
	sel, err := p.l.apply(c, sel)
	if err != nil || len(sel) == 0 {
		return sel, err
	}
	return p.r.apply(c, sel)
}

// isCondition reports whether e yields a truth value by construction;
// bindBool binds those directly, bind everything else.
func isCondition(e sql.Expr) bool {
	switch v := e.(type) {
	case *sql.NotExpr, *sql.InExpr, *sql.BetweenExpr:
		return true
	case *sql.BinaryExpr:
		return v.Op == "AND" || v.Op == "OR" || cmpOpOf(v.Op) != opNone
	}
	return false
}

// bind resolves e against scope: names to columns, $N to scope's
// parameters, function names to funcs.
func bind(e sql.Expr, scope *Scope, funcs FuncRegistry) (bound, error) {
	if isCondition(e) {
		p, err := bindBool(e, scope, funcs)
		if err != nil {
			return bound{}, err
		}
		return bound{k: kInt, col: -1, fi: func(c *Chunk, r int32) (int64, error) {
			ok, err := p.test(c, r)
			if ok {
				return 1, err
			}
			return 0, err
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
		return scope.column(v)
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
		return bindArith(v.Op, l, r), nil
	case *sql.FuncCall:
		fn, ok := funcs[v.Name]
		if !ok {
			return bound{}, fmt.Errorf("exec: unknown function %q", v.Name)
		}
		args, err := bindList(v.Args, scope, funcs)
		if err != nil {
			return bound{}, err
		}
		return bound{k: kAny, col: -1, fv: func(c *Chunk, r int32) (catalog.Value, error) {
			// The arguments go on the chunk's stacks: the chunk belongs to
			// one worker, and a nested call pushes above them.
			base, cells := len(c.args), len(c.cells)
			defer func() { c.args, c.cells = c.args[:base], c.cells[:cells] }()
			for i := range args {
				v, err := c.arg(&args[i], r)
				if err != nil {
					return nil, err
				}
				c.args = append(c.args, v)
			}
			v, err := fn(c.args[base:len(c.args):len(c.args)])
			return c.keepArg(v, cells), err
		}}, nil
	case *sql.Star:
		return bound{}, fmt.Errorf("exec: '*' is only valid as a projection or COUNT argument")
	default:
		return bound{}, fmt.Errorf("exec: cannot evaluate %T", e)
	}
}

// bindArith picks the arithmetic for its operands' kinds: int64 for two
// integers, float64 for any other two numbers, and for anything else
// arith over boxed values, which fails as the values dictate.
func bindArith(op string, l, r bound) bound {
	switch {
	case l.k == kInt && r.k == kInt:
		return bound{k: kInt, col: -1, fi: func(c *Chunk, row int32) (int64, error) {
			a, err := l.int(c, row)
			if err != nil {
				return 0, err
			}
			b, err := r.int(c, row)
			if err != nil {
				return 0, err
			}
			return intArith(op, a, b)
		}}
	case l.k.numeric() && r.k.numeric():
		return bound{k: kFloat, col: -1, ff: func(c *Chunk, row int32) (float64, error) {
			a, err := l.float(c, row)
			if err != nil {
				return 0, err
			}
			b, err := r.float(c, row)
			if err != nil {
				return 0, err
			}
			return floatArith(op, a, b)
		}}
	}
	return bound{k: kAny, col: -1, fv: func(c *Chunk, row int32) (catalog.Value, error) {
		a, err := l.value(c, row)
		if err != nil {
			return nil, err
		}
		b, err := r.value(c, row)
		if err != nil {
			return nil, err
		}
		return arith(op, a, b)
	}}
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
// only on rows the left does not decide — but both arms are bound.
func bindBool(e sql.Expr, scope *Scope, funcs FuncRegistry) (pred, error) {
	if !isCondition(e) {
		b, err := bind(e, scope, funcs)
		if err != nil {
			return nil, err
		}
		return rowPred(func(c *Chunk, r int32) (bool, error) {
			switch b.k {
			case kInt:
				x, err := b.int(c, r)
				return x != 0, err
			case kFloat:
				x, err := b.float(c, r)
				return x != 0, err
			case kString:
				return b.str(c, r) != "", nil
			}
			v, err := b.value(c, r)
			if err != nil {
				return false, err
			}
			return truthy(v)
		}), nil
	}
	switch v := e.(type) {
	case *sql.NotExpr:
		inner, err := bindBool(v.Inner, scope, funcs)
		if err != nil {
			return nil, err
		}
		return rowPred(func(c *Chunk, r int32) (bool, error) {
			ok, err := inner.test(c, r)
			return !ok, err
		}), nil
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
		return rowPred(func(c *Chunk, r int32) (bool, error) {
			s, err := sub.value(c, r)
			if err != nil {
				return false, err
			}
			for i := range list {
				iv, err := list[i].value(c, r)
				if err != nil {
					return false, err
				}
				x, err := compare(s, iv)
				if err != nil {
					return false, err
				}
				if x == 0 {
					return !negated, nil
				}
			}
			return negated, nil
		}), nil
	case *sql.BetweenExpr:
		sub, lo, err := bindPair(v.Subject, v.Lo, scope, funcs)
		if err != nil {
			return nil, err
		}
		hi, err := bind(v.Hi, scope, funcs)
		if err != nil {
			return nil, err
		}
		geLo, leHi := cmpTest(opGE, bindComparer(sub, lo)), cmpTest(opLE, bindComparer(sub, hi))
		return rowPred(func(c *Chunk, r int32) (bool, error) {
			okLo, err := geLo(c, r)
			if err != nil {
				return false, err
			}
			okHi, err := leHi(c, r)
			return okLo && okHi, err
		}), nil
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
		if v.Op == "OR" {
			return rowPred(func(c *Chunk, row int32) (bool, error) {
				ok, err := l.test(c, row)
				if ok || err != nil {
					return ok, err
				}
				return r.test(c, row)
			}), nil
		}
		return andPred{l, r}, nil
	}
	l, r, err := bindPair(v.Left, v.Right, scope, funcs)
	if err != nil {
		return nil, err
	}
	op := cmpOpOf(v.Op)
	if p, ok := columnVsNumber(l, r, op); ok {
		return p, nil
	}
	return cmpTest(op, bindComparer(l, r)), nil
}

// comparer compares two bound operands on one row as compare orders
// them; null reports that a failure is a NULL operand's.
type comparer func(c *Chunk, r int32) (x int, null bool, err error)

// bindComparer picks the comparison for its operands' kinds: typed for
// two integers, two numbers or two strings, compare over boxed values
// for the rest, which fails as the values dictate.
func bindComparer(l, r bound) comparer {
	switch {
	case l.k == kInt && r.k == kInt:
		return func(c *Chunk, row int32) (int, bool, error) {
			a, err := l.int(c, row)
			if err != nil {
				return 0, false, err
			}
			b, err := r.int(c, row)
			return cmpOrd(a, b), false, err
		}
	case l.k.numeric() && r.k.numeric():
		return func(c *Chunk, row int32) (int, bool, error) {
			a, err := l.float(c, row)
			if err != nil {
				return 0, false, err
			}
			b, err := r.float(c, row)
			return cmpOrd(a, b), false, err
		}
	case l.k == kString && r.k == kString:
		return func(c *Chunk, row int32) (int, bool, error) {
			return strings.Compare(l.str(c, row), r.str(c, row)), false, nil
		}
	}
	return func(c *Chunk, row int32) (int, bool, error) {
		a, err := l.value(c, row)
		if err != nil {
			return 0, false, err
		}
		b, err := r.value(c, row)
		if err != nil {
			return 0, false, err
		}
		x, err := compare(a, b)
		return x, err != nil && (a == nil || b == nil), err
	}
}

// cmpTest is the row test a comparison operator makes of cmp's result: a
// comparison with NULL is not true of any row, as in SQL (tables hold no
// NULL; a parameter can); any other failure stays the error it was.
func cmpTest(op cmpOp, cmp comparer) rowPred {
	return func(c *Chunk, r int32) (bool, error) {
		x, null, err := cmp(c, r)
		if err != nil {
			if null {
				err = nil
			}
			return false, err
		}
		return op.holds(x), nil
	}
}

// columnVsNumber binds the predicate most filters are made of — a
// numeric column compared with a numeric literal or parameter, either
// way round — to a loop over the column's vector with the number held
// unboxed. ok is false for every other shape, which the general path
// binds.
func columnVsNumber(l, r bound, op cmpOp) (p pred, ok bool) {
	if l.col < 0 {
		l, r, op = r, l, op&opEQ|(op&opLT)<<2|(op&opGT)>>2 // k op column: mirrored
	}
	if l.col < 0 || r.col >= 0 || r.fi != nil || r.ff != nil || r.fv != nil {
		return nil, false
	}
	ints := func(v *vec) []int64 { return v.I }
	switch {
	case l.k == kInt && r.k == kInt:
		return colPred[int64, int64]{l.col, ints, r.kv.(int64), op}, true
	case l.k == kInt && r.k == kFloat:
		return colPred[int64, float64]{l.col, ints, r.kv.(float64), op}, true
	case l.k == kFloat && r.k.numeric():
		kf, _ := r.float(nil, 0)
		return colPred[float64, float64]{l.col, func(v *vec) []float64 { return v.F }, kf, op}, true
	}
	return nil, false
}

// colPred is `column op k` over the numeric vector cells picks out of
// column col, compared in K's type.
type colPred[T, K int64 | float64] struct {
	col   int
	cells func(*vec) []T
	k     K
	op    cmpOp
}

func (p colPred[T, K]) test(c *Chunk, r int32) (bool, error) {
	return p.op.holds(cmpOrd(K(p.cells(c.cols[p.col])[r]), p.k)), nil
}

func (p colPred[T, K]) apply(c *Chunk, sel []int32) ([]int32, error) {
	return selectCmp(p.cells(c.cols[p.col]), p.k, p.op, sel), nil
}

// selectCmp narrows sel to the rows whose cell x satisfies `x op k`,
// ordered as compare orders them (a NaN is neither below nor above k, so
// it compares equal). One loop per operator keeps the test in the loop
// a single comparison.
func selectCmp[T, K int64 | float64](cells []T, k K, op cmpOp, sel []int32) []int32 {
	j := 0
	switch op {
	case opEQ:
		for _, r := range sel {
			sel[j] = r
			if x := K(cells[r]); !(x < k || x > k) {
				j++
			}
		}
	case opNE:
		for _, r := range sel {
			sel[j] = r
			if x := K(cells[r]); x < k || x > k {
				j++
			}
		}
	case opLT:
		for _, r := range sel {
			sel[j] = r
			if K(cells[r]) < k {
				j++
			}
		}
	case opLE:
		for _, r := range sel {
			sel[j] = r
			if !(K(cells[r]) > k) {
				j++
			}
		}
	case opGT:
		for _, r := range sel {
			sel[j] = r
			if K(cells[r]) > k {
				j++
			}
		}
	case opGE:
		for _, r := range sel {
			sel[j] = r
			if !(K(cells[r]) < k) {
				j++
			}
		}
	}
	return sel[:j]
}

// cmpOp is a comparison operator as the set of compare results it
// accepts: bit x+1 for result x.
type cmpOp uint8

const (
	opNone cmpOp = 0
	opLT   cmpOp = 1 << 0
	opEQ   cmpOp = 1 << 1
	opGT   cmpOp = 1 << 2
	opNE         = opLT | opGT
	opLE         = opLT | opEQ
	opGE         = opEQ | opGT
)

func cmpOpOf(op string) cmpOp {
	switch op {
	case "=":
		return opEQ
	case "!=":
		return opNE
	case "<":
		return opLT
	case "<=":
		return opLE
	case ">":
		return opGT
	case ">=":
		return opGE
	}
	return opNone
}

// holds reports whether the operator accepts compare's result x.
func (op cmpOp) holds(x int) bool { return op>>(x+1)&1 != 0 }

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

package exec

import (
	"fmt"
	"strings"

	"aidb/internal/catalog"
	"aidb/internal/sql"
)

// Expressions are bound once per operator, when the plan is compiled:
// every column reference becomes a vector position of a known kind, every
// operator a closure chosen for its operands' kinds, every $N its slot
// and the kind of the value the compiling run binds to it. What depends
// only on the plan and those kinds is decided here and never again in
// the row loop, and a name that does not resolve — or a column the scan
// below does not decode — fails the statement before a page is read,
// whatever the table holds and wherever in the expression it stands.
// Bound expressions belong to a program: they hold no mutable state and
// no value of a run — a $N reads its value from the chunk's parameters,
// which are the run's — so morsel workers and concurrent runs share them.

// bound is an expression ready to evaluate on the rows of chunks laid out
// like the scope it was bound to: a column, a constant, or a computation
// over bound operands. k is the kind it yields; the accessor of that kind
// (int, float, str, value) reads one row without boxing unless k is kAny.
type bound struct {
	k   kind
	col int // the column read, when >= 0

	// The constant, when col < 0 and no function is set: kv, or, when
	// param > 0, the run's value of $param (see konst).
	kv    catalog.Value
	param int

	// A computation: the function of its kind.
	fi func(c *Chunk, r int32) (int64, error)
	ff func(c *Chunk, r int32) (float64, error)
	fv func(c *Chunk, r int32) (catalog.Value, error)

	// vc, when set, is the chunk-form call a kFloat computation is; ff is
	// then the call on one row.
	vc *vecCall
}

// isConst reports whether b is a literal or a parameter: kv, no row read.
func (b *bound) isConst() bool {
	return b.col < 0 && b.fi == nil && b.ff == nil && b.fv == nil
}

func constant(v catalog.Value) bound {
	return bound{k: valueKind(v), col: -1, kv: v}
}

// valueKind is the kind a constant of value v binds as: a parameter's
// kind is its value's, and a program fits only runs whose parameters
// have the kinds it was compiled for.
func valueKind(v catalog.Value) kind {
	switch v.(type) {
	case int64:
		return kInt
	case float64:
		return kFloat
	case string:
		return kString
	}
	return kAny
}

// konst is a constant's value on the chunks of a run: the literal, or
// the run's value of its parameter.
func (b *bound) konst(c *Chunk) catalog.Value { return b.konstIn(c.params) }

// konstIn is a constant's value under params.
func (b *bound) konstIn(params []catalog.Value) catalog.Value {
	if b.param > 0 {
		return params[b.param-1]
	}
	return b.kv
}

// number is a numeric constant's value v as a K.
func number[K int64 | float64](v catalog.Value) K {
	if x, ok := v.(int64); ok {
		return K(x)
	}
	return K(v.(float64))
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
	return b.konst(c).(int64), nil
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
	return b.konst(c).(float64), nil
}

// str reads row r of a kString expression (a column or a constant).
func (b *bound) str(c *Chunk, r int32) string {
	if b.col >= 0 {
		return c.cols[b.col].S[r]
	}
	return b.konst(c).(string)
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
	return b.konst(c), nil
}

// fill writes the expression's value at every row of sel into dst, an
// empty vector of its kind, sized to c.
func (b *bound) fill(dst *vec, c *Chunk, sel []int32) error {
	dst.extend(c.n)
	if b.vc != nil {
		return b.vc.fill(dst.F, c, sel)
	}
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

// floats writes the numeric expression's value at each row of sel into
// out[i]: a chunk-form call once for the selection, a column by a typed
// loop, anything else row by row.
func (b *bound) floats(c *Chunk, sel []int32, out []float64) error {
	switch {
	case b.vc != nil:
		return b.vc.call(c, sel, out)
	case b.col >= 0 && b.k == kFloat:
		cells := c.cols[b.col].F
		for i, r := range sel {
			out[i] = cells[r]
		}
	case b.col >= 0 && b.k == kInt:
		cells := c.cols[b.col].I
		for i, r := range sel {
			out[i] = float64(cells[r])
		}
	default:
		for i, r := range sel {
			x, err := b.float(c, r)
			if err != nil {
				return err
			}
			out[i] = x
		}
	}
	return nil
}

// fillFloats writes the numeric expression's value at each row r of sel
// into cells[r].
func (b *bound) fillFloats(cells []float64, c *Chunk, sel []int32) error {
	if b.vc != nil {
		return b.vc.fill(cells, c, sel)
	}
	for _, r := range sel {
		x, err := b.float(c, r)
		if err != nil {
			return err
		}
		cells[r] = x
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
		return v.Op == "AND" || v.Op == "OR" || catalog.CmpOf(v.Op) != 0
	}
	return false
}

// bind resolves e against scope: names to columns, $N to the slots of
// scope's parameters, of their values' kinds, function names to funcs.
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
		b := constant(scope.Params[v.Index-1])
		b.kv, b.param = nil, v.Index
		return b, nil
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
		perRow := func(c *Chunk, r int32) (catalog.Value, error) {
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
		}
		if vf, ok := scope.vectors[v.Name]; ok {
			if b, ok := bindVectorCall(vf, args, perRow); ok {
				return b, nil
			}
		}
		return bound{k: kAny, col: -1, fv: perRow}, nil
	case *sql.Star:
		return bound{}, fmt.Errorf("exec: '*' is only valid as a projection or COUNT argument")
	default:
		return bound{}, fmt.Errorf("exec: cannot evaluate %T", e)
	}
}

// vecCall is a function call bound to its chunk form: the constant first
// argument it is passed once, and the numeric rest it is passed as
// columns. perRow is the same call through the ScalarFunc, on one row.
type vecCall struct {
	fn     VectorFunc
	first  bound
	args   []bound
	perRow func(c *Chunk, r int32) (catalog.Value, error)
}

// bindVectorCall binds a call to fn when its arguments allow one — the
// first a constant, the rest numbers — as a kFloat computation.
func bindVectorCall(fn VectorFunc, args []bound, perRow func(*Chunk, int32) (catalog.Value, error)) (bound, bool) {
	if len(args) == 0 || !args[0].isConst() {
		return bound{}, false
	}
	for _, a := range args[1:] {
		if !a.k.numeric() {
			return bound{}, false
		}
	}
	call := &vecCall{fn: fn, first: args[0], args: args[1:], perRow: perRow}
	return bound{k: kFloat, col: -1, ff: call.row, vc: call}, true
}

// call writes the function's value at each row of sel into out[i]. Each
// argument is gathered into a column on the chunk's float stack — a
// nested call stacks above it — so a worker allocates nothing once its
// chunks' stacks have grown. An empty selection calls nothing, as no row
// calls the per-row form.
//
// Gathering evaluates one argument for every row before the next, and
// the function's own checks come last, so a failure can be a different
// row's or argument's than the per-row form meets first. On failure the
// selection is run again row by row through the ScalarFunc, and the
// first error that gives is the call's.
func (v *vecCall) call(c *Chunk, sel []int32, out []float64) error {
	if len(sel) == 0 {
		return nil
	}
	floats, vargs := len(c.floats), len(c.vargs)
	err := v.gather(c, sel)
	if err == nil {
		err = v.fn.Eval(v.first.konst(c), c.vargs[vargs:len(c.vargs):len(c.vargs)], out)
	}
	c.floats, c.vargs = c.floats[:floats], c.vargs[:vargs]
	if err != nil {
		return v.rowErr(c, sel, err)
	}
	return nil
}

// rowErr is the error of a chunk-form call that failed with err: the
// first the per-row form meets on the rows of sel, err if it meets none.
func (v *vecCall) rowErr(c *Chunk, sel []int32, err error) error {
	for _, r := range sel {
		if _, rowErr := v.perRow(c, r); rowErr != nil {
			return rowErr
		}
	}
	return err
}

func (v *vecCall) gather(c *Chunk, sel []int32) error {
	for i := range v.args {
		col := c.pushFloats(len(sel))
		if err := v.args[i].floats(c, sel, col); err != nil {
			return err
		}
		c.vargs = append(c.vargs, col)
	}
	return nil
}

// fill writes the function's value at each row r of sel into cells[r].
func (v *vecCall) fill(cells []float64, c *Chunk, sel []int32) error {
	mark := len(c.floats)
	out := c.pushFloats(len(sel))
	err := v.call(c, sel, out)
	if err == nil {
		for i, r := range sel {
			cells[r] = out[i]
		}
	}
	c.floats = c.floats[:mark]
	return err
}

// row is the call on row r alone, for a caller working row by row. Every
// call nested in it is on the same row, so they share c.one.
func (v *vecCall) row(c *Chunk, r int32) (float64, error) {
	mark := len(c.floats)
	out := c.pushFloats(1)
	c.one[0] = r
	err := v.call(c, c.one[:], out)
	x := out[0]
	c.floats = c.floats[:mark]
	return x, err
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
		geLo, leHi := cmpTest(catalog.CmpGE, bindComparer(sub, lo)), cmpTest(catalog.CmpLE, bindComparer(sub, hi))
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
	op := catalog.CmpOf(v.Op)
	if p, ok := vsNumber(l, r, op); ok {
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
func cmpTest(op catalog.CmpOp, cmp comparer) rowPred {
	return func(c *Chunk, r int32) (bool, error) {
		x, null, err := cmp(c, r)
		if err != nil {
			if null {
				err = nil
			}
			return false, err
		}
		return op.Holds(x), nil
	}
}

// vsNumber binds the predicates most filters are made of — a numeric
// column, or a chunk-form call, compared with a numeric literal or
// parameter, either way round — with the number held unboxed: a column
// to a loop over its vector, a call to a callPred. ok is false for
// every other shape, which the general path binds.
func vsNumber(l, r bound, op catalog.CmpOp) (p pred, ok bool) {
	if r.col >= 0 || r.vc != nil {
		l, r, op = r, l, op.Mirrored() // k op x
	}
	if !r.isConst() || !r.k.numeric() {
		return nil, false
	}
	ints := func(v *vec) []int64 { return v.I }
	switch {
	case l.vc != nil:
		return callPred{l.vc, r, op}, true
	case l.col < 0:
		return nil, false
	case l.k == kInt && r.k == kInt:
		return colPred[int64, int64]{l.col, ints, r, op}, true
	case l.k == kInt:
		return colPred[int64, float64]{l.col, ints, r, op}, true
	case l.k == kFloat:
		return colPred[float64, float64]{l.col, func(v *vec) []float64 { return v.F }, r, op}, true
	}
	return nil, false
}

// colPred is `column op k` over the numeric vector cells picks out of
// column col, compared in K's type; k is a literal or a parameter, its
// value read once per chunk.
type colPred[T, K int64 | float64] struct {
	col   int
	cells func(*vec) []T
	k     bound
	op    catalog.CmpOp
}

func (p colPred[T, K]) test(c *Chunk, r int32) (bool, error) {
	return p.op.Holds(cmpOrd(K(p.cells(c.cols[p.col])[r]), number[K](p.k.konst(c)))), nil
}

func (p colPred[T, K]) apply(c *Chunk, sel []int32) ([]int32, error) {
	return selectCmp(p.cells(c.cols[p.col]), number[K](p.k.konst(c)), p.op, sel), nil
}

// callPred is `call op k`. Where the function has a selecting form for
// the call, the chunk's rows are selected by it, each argument read
// where the chunk holds it; otherwise the call runs once for the rows of
// the selection, into a float vector selectCmp narrows the selection
// over.
type callPred struct {
	call *vecCall
	k    bound
	op   catalog.CmpOp
}

func (p callPred) test(c *Chunk, r int32) (bool, error) {
	x, err := p.call.row(c, r)
	return err == nil && p.op.Holds(cmpOrd(x, number[float64](p.k.konst(c)))), err
}

func (p callPred) apply(c *Chunk, sel []int32) ([]int32, error) {
	k := number[float64](p.k.konst(c))
	if v := p.call; v.fn.Select != nil && len(sel) > 0 {
		s, err := v.fn.Select(v.first.konst(c), len(v.args), uint8(p.op), k)
		if err != nil {
			return nil, v.rowErr(c, sel, err)
		}
		if s != nil {
			return v.selectBy(s, c, sel)
		}
	}
	mark := len(c.floats)
	cells := c.pushFloats(c.n)
	err := p.call.fill(cells, c, sel)
	if err == nil {
		sel = selectCmp(cells, k, p.op, sel)
	}
	c.floats = c.floats[:mark]
	return sel, err
}

// selectBy narrows sel by s. An argument that is an INT or FLOAT column
// is handed over as the chunk holds it; any other is evaluated at the
// rows of sel into a column on the chunk's float stack.
func (v *vecCall) selectBy(s Selector, c *Chunk, sel []int32) ([]int32, error) {
	floats, vargs, iargs := len(c.floats), len(c.vargs), len(c.iargs)
	defer func() { c.floats, c.vargs, c.iargs = c.floats[:floats], c.vargs[:vargs], c.iargs[:iargs] }()
	for i := range v.args {
		a := &v.args[i]
		var fs []float64
		var is []int64
		switch {
		case a.col >= 0 && a.k == kFloat:
			fs = c.cols[a.col].F
		case a.col >= 0 && a.k == kInt:
			is = c.cols[a.col].I
		default:
			fs = c.pushFloats(c.n)
			if err := a.fillFloats(fs, c, sel); err != nil {
				return nil, v.rowErr(c, sel, err)
			}
		}
		c.vargs, c.iargs = append(c.vargs, fs), append(c.iargs, is)
	}
	return s.Select(c.vargs[vargs:], c.iargs[iargs:], sel, c.pushFloats(len(sel))), nil
}

// selectCmp narrows sel to the rows whose cell x satisfies `x op k`,
// ordered as compare orders them (a NaN is neither below nor above k, so
// it compares equal). One loop per operator keeps the test in the loop
// a single comparison. Every loop writes the row and advances j by the
// test's outcome: the compiler turns the ordering tests into conditional
// moves itself, and = and <> add two flags, so no loop branches on a
// cell.
func selectCmp[T, K int64 | float64](cells []T, k K, op catalog.CmpOp, sel []int32) []int32 {
	j := 0
	switch op {
	case catalog.CmpEQ:
		for _, r := range sel {
			sel[j] = r
			x := K(cells[r])
			j += 1 ^ (b2i(x < k) | b2i(x > k))
		}
	case catalog.CmpNE:
		for _, r := range sel {
			sel[j] = r
			x := K(cells[r])
			j += b2i(x < k) | b2i(x > k)
		}
	case catalog.CmpLT:
		for _, r := range sel {
			sel[j] = r
			if K(cells[r]) < k {
				j++
			}
		}
	case catalog.CmpLE:
		for _, r := range sel {
			sel[j] = r
			if !(K(cells[r]) > k) {
				j++
			}
		}
	case catalog.CmpGT:
		for _, r := range sel {
			sel[j] = r
			if K(cells[r]) > k {
				j++
			}
		}
	case catalog.CmpGE:
		for _, r := range sel {
			sel[j] = r
			if !(K(cells[r]) < k) {
				j++
			}
		}
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

package exec

import (
	"fmt"
	"slices"
	"sync/atomic"

	"aidb/internal/catalog"
	"aidb/internal/plan"
	"aidb/internal/sql"
)

// A plan runs in two halves. compile lowers it once into a program: the
// layouts of its chunks, its bound expressions and predicates, and the
// shape of every operator — what depends only on the plan, the
// executor's functions and the kinds of the parameters. A run then opens
// the program on its own state (runCtx): its context, memory budget,
// chunk pool, profile, chaos consultations and parameter values, and
// the settings that may change between queries (Parallelism,
// MorselSize, ScanMorselPages), which the operators read at open.
// Nothing in a program refers to a run, so one program serves any
// number of runs at once.

// program is a plan compiled for parameters of the kinds params lists.
type program struct {
	root    step
	kinds   []kind   // the result's layout
	columns []string // the result's column names
	params  []kind
}

// fits reports whether a run binding params may open p: they have the
// kinds p was compiled for.
func (p *program) fits(params []catalog.Value) bool {
	if len(params) != len(p.params) {
		return false
	}
	for i, v := range params {
		if valueKind(v) != p.params[i] {
			return false
		}
	}
	return true
}

// Compiled keeps the program one plan compiles to between its runs —
// a plan-cache entry holds one. The zero value is empty; the first run
// through Executor.RunCompiled that may keep its program stores it, and
// nothing replaces it after.
type Compiled struct {
	p atomic.Pointer[program]
}

// step is one operator of a program. open builds the operator one run
// pulls, over the run's state; it cannot fail, since everything that
// can was decided when the program was compiled.
type step interface {
	open(rc *runCtx) BatchOperator
}

// fusable is implemented by steps that absorb a transform above them
// into their own loop: sources and transform chains.
type fusable interface {
	fuse(t transform)
}

// fused pushes t into in when in can absorb it, else puts a transform
// chain over in.
func fused(in step, t transform) step {
	if f, ok := in.(fusable); ok {
		f.fuse(t)
		return in
	}
	return &transformStep{in: in, ts: []transform{t}}
}

// scanStep is a source: a heap scan, an index scan or a virtual scan,
// with the filters and projections fused into its morsel loop. Its
// morsels are fixed when a run opens it (morselStream.plan).
type scanStep struct {
	node   plan.Node // a *plan.ScanNode, *plan.IndexScanNode or *plan.VirtualScanNode
	kinds  []kind
	rowIDs bool
	ts     []transform
	// zones, for a heap scan, is the leading run of the comparisons a
	// page's zone can rule out in the filter fused first into it
	// (zoneRun); a run prunes the pages they rule out.
	zones []plan.Comparison
}

func (s *scanStep) open(rc *runCtx) BatchOperator { return rc.stream(s) }
func (s *scanStep) fuse(t transform)              { s.ts = append(s.ts, t) }

// transformStep applies fused transforms above a pipeline breaker.
type transformStep struct {
	in step
	ts []transform
}

func (t *transformStep) open(rc *runCtx) BatchOperator {
	return &transformOp{rc: rc, in: t.in.open(rc), ts: t.ts}
}
func (t *transformStep) fuse(tr transform) { t.ts = append(t.ts, tr) }

type aggStep struct {
	node *plan.AggregateNode
	in   step
	agg  *boundAgg
}

func (a *aggStep) open(rc *runCtx) BatchOperator {
	return rc.profiled(&aggOp{rc: rc, agg: a.agg, in: a.in.open(rc)}, a.node)
}

type sortStep struct {
	node  *plan.SortNode
	in    step
	keys  []sortKey
	kinds []kind
}

func (s *sortStep) open(rc *runCtx) BatchOperator {
	return rc.profiled(&sortOp{rc: rc, keys: s.keys, kinds: s.kinds, in: s.in.open(rc)}, s.node)
}

type limitStep struct {
	node *plan.LimitNode
	in   step
}

func (l *limitStep) open(rc *runCtx) BatchOperator {
	return rc.profiled(&limitOp{n: l.node.N, in: l.in.open(rc)}, l.node)
}

type distinctStep struct {
	node *plan.DistinctNode
	in   step
	key  []bound // every column
	mode keyMode
}

func (d *distinctStep) open(rc *runCtx) BatchOperator {
	return rc.profiled(&distinctOp{rc: rc, in: d.in.open(rc), key: d.key, seen: newKeyMap(d.mode, false)}, d.node)
}

type modifyStep struct {
	node *plan.ModifyNode
	in   step
	set  []bound // the bound SET expressions, one per node.Set entry
}

func (m *modifyStep) open(rc *runCtx) BatchOperator {
	return &modifyOp{rc: rc, node: m.node, set: m.set, prof: rc.prof.of(m.node), in: m.in.open(rc)}
}

// joinStep is a hash join with its build side chosen and its keys bound.
// When both keys are INTs and the probe is a prunable heap scan,
// pruneCol is the probe table's key column, by which a run restricts
// the probe's pages to those its build keys may lie on; else it is -1.
type joinStep struct {
	node         *plan.JoinNode
	build, probe step
	buildKinds   []kind
	outKinds     []kind // the left input's columns, then the right's
	buildKey     []bound
	probeKey     []bound
	mode         keyMode
	buildIsLeft  bool
	pruneCol     int
}

func (j *joinStep) open(rc *runCtx) BatchOperator {
	op := &joinOp{rc: rc, step: j, build: j.build.open(rc), probe: j.probe.open(rc), keys: newKeyMap(j.mode, true)}
	return rc.profiled(op, j.node)
}

// compiler lowers one plan for parameters of the kinds of params (whose
// values it never reads), binding function calls to funcs and vectors.
type compiler struct {
	funcs   FuncRegistry
	vectors map[string]VectorFunc
	params  []catalog.Value
}

// compile lowers n into a program for parameters of params' kinds.
// Filters and projections become transforms fused into their input when
// it can absorb them (sources and transform chains), so the hot loops
// run entirely inside the scan workers. A name that does not resolve
// fails here, before anything runs; exec.compiles counts every call.
func (ex *Executor) compile(n plan.Node, params []catalog.Value) (*program, error) {
	ex.Obs.Compiles.Inc()
	c := compiler{funcs: ex.Funcs, vectors: ex.VectorFuncs, params: params}
	root, kinds, err := c.step(n)
	if err != nil {
		return nil, err
	}
	columns := n.Schema()
	if i := slices.Index(kinds, kNone); i >= 0 {
		return nil, fmt.Errorf("exec: result column %q is not decoded (planner bug)", columns[i])
	}
	p := &program{root: root, kinds: kinds, columns: columns, params: make([]kind, len(params))}
	for i, v := range params {
		p.params[i] = valueKind(v)
	}
	return p, nil
}

func (c *compiler) scope(names []string, kinds []kind) *Scope {
	return &Scope{names: names, kinds: kinds, Params: c.params, vectors: c.vectors}
}

// step lowers n and returns the layout of its chunks: one vector kind
// per schema column. An input is lowered before the expressions over it
// are bound: binding needs its layout.
func (c *compiler) step(n plan.Node) (step, []kind, error) {
	switch v := n.(type) {
	case *plan.ScanNode:
		s := &scanStep{node: v, kinds: tableKinds(v.Table, v.Needed), rowIDs: v.RowIDs}
		return s, s.kinds, nil
	case *plan.IndexScanNode:
		s := &scanStep{node: v, kinds: tableKinds(v.Table, v.Needed), rowIDs: v.RowIDs}
		return s, s.kinds, nil
	case *plan.VirtualScanNode:
		kinds := make([]kind, len(v.Table.Cols.Columns))
		for i := range kinds {
			kinds[i] = kAny
		}
		return &scanStep{node: v, kinds: kinds}, kinds, nil
	case *plan.JoinNode:
		return c.join(v)
	}
	input := inputOf(n)
	if input == nil {
		return nil, nil, fmt.Errorf("exec: unsupported plan node %T", n)
	}
	in, kinds, err := c.step(input)
	if err != nil {
		return nil, nil, err
	}
	return c.over(n, in, c.scope(input.Schema(), kinds))
}

// over lowers the one-input node n over its lowered input in, whose
// chunks are laid out as scope says.
func (c *compiler) over(n plan.Node, in step, scope *Scope) (step, []kind, error) {
	kinds := scope.kinds
	switch v := n.(type) {
	case *plan.FilterNode:
		cond, err := bindBool(v.Cond, scope, c.funcs)
		if err != nil {
			return nil, nil, err
		}
		if s, ok := in.(*scanStep); ok && len(s.ts) == 0 {
			s.zones, _ = c.zoneRun(s, v.Cond)
		}
		return fused(in, &filterTransform{cond: cond, node: v}), kinds, nil
	case *plan.ProjectNode:
		t, out, err := c.bindProject(v, scope)
		if err != nil {
			return nil, nil, err
		}
		return fused(in, t), out, nil
	case *plan.AggregateNode:
		agg, out, err := c.bindAggregate(v, scope)
		if err != nil {
			return nil, nil, err
		}
		return &aggStep{node: v, in: in, agg: agg}, out, nil
	case *plan.SortNode:
		keys, err := c.bindSortKeys(v, scope)
		if err != nil {
			return nil, nil, err
		}
		return &sortStep{node: v, in: in, keys: keys, kinds: kinds}, kinds, nil
	case *plan.LimitNode:
		return &limitStep{node: v, in: in}, kinds, nil
	case *plan.DistinctNode:
		key := make([]bound, len(kinds))
		for i, k := range kinds {
			key[i] = bound{k: k, col: i}
		}
		return &distinctStep{node: v, in: in, key: key, mode: groupKeyMode(key)}, kinds, nil
	case *plan.ModifyNode:
		set, err := c.bindSet(v, scope)
		if err != nil {
			return nil, nil, err
		}
		return &modifyStep{node: v, in: in, set: set}, nil, nil
	}
	return nil, nil, fmt.Errorf("exec: unsupported plan node %T", n)
}

// inputOf is the input of a one-input plan node (nil for any other
// node), read without the allocation Children makes.
func inputOf(n plan.Node) plan.Node {
	switch v := n.(type) {
	case *plan.FilterNode:
		return v.Input
	case *plan.ProjectNode:
		return v.Input
	case *plan.AggregateNode:
		return v.Input
	case *plan.SortNode:
		return v.Input
	case *plan.LimitNode:
		return v.Input
	case *plan.DistinctNode:
		return v.Input
	case *plan.ModifyNode:
		return v.Input
	}
	return nil
}

// join resolves the join keys, picks the build side from the planner's
// cardinality estimates (for plain scans the estimate is the exact row
// count; ties build left) and the key strategy from the two key
// columns' kinds.
func (c *compiler) join(v *plan.JoinNode) (step, []kind, error) {
	left, lKinds, err := c.step(v.Left)
	if err != nil {
		return nil, nil, err
	}
	right, rKinds, err := c.step(v.Right)
	if err != nil {
		return nil, nil, err
	}
	lKey, err := c.scope(v.Left.Schema(), lKinds).column(plan.ColumnRefOf(v.LeftCol))
	if err != nil {
		return nil, nil, fmt.Errorf("exec: join left key: %w", err)
	}
	rKey, err := c.scope(v.Right.Schema(), rKinds).column(plan.ColumnRefOf(v.RightCol))
	if err != nil {
		return nil, nil, fmt.Errorf("exec: join right key: %w", err)
	}
	j := &joinStep{node: v, outKinds: append(slices.Clip(lKinds), rKinds...), mode: joinKeyMode(lKey.k, rKey.k)}
	// A plan-time annotation (cached plans) freezes the build side; only
	// un-annotated plans consult the estimator here.
	buildRight := false
	switch v.BuildSide {
	case plan.BuildRight:
		buildRight = true
	case plan.BuildLeft:
		buildRight = false
	default:
		est := plan.HistogramEstimator{}
		buildRight = plan.EstimateRows(v.Right, est) < plan.EstimateRows(v.Left, est)
	}
	if buildRight {
		j.build, j.probe, j.buildKinds = right, left, rKinds
		j.buildKey, j.probeKey = []bound{rKey}, []bound{lKey}
	} else {
		j.build, j.probe, j.buildKinds = left, right, lKinds
		j.buildKey, j.probeKey = []bound{lKey}, []bound{rKey}
		j.buildIsLeft = true
	}
	j.pruneCol = -1
	if s, ok := j.probe.(*scanStep); ok && j.mode == keyInt && j.probeKey[0].col >= 0 && c.prunable(s) {
		j.pruneCol = j.probeKey[0].col
	}
	return j, j.outKinds, nil
}

// prunable reports whether a join may read only some of s's pages: s is
// a heap scan whose fused transforms are filters of zone comparisons
// alone, which no row fails on, so a page left out changes no
// statement's error.
func (c *compiler) prunable(s *scanStep) bool {
	_, heap := s.node.(*plan.ScanNode)
	for _, t := range s.ts {
		f, ok := t.(*filterTransform)
		if !ok {
			return false
		}
		if _, whole := c.zoneRun(s, f.node.Cond); !whole {
			return false
		}
	}
	return heap
}

// zoneRun returns the leading run, in evaluation order, of the
// conjuncts of cond, a filter over heap scan s, that compare a column
// with a number (plan.Compared) under the parameters' kinds, and
// whether the run is all of cond. Only a row every one of them holds
// for reaches the conjuncts after them, so a page they rule out holds
// no row the filter keeps and none a later conjunct could fail on; a
// comparison with a NULL or a string parameter, or a conjunct of any
// other kind, ends the run. A scan of any other kind has no run.
func (c *compiler) zoneRun(s *scanStep, cond sql.Expr) (run []plan.Comparison, whole bool) {
	scan, ok := s.node.(*plan.ScanNode)
	if !ok {
		return nil, false
	}
	for _, e := range plan.Conjuncts(cond) {
		cmp, ok := plan.Compared(scan.Table, scan.Alias, e)
		if _, num := cmp.Number(c.params); !ok || !num {
			return run, false
		}
		run = append(run, cmp)
	}
	return run, true
}

// bindProject binds a projection's items against its input and returns
// the output layout.
func (c *compiler) bindProject(v *plan.ProjectNode, scope *Scope) (*projectTransform, []kind, error) {
	t := &projectTransform{items: make([]projItem, len(v.Items)), node: v}
	out := make([]kind, 0, len(v.Items))
	for i, it := range v.Items {
		if _, ok := it.Expr.(*sql.Star); ok {
			t.items[i].star = true
			out = append(out, scope.kinds...)
			continue
		}
		b, err := bind(it.Expr, scope, c.funcs)
		if err != nil {
			return nil, nil, err
		}
		t.items[i].expr = b
		out = append(out, b.k)
	}
	return t, out, nil
}

// bindSortKeys binds a sort's keys against its input. A key that
// textually matches an input column (e.g. an aggregate or PREDICT
// output) sorts by that column directly instead of re-evaluating the
// expression.
func (c *compiler) bindSortKeys(v *plan.SortNode, scope *Scope) ([]sortKey, error) {
	keys := make([]sortKey, len(v.Keys))
	for ki, k := range v.Keys {
		keys[ki].desc = k.Desc
		if ci := slices.Index(scope.names, k.Expr.String()); ci >= 0 && scope.kinds[ci] != kNone {
			keys[ki].expr = bound{k: scope.kinds[ci], col: ci}
			continue
		}
		b, err := bind(k.Expr, scope, c.funcs)
		if err != nil {
			return nil, err
		}
		keys[ki].expr = b
	}
	return keys, nil
}

// bindSet binds an UPDATE's SET expressions against its input (nil for
// DELETE).
func (c *compiler) bindSet(v *plan.ModifyNode, scope *Scope) ([]bound, error) {
	set := make([]bound, len(v.Set))
	for i, a := range v.Set {
		b, err := bind(a.Expr, scope, c.funcs)
		if err != nil {
			return nil, fmt.Errorf("exec: UPDATE %s SET %s: %w", v.Table.Name, v.Table.Schema.Columns[a.Column].Name, err)
		}
		set[i] = b
	}
	return set, nil
}

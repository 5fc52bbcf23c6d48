package exec

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"aidb/internal/catalog"
	"aidb/internal/chaos"
	"aidb/internal/governance"
	"aidb/internal/plan"
	"aidb/internal/sql"
)

// SiteExecScan is the chaos injection site for table scans: Error rules
// fail the scan, Latency rules accrue virtual delay in the stats. The
// site is consulted once per scan morsel, in morsel order, on the
// consuming goroutine when the scan opens (before any row is read) —
// so the fault schedule depends only on table size and morsel
// configuration, never on worker interleaving or the Parallelism knob.
const SiteExecScan = "exec.scan"

// minIndexMorselWidth is the smallest key-space width, per subrange,
// worth splitting an index scan over.
const minIndexMorselWidth = 16

// Result is a materialized query result.
type Result struct {
	Columns []string
	Rows    []catalog.Row
	// Chunks is the number of pooled chunks charged through the run's
	// pipeline and PeakBytes its high-water byte mark — the per-query
	// figures the statement-statistics store aggregates.
	Chunks    int64
	PeakBytes int64
}

// Executor runs logical plans through a streaming batch-at-a-time
// pipeline: the plan compiles into a tree of BatchOperators (see
// stream.go) pulling pooled column chunks from their children, so only
// pipeline breakers (join build, aggregation, sort) ever materialize
// an input. One executor may serve concurrent Run calls (stats are
// atomic); scalar functions in Funcs must be safe for concurrent use
// whenever Parallelism != 1, because fused filter and projection
// stages evaluate expressions from multiple scan workers.
type Executor struct {
	Funcs FuncRegistry
	// Stats counts rows produced per operator type, for the monitoring
	// and performance-prediction experiments.
	Stats ExecStats
	// Chaos, when set, injects faults at SiteExecScan. Nil disables
	// injection.
	Chaos *chaos.Injector
	// Obs holds pre-resolved observability metrics; the zero value
	// disables them (see NewMetrics).
	Obs Metrics

	// Profile, when set, collects per-operator runtime profiles (actual
	// rows, wall time, chunk counts, morsel and worker counts) for the
	// next Run call — the EXPLAIN ANALYZE path. A profile instruments
	// exactly one Run; nil (the default) disables profiling at the cost
	// of one nil check per operator.
	Profile *QueryProfile

	// Mem, when set, is the per-query memory budget. The streaming
	// executor charges each chunk its exact vector bytes as it enters the
	// pipeline and refunds them when the chunk is recycled, so the budget
	// bounds *live* bytes (chunks in flight plus what breakers hold and
	// the result: sort buffers, join build sides, boxed rows) — peak, not
	// cumulative, materialization. Exceeding
	// it aborts the query with an error wrapping governance.ErrMemBudget.
	// Like Profile it applies to exactly one Run; nil (the default)
	// disables accounting.
	Mem *governance.MemBudget

	// Parallelism is the morsel worker budget: 0 selects
	// runtime.NumCPU() (auto), 1 pins the serial path (the comparison
	// baseline and the guard-degradation fallback), larger values set
	// an explicit worker count.
	Parallelism int
	// MorselSize is the rows-per-morsel for row-partitioned operators,
	// and thereby the target chunk size flowing through the pipeline;
	// 0 selects DefaultMorselRows.
	MorselSize int
	// ScanMorselPages is the heap-pages-per-morsel for table scans; 0
	// selects DefaultScanMorselPages.
	ScanMorselPages int

	// Params carries positional bindings for $N placeholders in the
	// plan's expressions (Params[0] binds $1). The executor injects them
	// into every evaluation scope it creates, which is how one cached
	// parameterized plan runs under different bindings: the plan stays
	// shared and immutable, the values live here, per Run.
	Params []catalog.Value

	// poolHook, when set, receives each RunContext's chunk pool after
	// the pipeline is torn down — the leak-detection seam for tests
	// (outstanding() must be zero on every exit path).
	poolHook func(*chunkPool)
}

// ExecStats counts executor activity. Counters are atomic: they are
// mutated on the hot path by concurrent morsel workers and concurrent
// Run calls, and read by monitors — read them with Load, or grab a
// plain-value copy via Snapshot.
type ExecStats struct {
	RowsScanned, RowsJoined, RowsOutput atomic.Uint64
	// InjectedDelayUnits accumulates virtual latency charged by chaos.
	InjectedDelayUnits atomic.Uint64
}

// ExecStatsSnapshot is a point-in-time plain-value copy of ExecStats.
type ExecStatsSnapshot struct {
	RowsScanned, RowsJoined, RowsOutput, InjectedDelayUnits uint64
}

// Snapshot copies the counters.
func (s *ExecStats) Snapshot() ExecStatsSnapshot {
	return ExecStatsSnapshot{
		RowsScanned:        s.RowsScanned.Load(),
		RowsJoined:         s.RowsJoined.Load(),
		RowsOutput:         s.RowsOutput.Load(),
		InjectedDelayUnits: s.InjectedDelayUnits.Load(),
	}
}

// New creates an executor with the given scalar functions (nil is fine).
func New(funcs FuncRegistry) *Executor {
	if funcs == nil {
		funcs = FuncRegistry{}
	}
	return &Executor{Funcs: funcs}
}

// Run materializes the plan's output without a cancellation context
// (equivalent to RunContext with context.Background()).
func (ex *Executor) Run(n plan.Node) (*Result, error) {
	return ex.RunContext(context.Background(), n)
}

// IsCancellation reports whether err is a context cancellation or
// deadline expiry (possibly wrapped).
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// RunContext streams the plan's output into a materialized Result,
// checking ctx cooperatively at every page and chunk boundary, so a
// cancelled query stops within about one chunk of work per worker and
// never returns a partial result. The returned error wraps ctx.Err() when the run was
// cancelled; cancel.requests counts such runs and cancel.latency_ns
// observes the cancellation-observed-to-return teardown latency. On
// any error every outstanding memory charge is refunded, so a shared
// budget sees only the bytes a query actually holds.
func (ex *Executor) RunContext(ctx context.Context, n plan.Node) (*Result, error) {
	ex.Obs.Queries.Inc()
	if done := ex.Obs.timeQuery(); done != nil {
		defer done()
	}
	rc := &runCtx{ctx: ctx, mem: ex.Mem}
	rc.pool.m = &ex.Obs
	rows, err := ex.execNode(rc, n)
	if peak := rc.peak.Load(); peak > 0 {
		ex.Obs.PeakBytes.Observe(float64(peak))
	}
	if ex.poolHook != nil {
		ex.poolHook(&rc.pool)
	}
	if err != nil {
		// The pipeline is already torn down (in-flight chunks were
		// recycled and refunded); what is left in live is rows breakers
		// held and the result so far — give them back.
		if live := rc.live.Load(); live > 0 {
			rc.mem.Refund(live)
			rc.live.Store(0)
		}
		ex.Obs.QueryErrors.Inc()
		if IsCancellation(err) {
			ex.Obs.CancelRequests.Inc()
			if at := rc.cancelAt.Load(); at != 0 {
				ex.Obs.CancelLatency.Observe(float64(time.Now().UnixNano() - at))
			}
		}
		return nil, err
	}
	ex.Stats.RowsOutput.Add(uint64(len(rows)))
	ex.Obs.RowsOutput.Add(uint64(len(rows)))
	return &Result{
		Columns:   n.Schema(),
		Rows:      rows,
		Chunks:    rc.chunks.Load(),
		PeakBytes: rc.peak.Load(),
	}, nil
}

// execNode compiles the plan into a streaming pipeline, drains it and
// boxes the output — the one place cells become catalog.Values. A nil rc
// runs uninstrumented with background-context semantics.
func (ex *Executor) execNode(rc *runCtx, n plan.Node) ([]catalog.Row, error) {
	if rc == nil {
		rc = &runCtx{}
	}
	if rc.pool.m == nil {
		rc.pool.m = &ex.Obs
	}
	op, kinds, err := ex.compile(rc, n)
	if err != nil {
		return nil, err
	}
	defer op.Close()
	if i := slices.Index(kinds, kNone); i >= 0 {
		return nil, fmt.Errorf("exec: result column %q is not decoded (planner bug)", n.Schema()[i])
	}
	// Box chunk by chunk, recycling each, and flatten once at the end.
	var parts [][]catalog.Row
	total := 0
	for {
		c, ok, nerr := op.Next(rc.ctx)
		if nerr != nil {
			return nil, nerr
		}
		if !ok {
			break
		}
		rows := c.box()
		rc.recycle(c)
		if err := rc.charge(int64(len(rows)) * (24 + 16*int64(len(kinds)))); err != nil {
			return nil, err
		}
		parts = append(parts, rows)
		total += len(rows)
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	rows := make([]catalog.Row, 0, total)
	for _, p := range parts {
		rows = append(rows, p...)
	}
	return rows, nil
}

// runCtx carries one Run's cancellation and resource state down the
// operator tree: the context, the memory budget, the chunk pool, and
// the live/peak byte accounting. It is per-run (never stored on the
// Executor), so one executor can serve concurrent RunContext calls
// with different contexts and budgets racing nothing.
type runCtx struct {
	ctx context.Context
	mem *governance.MemBudget
	// cancelAt is the unix-nano timestamp of the first observed
	// cancellation, feeding the cancel.latency_ns teardown histogram.
	cancelAt atomic.Int64

	// pool recycles chunks within this run; all operators share it.
	pool chunkPool
	// live is the run's currently charged bytes (chunks in flight, the
	// rows breakers hold, the result so far); peak is its high-water
	// mark, observed into the exec.peak_bytes histogram when the run
	// finishes.
	live atomic.Int64
	peak atomic.Int64
	// chunks counts chunks charged through chargeEmit — one per pooled
	// chunk that entered the pipeline, reported on the Result.
	chunks atomic.Int64
}

// err checks the run's context, stamping the first cancellation
// observation for latency accounting. Nil-receiver and nil-context
// safe (both mean "not cancellable").
func (rc *runCtx) err() error {
	if rc == nil || rc.ctx == nil {
		return nil
	}
	if err := rc.ctx.Err(); err != nil {
		rc.cancelAt.CompareAndSwap(0, time.Now().UnixNano())
		return err
	}
	return nil
}

// stamp records the cancellation-observation time when err is a context
// error surfaced by a callee (e.g. an interrupted chaos sleep) rather
// than by rc.err itself, then returns err unchanged.
func (rc *runCtx) stamp(err error) error {
	if rc != nil && IsCancellation(err) {
		rc.cancelAt.CompareAndSwap(0, time.Now().UnixNano())
	}
	return err
}

// chargeEmit bills a chunk entering the pipeline, by its exact vector
// footprint, against the run's live-byte accounting and memory budget.
// Idempotent per chunk (a chunk passing through several stages is
// charged once); the charge travels with the chunk until recycle
// refunds it.
func (rc *runCtx) chargeEmit(c *Chunk) error {
	if c == nil || c.Len() == 0 || c.charged != 0 {
		return nil
	}
	rc.chunks.Add(1)
	return rc.recharge(c)
}

// recharge bills what c has grown by since it was last charged (a
// projection's computed vectors, a breaker's gathered rows) and refunds
// what it shrank by.
func (rc *runCtx) recharge(c *Chunk) error {
	d := c.bytes() - c.charged
	c.charged += d
	if d < 0 {
		rc.live.Add(d)
		rc.mem.Refund(-d)
		return nil
	}
	return rc.charge(d)
}

// charge adds n bytes to the run's live accounting and memory budget.
func (rc *runCtx) charge(n int64) error {
	live := rc.live.Add(n)
	for {
		p := rc.peak.Load()
		if live <= p || rc.peak.CompareAndSwap(p, live) {
			break
		}
	}
	if rc.mem == nil {
		return nil
	}
	return rc.mem.Charge(n)
}

// recycle refunds a chunk's charge and returns it to the pool. Safe on
// nil, static and already-released chunks.
func (rc *runCtx) recycle(c *Chunk) {
	if c == nil {
		return
	}
	if c.charged > 0 && !c.released {
		rc.live.Add(-c.charged)
		rc.mem.Refund(c.charged)
		c.charged = 0
	}
	if c.src != nil {
		c.src.put(c)
	}
}

// aggKind is what one output of an aggregation computes.
type aggKind uint8

const (
	aggGroupKey aggKind = iota // the value of a grouping expression
	aggCount
	aggSum
	aggAvg
	aggMin
	aggMax
)

var aggKinds = map[string]aggKind{"COUNT": aggCount, "SUM": aggSum, "AVG": aggAvg, "MIN": aggMin, "MAX": aggMax}

// aggItem is one bound output of an aggregation.
type aggItem struct {
	kind aggKind
	arg  bound // what SUM, AVG, MIN or MAX aggregates
	key  int   // for aggGroupKey: which grouping expression
}

// boundAgg is an AggregateNode's grouping and output expressions, bound
// against its input.
type boundAgg struct {
	groupBy []bound
	items   []aggItem
}

// bindAggregate binds an aggregation and returns its output layout:
// grouping values keep their kind, COUNT is an integer, SUM and AVG
// floats, and MIN and MAX are boxed (over no rows they are NULL). An
// output that is not an aggregate call must repeat a grouping
// expression.
func (ex *Executor) bindAggregate(v *plan.AggregateNode, scope *Scope) (*boundAgg, []kind, error) {
	groupBy, err := bindList(v.GroupBy, scope, ex.Funcs)
	if err != nil {
		return nil, nil, err
	}
	a := &boundAgg{groupBy: groupBy, items: make([]aggItem, len(v.Items))}
	kinds := make([]kind, len(v.Items))
	for i, it := range v.Items {
		item := &a.items[i]
		fc, _ := it.Expr.(*sql.FuncCall)
		if fc != nil {
			item.kind = aggKinds[fc.Name] // aggGroupKey for a scalar function
		}
		switch {
		case item.kind == aggGroupKey:
			item.key = slices.IndexFunc(v.GroupBy, func(g sql.Expr) bool { return g.String() == it.Expr.String() })
			if item.key < 0 {
				return nil, nil, fmt.Errorf("exec: %s is neither aggregated nor grouped", it.Expr.String())
			}
			kinds[i] = groupBy[item.key].k
		case item.kind == aggCount:
			kinds[i] = kInt
			// COUNT counts rows whatever it is given; bind a named
			// argument anyway so a wrong name is an error here too.
			if len(fc.Args) == 1 {
				if _, star := fc.Args[0].(*sql.Star); star {
					continue
				}
			}
			if _, err := bindList(fc.Args, scope, ex.Funcs); err != nil {
				return nil, nil, err
			}
		case len(fc.Args) != 1:
			return nil, nil, fmt.Errorf("exec: %s takes one argument", fc.Name)
		default:
			if item.arg, err = bind(fc.Args[0], scope, ex.Funcs); err != nil {
				return nil, nil, err
			}
			kinds[i] = kFloat
			if item.kind == aggMin || item.kind == aggMax {
				kinds[i] = kAny
			}
		}
	}
	return a, kinds, nil
}

// aggPartial is the running state of an aggregation, a slot per group,
// groups numbered in first-seen order: chunks fold into it in arrival
// (morsel) order, so group output order is global first-occurrence
// order at any parallelism.
type aggPartial struct {
	keys   *keyMap // nil without GROUP BY: one group
	groups *Chunk  // each group's grouping values, a row per group
	rows   []int64 // per group: rows folded
	// per item: SUM and AVG's running sum, MIN and MAX's extreme so far
	// (typed like the argument) and whether there is one yet
	sums []([]float64)
	ext  []*vec
	has  [][]bool
	ids  []int32 // scratch: the group of each row of a chunk
}

func (a *boundAgg) newPartial() *aggPartial {
	p := &aggPartial{groups: &Chunk{}, sums: make([][]float64, len(a.items)), ext: make([]*vec, len(a.items)), has: make([][]bool, len(a.items))}
	kinds := make([]kind, len(a.groupBy))
	for i := range a.groupBy {
		kinds[i] = a.groupBy[i].k
	}
	p.groups.layout(kinds)
	if len(a.groupBy) > 0 {
		p.keys = newKeyMap(groupKeyMode(a.groupBy), false)
	}
	for i := range a.items {
		if k := a.items[i].kind; k == aggMin || k == aggMax {
			p.ext[i] = &vec{k: a.items[i].arg.k}
		}
	}
	return p
}

// fold folds the live rows of c into p. Nothing p keeps refers to c's
// vectors (strings refer only to immutable text), so c may be recycled
// as soon as fold returns.
func (a *boundAgg) fold(p *aggPartial, c *Chunk) error {
	sel := c.sel
	var err error
	if p.keys == nil {
		p.ids = extend(p.ids[:0], len(sel))
		p.grow(a, 1)
	} else {
		seen := p.keys.n
		if p.ids, err = p.keys.ids(c, sel, a.groupBy, true, p.ids); err != nil {
			return err
		}
		for i, r := range sel {
			if p.ids[i] == int32(p.groups.n) {
				if err := p.addGroup(a, c, r); err != nil {
					return err
				}
			}
		}
		if p.keys.n > seen {
			p.grow(a, int(p.keys.n))
		}
	}
	for _, g := range p.ids {
		p.rows[g]++
	}
	for ii := range a.items {
		it := &a.items[ii]
		switch it.kind {
		case aggSum, aggAvg:
			err = foldSum(p.sums[ii], p.ids, &it.arg, c, sel)
		case aggMin, aggMax:
			err = foldExt(p.ext[ii], p.has[ii], p.ids, it, c, sel)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// addGroup appends row r's grouping values as the next group.
func (p *aggPartial) addGroup(a *boundAgg, c *Chunk, r int32) error {
	for gi := range a.groupBy {
		if err := a.groupBy[gi].appendTo(p.groups.cols[gi], c, r); err != nil {
			return err
		}
	}
	p.groups.n++
	return nil
}

// grow gives every per-group slot room for n groups.
func (p *aggPartial) grow(a *boundAgg, n int) {
	p.rows = extend(p.rows, n)
	for i := range a.items {
		switch a.items[i].kind {
		case aggSum, aggAvg:
			p.sums[i] = extend(p.sums[i], n)
		case aggMin, aggMax:
			p.has[i] = extend(p.has[i], n)
			p.ext[i].extend(n)
		}
	}
}

// foldSum adds arg over the rows of sel into their groups' sums,
// converting integers to float64 row by row, as SUM always has.
func foldSum(sum []float64, ids []int32, arg *bound, c *Chunk, sel []int32) error {
	switch {
	case arg.col >= 0 && arg.k == kInt:
		cells := c.cols[arg.col].I
		for i, r := range sel {
			sum[ids[i]] += float64(cells[r])
		}
	case arg.col >= 0 && arg.k == kFloat:
		cells := c.cols[arg.col].F
		for i, r := range sel {
			sum[ids[i]] += cells[r]
		}
	case arg.k.numeric():
		for i, r := range sel {
			x, err := arg.float(c, r)
			if err != nil {
				return err
			}
			sum[ids[i]] += x
		}
	default:
		for i, r := range sel {
			v, err := arg.value(c, r)
			if err != nil {
				return err
			}
			x, err := toFloat(v)
			if err != nil {
				return err
			}
			sum[ids[i]] += x
		}
	}
	return nil
}

// foldExt folds the rows of sel into their groups' MIN or MAX.
func foldExt(ext *vec, has []bool, ids []int32, it *aggItem, c *Chunk, sel []int32) error {
	arg := &it.arg
	// wins reports whether a value comparing x with the extreme replaces it.
	wins := func(x int) bool { return x < 0 }
	if it.kind == aggMax {
		wins = func(x int) bool { return x > 0 }
	}
	for i, r := range sel {
		g := ids[i]
		switch arg.k {
		case kInt:
			v, err := arg.int(c, r)
			if err != nil {
				return err
			}
			if !has[g] || wins(cmpOrd(v, ext.I[g])) {
				ext.I[g] = v
			}
		case kFloat:
			v, err := arg.float(c, r)
			if err != nil {
				return err
			}
			if !has[g] || wins(cmpOrd(v, ext.F[g])) {
				ext.F[g] = v
			}
		case kString:
			if v := arg.str(c, r); !has[g] || wins(strings.Compare(v, ext.S[g])) {
				ext.S[g] = v
			}
		default:
			v, err := arg.value(c, r)
			if err != nil {
				return err
			}
			if !has[g] {
				ext.V[g] = v
				break
			}
			x, err := compare(v, ext.V[g])
			if err != nil {
				return err
			}
			if wins(x) {
				ext.V[g] = v
			}
		}
		has[g] = true
	}
	return nil
}

// finalize renders the partial as a static chunk, a row per group in
// first-seen order.
func (a *boundAgg) finalize(p *aggPartial) *Chunk {
	if p.keys == nil && len(p.rows) == 0 {
		p.grow(a, 1) // aggregates over an empty input still produce one row
	}
	n := len(p.rows)
	out := &Chunk{n: n}
	for i := range a.items {
		it := &a.items[i]
		var v *vec
		switch it.kind {
		case aggGroupKey:
			v = p.groups.cols[it.key]
		case aggCount:
			v = &vec{k: kInt}
			v.I = p.rows
		case aggSum:
			v = &vec{k: kFloat}
			v.F = p.sums[i]
		case aggAvg:
			v = &vec{k: kFloat}
			v.F = p.sums[i]
			for g := range v.F {
				if p.rows[g] > 0 {
					v.F[g] /= float64(p.rows[g])
				}
			}
		default:
			v = &vec{k: kAny, V: make([]catalog.Value, n)}
			for g := range v.V {
				if p.has[i][g] {
					v.V[g] = p.ext[i].value(int32(g))
				}
			}
		}
		out.cols = append(out.cols, v)
	}
	out.selectAll()
	return out
}

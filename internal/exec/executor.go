package exec

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
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
// so the fault schedule depends only on the pages the scan reads and
// the morsel configuration, never on worker interleaving or the
// Parallelism knob.
const SiteExecScan = "exec.scan"

// minIndexMorselWidth is the smallest key-space width, per subrange,
// worth splitting an index scan over.
const minIndexMorselWidth = 16

// Result is a materialized query result.
type Result struct {
	Columns []string
	Rows    []catalog.Row
	// Chunks is the number of pooled chunks charged through the run's
	// pipeline, PeakBytes its high-water byte mark and ChaosFires the
	// injected latency faults its own scans absorbed — the per-query
	// figures the statement-statistics store aggregates.
	Chunks     int64
	PeakBytes  int64
	ChaosFires int64
}

// Executor runs logical plans through a streaming batch-at-a-time
// pipeline: the plan compiles into a program (see program.go) that each
// run opens as a tree of BatchOperators (see stream.go) pulling pooled
// column chunks from their children, so only pipeline breakers (join
// build, aggregation, sort) ever materialize an input. One executor may
// serve concurrent Run calls (stats are atomic); scalar functions in
// Funcs must be safe for concurrent use whenever Parallelism != 1,
// because fused filter and projection stages evaluate expressions from
// multiple scan workers. A run's parameters, budget, profile,
// parallelism and fault injector come in its RunArgs (RunCompiled), so
// one executor serves runs that differ in them; Run and RunContext run
// with Params and Parallelism and nothing else.
type Executor struct {
	Funcs FuncRegistry
	// VectorFuncs holds chunk forms of functions in Funcs, under the same
	// names: a call bound to one runs once per chunk instead of once per
	// row, and a call compared with a number may select rows without a
	// result vector. Like Funcs they must be safe for concurrent use.
	VectorFuncs map[string]VectorFunc
	// Stats counts rows produced per operator type, for the monitoring
	// and performance-prediction experiments.
	Stats ExecStats
	// Obs holds pre-resolved observability metrics; the zero value
	// disables them (see NewMetrics).
	Obs Metrics

	// Parallelism is the morsel worker budget of Run and RunContext
	// (RunCompiled takes its run's own in RunArgs): 0 = auto, up to
	// GOMAXPROCS (NumCPU unless set) workers from idle cores only, so a
	// scan runs serially while other statements occupy the machine; 1
	// pins the serial path (the comparison baseline and the
	// guard-degradation fallback); larger values set an explicit worker
	// count.
	Parallelism int
	// MorselSize is the rows-per-morsel for row-partitioned operators,
	// and thereby the target chunk size flowing through the pipeline;
	// 0 selects DefaultMorselRows.
	MorselSize int
	// ScanMorselPages is the heap-pages-per-morsel for table scans; 0
	// takes as many of the table's pages as hold about MorselSize rows,
	// by its live rows per page when the scan opens.
	ScanMorselPages int

	// Params carries the positional bindings of Run and RunContext for
	// $N placeholders in the plan's expressions (Params[0] binds $1);
	// RunCompiled takes its run's own in RunArgs. A program binds each $N
	// to its slot and its value's kind and reads the value of the run,
	// which is how one compiled program runs under different bindings:
	// the plan and the program stay shared and immutable, the values
	// live here, per Run.
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

// RunArgs is what one run brings to an executor beside its plan.
type RunArgs struct {
	// Params binds the run's $N, with the meaning of Executor.Params.
	Params []catalog.Value
	// Mem, when set, is the run's memory budget. The streaming executor
	// charges each chunk its exact vector bytes as it enters the pipeline
	// and refunds them when the chunk is recycled, so the budget bounds
	// *live* bytes (chunks in flight plus what breakers hold and the
	// result: sort buffers, join build sides, boxed rows) — peak, not
	// cumulative, materialization. Exceeding it aborts the run with an
	// error wrapping governance.ErrMemBudget. Nil disables accounting.
	Mem *governance.MemBudget
	// Profile, when set, collects per-operator runtime profiles (actual
	// rows, wall time, chunk counts, morsel and worker counts) for this
	// run — the EXPLAIN ANALYZE path. Nil disables profiling at the cost
	// of one nil check per operator.
	Profile *QueryProfile
	// Parallelism has the meaning of Executor.Parallelism.
	Parallelism int
	// Chaos, when set, injects faults at SiteExecScan. Nil disables
	// injection.
	Chaos *chaos.Injector
	// Start, when set, is when the caller began the run, read once for
	// its own timing too; the run's latency counts from it. Zero reads
	// the clock.
	Start time.Time
}

// RunContext compiles the plan and streams its output into a
// materialized Result, checking ctx cooperatively before every decode
// call and at every chunk boundary, so a cancelled query stops within
// about one chunk of work per worker and never returns a partial result.
// The returned error wraps ctx.Err() when the run was cancelled;
// cancel.requests counts such runs and cancel.latency_ns observes the
// cancellation-observed-to-return teardown latency. On any error every
// outstanding memory charge is refunded, so a shared budget sees only
// the bytes a query actually holds. A plan.BoundNode runs its input with
// its own parameters instead of Params.
func (ex *Executor) RunContext(ctx context.Context, n plan.Node) (*Result, error) {
	return ex.RunCompiled(ctx, n, nil, RunArgs{Params: ex.Params, Parallelism: ex.Parallelism})
}

// RunCompiled is RunContext for a plan whose program keep holds between
// runs: a run whose parameters have the kinds keep's program was
// compiled for opens it and compiles nothing. Any other run compiles n
// for itself, and keeps its program in keep only when keep is empty, so
// nothing replaces a kept program; a compile error is never kept. A
// profiled run and a plan.BoundNode compile for themselves and keep
// nothing. keep may be nil. The run binds, budgets, profiles,
// parallelizes and injects faults as a says, whatever the executor's
// Params and Parallelism say.
func (ex *Executor) RunCompiled(ctx context.Context, n plan.Node, keep *Compiled, a RunArgs) (*Result, error) {
	if b, ok := n.(*plan.BoundNode); ok {
		n, a.Params, keep = b.Input, b.Params, nil
	}
	if a.Profile != nil {
		keep = nil
	}
	cores.Add(1)
	defer cores.Add(-1)
	ex.Obs.Queries.Inc()
	if ex.Obs.QueryLatency != nil {
		if a.Start.IsZero() {
			a.Start = time.Now()
		}
		defer func() { ex.Obs.QueryLatency.Observe(float64(time.Since(a.Start))) }()
	}
	var p *program
	if keep != nil {
		p = keep.p.Load()
	}
	var err error
	if p == nil || !p.fits(a.Params) {
		if p, err = ex.compile(n, a.Params); err == nil && keep != nil {
			keep.p.CompareAndSwap(nil, p)
		}
	}
	rc := ex.newRun(ctx, a)
	defer rc.release()
	var rows []catalog.Row
	if err == nil {
		rows, err = ex.execNode(rc, p)
	}
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
		Columns:    p.columns,
		Rows:       rows,
		Chunks:     rc.chunks.Load(),
		PeakBytes:  rc.peak.Load(),
		ChaosFires: rc.chaosFires.Load(),
	}, nil
}

// execNode opens the program on rc, drains it and boxes the output — the
// one place cells become catalog.Values.
func (ex *Executor) execNode(rc *runCtx, p *program) ([]catalog.Row, error) {
	op := p.root.open(rc)
	defer op.Close()
	// Box chunk by chunk, recycling each, and flatten once at the end.
	var first []catalog.Row
	var more [][]catalog.Row
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
		if err := rc.charge(int64(len(rows)) * (24 + 16*int64(len(p.kinds)))); err != nil {
			return nil, err
		}
		if first == nil {
			first = rows
		} else {
			more = append(more, rows)
		}
		total += len(rows)
	}
	if more == nil {
		return first, nil
	}
	rows := make([]catalog.Row, 0, total)
	rows = append(rows, first...)
	for _, part := range more {
		rows = append(rows, part...)
	}
	return rows, nil
}

// runCtx carries one Run's cancellation and resource state down the
// operator tree: the executor whose settings the operators read at
// open, the context, the memory budget, the profile, the parameter
// values, the chunk pool, and the live/peak byte accounting. Each run
// has its own (never stored on the Executor), so one executor can serve
// concurrent RunContext calls with different contexts and budgets
// racing nothing. A finished run's state, with its pooled chunks and
// its streams and their buffers' capacity, serves a later run (runs).
type runCtx struct {
	ex     *Executor
	ctx    context.Context
	mem    *governance.MemBudget
	prof   *QueryProfile
	params []catalog.Value
	par    int // the run's Parallelism
	chaos  *chaos.Injector
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
	// chaosFires counts the latency faults this run's scans drew at
	// SiteExecScan, reported on the Result.
	chaosFires atomic.Int64

	// streams are the morsel streams runs on this state opened, the
	// first used of them by this one.
	streams []*morselStream
	used    int
}

// runs holds the state of finished runs for later ones, so a run starts
// with chunks, vectors and streams earlier runs have grown: at most
// maxFreeRuns of them, about as many as runs at once. It is one list
// under a mutex, not a sync.Pool, which keeps what a goroutine puts back
// on the processor it then ran on: a goroutine moved to another
// processor found nothing there and started from fresh state, so a run
// that allocated nothing the time before allocated again.
var runs struct {
	mu   sync.Mutex
	free []*runCtx
}

const maxFreeRuns = 16

// newRun returns run state for one run of ex with arguments a.
func (ex *Executor) newRun(ctx context.Context, a RunArgs) *runCtx {
	var rc *runCtx
	runs.mu.Lock()
	if n := len(runs.free); n > 0 {
		rc = runs.free[n-1]
		runs.free[n-1] = nil
		runs.free = runs.free[:n-1]
	}
	runs.mu.Unlock()
	if rc == nil {
		rc = new(runCtx)
	}
	rc.ex, rc.ctx, rc.mem, rc.prof, rc.params = ex, ctx, a.Mem, a.Profile, a.Params
	rc.par, rc.chaos = a.Parallelism, a.Chaos
	rc.pool.m = &ex.Obs
	return rc
}

// release resets the state of a torn-down run in full — accounting,
// cancellation stamp, chaos fires, the pool's get/put balance, every
// reference into the run — and gives it back for a later run.
func (rc *runCtx) release() {
	for _, s := range rc.streams[:rc.used] {
		s.clear()
	}
	rc.used = 0
	rc.ex, rc.ctx, rc.mem, rc.prof, rc.params, rc.chaos, rc.pool.m = nil, nil, nil, nil, nil, nil, nil
	// No goroutine of the run is left, so the counters are reset by plain
	// stores, not by atomic ones that each wait for the writes before.
	rc.cancelAt, rc.live, rc.peak, rc.chunks, rc.chaosFires = atomic.Int64{}, atomic.Int64{}, atomic.Int64{}, atomic.Int64{}, atomic.Int64{}
	rc.pool.gets, rc.pool.puts = atomic.Int64{}, atomic.Int64{}
	runs.mu.Lock()
	if len(runs.free) < maxFreeRuns {
		runs.free = append(runs.free, rc)
	}
	runs.mu.Unlock()
}

// stream returns a morsel stream of this run for src, one an earlier
// run left when there is one.
func (rc *runCtx) stream(src *scanStep) *morselStream {
	if rc.used == len(rc.streams) {
		s := &morselStream{}
		s.push = s.bufferChunk
		rc.streams = append(rc.streams, s)
	}
	s := rc.streams[rc.used]
	rc.used++
	s.rc, s.src, s.prof = rc, src, rc.prof.of(src.node)
	return s
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
func (c *compiler) bindAggregate(v *plan.AggregateNode, scope *Scope) (*boundAgg, []kind, error) {
	groupBy, err := bindList(v.GroupBy, scope, c.funcs)
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
			if _, err := bindList(fc.Args, scope, c.funcs); err != nil {
				return nil, nil, err
			}
		case len(fc.Args) != 1:
			return nil, nil, fmt.Errorf("exec: %s takes one argument", fc.Name)
		default:
			if item.arg, err = bind(fc.Args[0], scope, c.funcs); err != nil {
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
	if p.keys == nil {
		return a.foldOne(p, c, sel)
	}
	seen := p.keys.n
	var err error
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

// foldOne is fold without GROUP BY, into the one group: COUNT adds the
// selection's length and SUM and AVG add their cells in row order into
// the one sum, with no group id per row. MIN and MAX fold as grouped,
// every row's id 0.
func (a *boundAgg) foldOne(p *aggPartial, c *Chunk, sel []int32) error {
	p.grow(a, 1)
	p.rows[0] += int64(len(sel))
	p.ids = p.ids[:0]
	for ii := range a.items {
		it := &a.items[ii]
		var err error
		switch it.kind {
		case aggSum, aggAvg:
			p.sums[ii][0], err = sumCells(p.sums[ii][0], &it.arg, c, sel)
		case aggMin, aggMax:
			if len(p.ids) == 0 {
				p.ids = extend(p.ids, len(sel)) // zeros
			}
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
	default:
		for i, r := range sel {
			x, err := sumArg(arg, c, r)
			if err != nil {
				return err
			}
			sum[ids[i]] += x
		}
	}
	return nil
}

// sumCells is foldSum for one group: s plus arg at each row of sel, in
// row order.
func sumCells(s float64, arg *bound, c *Chunk, sel []int32) (float64, error) {
	switch {
	case arg.col >= 0 && arg.k == kInt:
		cells := c.cols[arg.col].I
		for _, r := range sel {
			s += float64(cells[r])
		}
	case arg.col >= 0 && arg.k == kFloat:
		cells := c.cols[arg.col].F
		for _, r := range sel {
			s += cells[r]
		}
	default:
		for _, r := range sel {
			x, err := sumArg(arg, c, r)
			if err != nil {
				return s, err
			}
			s += x
		}
	}
	return s, nil
}

// sumArg is arg at row r as SUM adds it.
func sumArg(arg *bound, c *Chunk, r int32) (float64, error) {
	if arg.k.numeric() {
		return arg.float(c, r)
	}
	v, err := arg.value(c, r)
	if err != nil {
		return 0, err
	}
	return toFloat(v)
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

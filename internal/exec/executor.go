package exec

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
// stream.go) pulling pooled row chunks from their children, so only
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
	// executor charges each chunk as it enters the pipeline and refunds
	// it when the chunk is recycled, so the budget bounds *live* bytes
	// (chunks in flight plus escaped rows: results, sort buffers, join
	// build tables) — peak, not cumulative, materialization. Exceeding
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
// checking ctx cooperatively at every chunk boundary (and every
// ctxCheckRows rows inside row loops), so a cancelled query stops
// within about one morsel of work per worker and never returns a
// partial result. The returned error wraps ctx.Err() when the run was
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
		// recycled and refunded); what is left in live is escaped rows
		// the query no longer returns — give them back.
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

// execNode compiles the plan into a streaming pipeline and drains it,
// escaping every chunk whose rows end up in the result. A nil rc runs
// uninstrumented with background-context semantics.
func (ex *Executor) execNode(rc *runCtx, n plan.Node) ([]catalog.Row, error) {
	if rc == nil {
		rc = &runCtx{}
	}
	if rc.pool.m == nil {
		rc.pool.m = &ex.Obs
	}
	op, err := ex.compile(rc, n)
	if err != nil {
		return nil, err
	}
	defer op.Close()
	// Collect output chunks and flatten once at the end: one exact
	// result allocation instead of append-growth churn proportional to
	// the result size.
	var chunks [][]catalog.Row
	total := 0
	for {
		c, ok, nerr := op.Next(rc.ctx)
		if nerr != nil {
			return nil, nerr
		}
		if !ok {
			break
		}
		kept, kerr := rc.keep(c)
		if kerr != nil {
			return nil, kerr
		}
		chunks = append(chunks, kept)
		total += len(kept)
	}
	rows := make([]catalog.Row, 0, total)
	for _, c := range chunks {
		rows = append(rows, c...)
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
	// live is the run's currently charged bytes (chunks in flight plus
	// escaped rows); peak is its high-water mark, observed into the
	// exec.peak_bytes histogram when the run finishes.
	live atomic.Int64
	peak atomic.Int64
	// chunks counts chunks charged through chargeEmit — one per pooled
	// chunk that entered the pipeline, reported on the Result.
	chunks atomic.Int64
}

// ctxCheckRows is the cooperative-cancellation stride inside row loops
// (scan decode, fused filter/project stages, join probe): one context
// check per this many rows keeps cancellation latency at sub-morsel
// granularity for about one predictable branch per row of overhead.
const ctxCheckRows = 1024

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

// chargeEmit bills a chunk entering the pipeline against the run's
// live-byte accounting and memory budget. Idempotent per chunk (a
// chunk passing through several stages is charged once); the charge
// travels with the chunk until recycle refunds it.
func (rc *runCtx) chargeEmit(c *Chunk) error {
	if c == nil || len(c.rows) == 0 || c.charged != 0 {
		return nil
	}
	c.charged = approxRowsBytes(c.rows)
	rc.chunks.Add(1)
	return rc.charge(c.charged)
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

// escape removes a chunk from the pool without refunding it: its rows
// outlive the pipeline (result rows, sort buffers, join build tables),
// so its bytes stay live until the run ends.
func (rc *runCtx) escape(c *Chunk) {
	if c == nil || c.src == nil {
		return
	}
	c.src.escape(c)
}

// keep hands over c's rows to a consumer that holds them past the
// pipeline (result, sort buffer, join build table, pending DML). A full
// chunk simply escapes. A chunk a fused filter left nearly empty would
// pin its whole arena for a few rows and cost the pool a fresh one, so
// its survivors are copied out, charged for what they are, and the chunk
// goes back to the pool.
func (rc *runCtx) keep(c *Chunk) ([]catalog.Row, error) {
	kept := 0
	for _, r := range c.rows {
		kept += len(r)
	}
	if c.src == nil || cap(c.vals) <= sparseChunkFactor*kept {
		rc.escape(c)
		return c.rows, nil
	}
	vals := make([]catalog.Value, kept)
	rows := make([]catalog.Row, len(c.rows))
	for i, r := range c.rows {
		n := copy(vals, r)
		rows[i], vals = vals[:n:n], vals[n:]
	}
	rc.recycle(c)
	return rows, rc.charge(approxRowsBytes(rows))
}

// sparseChunkFactor is how many times larger than its surviving rows a
// chunk's arena must be before keep copies the rows out instead.
const sparseChunkFactor = 4

// approxRowsBytes estimates the materialized size of rows: slice
// headers plus a boxed-word cost per value plus string payloads. The
// point is a stable, cheap proxy for allocation appetite, not exact
// accounting.
func approxRowsBytes(rows []catalog.Row) int64 {
	var n int64
	for _, r := range rows {
		n += 24 + 16*int64(len(r))
		for _, v := range r {
			if s, ok := v.(string); ok {
				n += int64(len(s))
			}
		}
	}
	return n
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

// aggCell is one output's running state within one group: count is the
// rows folded so far, sum serves SUM and AVG, ext is the running MIN or
// MAX.
type aggCell struct {
	count int64
	sum   float64
	ext   catalog.Value
}

// aggState is one group: its key and one cell per output.
type aggState struct {
	groupKey catalog.Row
	cells    []aggCell
}

// bindAggregate binds an aggregation. An output that is not an aggregate
// call must repeat a grouping expression.
func (ex *Executor) bindAggregate(v *plan.AggregateNode) (*boundAgg, error) {
	scope := ex.newScope(v.Input.Schema())
	groupBy, err := bindList(v.GroupBy, scope, ex.Funcs)
	if err != nil {
		return nil, err
	}
	a := &boundAgg{groupBy: groupBy, items: make([]aggItem, len(v.Items))}
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
				return nil, fmt.Errorf("exec: %s is neither aggregated nor grouped", it.Expr.String())
			}
		case item.kind == aggCount:
			// COUNT counts rows whatever it is given; bind a named
			// argument anyway so a wrong name is an error here too.
			if len(fc.Args) == 1 {
				if _, star := fc.Args[0].(*sql.Star); star {
					continue
				}
			}
			if _, err := bindList(fc.Args, scope, ex.Funcs); err != nil {
				return nil, err
			}
		case len(fc.Args) != 1:
			return nil, fmt.Errorf("exec: %s takes one argument", fc.Name)
		default:
			if item.arg, err = bind(fc.Args[0], scope, ex.Funcs); err != nil {
				return nil, err
			}
		}
	}
	return a, nil
}

// fold folds one batch of rows into part. Rows are consumed: every
// value the state keeps (group keys, min/max) is an evaluated Value,
// never a slice into the caller's chunk, so the chunk may be recycled
// as soon as this returns.
func (a *boundAgg) fold(rc *runCtx, part *aggPartial, rows []catalog.Row) error {
	keyBuf := make([]byte, 0, 64)
	key := make(catalog.Row, len(a.groupBy))
	for i, r := range rows {
		if i%ctxCheckRows == 0 {
			if err := rc.err(); err != nil {
				return err
			}
		}
		for gi := range a.groupBy {
			v, err := a.groupBy[gi].eval(r)
			if err != nil {
				return err
			}
			key[gi] = v
		}
		keyBuf = appendRowKey(keyBuf[:0], key)
		st, ok := part.groups[string(keyBuf)]
		if !ok {
			st = &aggState{groupKey: slices.Clone(key), cells: make([]aggCell, len(a.items))}
			part.groups[string(keyBuf)] = st
			part.order = append(part.order, st)
		}
		for ii := range a.items {
			it, cell := &a.items[ii], &st.cells[ii]
			if it.kind == aggGroupKey {
				continue
			}
			cell.count++
			if it.kind == aggCount {
				continue
			}
			v, err := it.arg.eval(r)
			if err != nil {
				return err
			}
			if it.kind == aggSum || it.kind == aggAvg {
				f, err := toFloat(v)
				if err != nil {
					return err
				}
				cell.sum += f
				continue
			}
			if cell.count == 1 {
				cell.ext = v
				continue
			}
			c, err := compare(v, cell.ext)
			if err != nil {
				return err
			}
			if (it.kind == aggMin && c < 0) || (it.kind == aggMax && c > 0) {
				cell.ext = v
			}
		}
	}
	return nil
}

// finalize renders the folded partial into output rows, groups in
// first-seen order.
func (a *boundAgg) finalize(part *aggPartial) []catalog.Row {
	if len(a.groupBy) == 0 && len(part.order) == 0 {
		// Aggregates over an empty input still produce one row.
		part.order = append(part.order, &aggState{cells: make([]aggCell, len(a.items))})
	}
	out := make([]catalog.Row, len(part.order))
	for gi, st := range part.order {
		row := make(catalog.Row, len(a.items))
		for i := range a.items {
			it, cell := &a.items[i], &st.cells[i]
			switch it.kind {
			case aggGroupKey:
				row[i] = st.groupKey[it.key]
			case aggCount:
				row[i] = cell.count
			case aggSum:
				row[i] = cell.sum
			case aggAvg:
				row[i] = float64(0)
				if cell.count > 0 {
					row[i] = cell.sum / float64(cell.count)
				}
			default:
				row[i] = cell.ext
			}
		}
		out[gi] = row
	}
	return out
}

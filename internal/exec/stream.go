package exec

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aidb/internal/catalog"
	"aidb/internal/plan"
	"aidb/internal/sql"
	"aidb/internal/storage"
)

// This file is the streaming heart of the executor: a compiled plan is
// a tree of BatchOperators pulling pooled Chunks from their children.
// Rows flow scan → filter → project → limit one batch at a time, so a
// query's live memory is bounded by chunks in flight — not by the size
// of every intermediate result, as in the old materialize-and-concat
// design. Filters and projections compile to transforms fused into
// their source's morsel loop (they run inside scan workers); pipeline
// breakers (join build, aggregation, sort) drain their input and then
// stream or emit their output.

// BatchOperator is the pull-based iterator every compiled operator
// implements. Next returns the next non-empty chunk, ok=false on
// exhaustion; the caller owns the returned chunk and must recycle or
// escape it. Close tears the operator down (idempotent, safe after an
// error) and recycles any chunks still in flight.
type BatchOperator interface {
	Next(ctx context.Context) (*Chunk, bool, error)
	Close()
}

// errStreamClosed tells a producer its consumer has gone away (early
// LIMIT close, teardown). It never escapes the operator tree.
var errStreamClosed = errors.New("exec: stream closed")

// emitFn delivers one finished chunk downstream. Parallel sources
// block in it handing the chunk to the consumer; it returns
// errStreamClosed when the stream is being torn down.
type emitFn func(*Chunk) error

// ---------------------------------------------------------------------
// Transforms: fused row-wise stages (filter, project).

// transform is one fused pipeline stage. apply takes ownership of c
// and returns the surviving chunk (possibly c itself, compacted);
// every chunk it consumes or abandons on error is recycled by apply
// itself. Transforms run concurrently from morsel workers and must
// only touch shared state that is read-only or atomic.
type transform interface {
	apply(c *Chunk) (*Chunk, error)
}

// fusable is implemented by operators that can absorb a downstream
// row-wise transform into their own loop (sources and transformOp).
type fusable interface {
	fuse(t transform)
}

// fused pushes t into in when in can absorb it, else wraps in.
func fused(rc *runCtx, in BatchOperator, t transform) BatchOperator {
	if f, ok := in.(fusable); ok {
		f.fuse(t)
		return in
	}
	return &transformOp{rc: rc, in: in, ts: []transform{t}}
}

// applyTransforms runs c through ts in order. A chunk filtered down to
// zero rows is recycled and reported as nil (no emission).
func applyTransforms(rc *runCtx, ts []transform, c *Chunk) (*Chunk, error) {
	for _, t := range ts {
		out, err := t.apply(c)
		if err != nil {
			return nil, err
		}
		c = out
		if c.Len() == 0 {
			rc.recycle(c)
			return nil, nil
		}
	}
	return c, nil
}

// filterTransform drops rows failing cond, compacting the chunk in
// place — the chunk is exclusively owned, so no copy is needed.
type filterTransform struct {
	rc   *runCtx
	cond pred
	prof *OpProfile
}

func (t *filterTransform) apply(c *Chunk) (*Chunk, error) {
	if err := t.rc.err(); err != nil {
		t.rc.recycle(c)
		return nil, err
	}
	var start time.Time
	if t.prof != nil {
		start = time.Now()
	}
	out := c.rows[:0]
	for i, r := range c.rows {
		if i > 0 && i%ctxCheckRows == 0 {
			if err := t.rc.err(); err != nil {
				t.rc.recycle(c)
				return nil, err
			}
		}
		ok, err := t.cond(r)
		if err != nil {
			t.rc.recycle(c)
			return nil, err
		}
		if ok {
			out = append(out, r)
		}
	}
	c.rows = out
	if t.prof != nil {
		t.prof.wallNs.Add(time.Since(start).Nanoseconds())
		t.prof.actualRows.Add(int64(len(out)))
		t.prof.chunks.Add(1)
	}
	return c, nil
}

// projectTransform evaluates the projection items into a fresh pooled
// chunk (rows carved from its arena) and recycles the input, so a
// scan→project pipeline cycles two pooled chunks instead of
// allocating one slice per output row.
type projectTransform struct {
	rc    *runCtx
	items []projItem
	width int // output row width, every `*` expanded
	prof  *OpProfile
}

// projItem is one bound projection item; star copies the whole input row.
type projItem struct {
	star bool
	expr bound
}

// bindProject binds a projection's items against its input schema.
func (ex *Executor) bindProject(rc *runCtx, v *plan.ProjectNode) (*projectTransform, error) {
	names := v.Input.Schema()
	scope := ex.newScope(names)
	t := &projectTransform{rc: rc, items: make([]projItem, len(v.Items)), prof: ex.Profile.of(v)}
	for i, it := range v.Items {
		if _, ok := it.Expr.(*sql.Star); ok {
			t.items[i].star = true
			t.width += len(names)
			continue
		}
		b, err := bind(it.Expr, scope, ex.Funcs)
		if err != nil {
			return nil, err
		}
		t.items[i].expr = b
		t.width++
	}
	return t, nil
}

func (t *projectTransform) apply(c *Chunk) (*Chunk, error) {
	rc := t.rc
	if err := rc.err(); err != nil {
		rc.recycle(c)
		return nil, err
	}
	var start time.Time
	if t.prof != nil {
		start = time.Now()
	}
	out := rc.pool.get()
	out.reserve(len(c.rows), t.width)
	for i, r := range c.rows {
		if i > 0 && i%ctxCheckRows == 0 {
			if err := rc.err(); err != nil {
				rc.recycle(out)
				rc.recycle(c)
				return nil, err
			}
		}
		row := out.newRow(t.width)
		j := 0
		for k := range t.items {
			it := &t.items[k]
			if it.star {
				j += copy(row[j:], r)
				continue
			}
			v, err := it.expr.eval(r)
			if err != nil {
				rc.recycle(out)
				rc.recycle(c)
				return nil, err
			}
			row[j] = v
			j++
		}
		out.rows = append(out.rows, row)
	}
	rc.recycle(c)
	if err := rc.chargeEmit(out); err != nil {
		rc.recycle(out)
		return nil, err
	}
	if t.prof != nil {
		t.prof.wallNs.Add(time.Since(start).Nanoseconds())
		t.prof.actualRows.Add(int64(len(out.rows)))
		t.prof.chunks.Add(1)
		t.prof.notePeak(out.charged)
	}
	return out, nil
}

// transformOp applies fused transforms above a pipeline breaker (e.g.
// a projection over a join): the breaker's output chunks pass through
// the same transform chain the sources use.
type transformOp struct {
	rc *runCtx
	in BatchOperator
	ts []transform
}

func (t *transformOp) fuse(tr transform) { t.ts = append(t.ts, tr) }

func (t *transformOp) Next(ctx context.Context) (*Chunk, bool, error) {
	for {
		c, ok, err := t.in.Next(ctx)
		if err != nil || !ok {
			return nil, false, err
		}
		out, err := applyTransforms(t.rc, t.ts, c)
		if err != nil {
			return nil, false, err
		}
		if out == nil {
			continue
		}
		return out, true, nil
	}
}

func (t *transformOp) Close() { t.in.Close() }

// ---------------------------------------------------------------------
// Sources: morsel-parallel scan pipelines.

// chunkSink accumulates source rows into pooled chunks and flushes a
// chunk downstream every `limit` rows: rows are counted as scanned,
// charged against the memory budget, run through the fused transforms,
// and emitted. One sink per produce call, owned by one worker.
type chunkSink struct {
	s     *morselStream
	emit  emitFn
	cur   *Chunk
	limit int
	err   error // first failure seen by visitor
}

// row carves the next arena row for the decoder to fill.
func (k *chunkSink) row(width int) catalog.Row {
	if k.cur == nil {
		k.cur = k.s.rc.pool.get()
		k.cur.reserve(k.limit, width)
	}
	return k.cur.newRow(width)
}

// push appends a finished row, flushing at the chunk boundary.
func (k *chunkSink) push(r catalog.Row) error {
	if k.cur == nil {
		k.cur = k.s.rc.pool.get()
	}
	k.cur.rows = append(k.cur.rows, r)
	if len(k.cur.rows) >= k.limit {
		return k.flush()
	}
	return nil
}

// flush accounts, transforms and emits the current chunk.
func (k *chunkSink) flush() error {
	c := k.cur
	if c == nil || len(c.rows) == 0 {
		return nil
	}
	k.cur = nil
	s := k.s
	n := uint64(len(c.rows))
	s.ex.Stats.RowsScanned.Add(n)
	s.ex.Obs.RowsScanned.Add(n)
	if s.prof != nil {
		s.prof.actualRows.Add(int64(n))
		s.prof.chunks.Add(1)
	}
	if err := s.rc.chargeEmit(c); err != nil {
		s.rc.recycle(c)
		return err
	}
	if s.prof != nil {
		s.prof.notePeak(c.charged)
	}
	out, err := applyTransforms(s.rc, s.ts, c)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	s.ex.Obs.ChunksEmitted.Inc()
	return k.emit(out)
}

// abandon recycles a partially filled chunk on the error path.
func (k *chunkSink) abandon() {
	if k.cur != nil {
		k.s.rc.recycle(k.cur)
		k.cur = nil
	}
}

// visitor returns the per-row callback a source hands its reader: it
// checks for cancellation every ctxCheckRows rows and pushes the row.
// The first failure stops the read and is reported by finish.
func (k *chunkSink) visitor() func(storage.RecordID, catalog.Row) bool {
	i := 0
	return func(_ storage.RecordID, r catalog.Row) bool {
		if i%ctxCheckRows == 0 {
			if k.err = k.s.rc.err(); k.err != nil {
				return false
			}
		}
		i++
		k.err = k.push(r)
		return k.err == nil
	}
}

// finish ends one morsel's read: readErr is what the reader returned; a
// failure seen by the visitor takes precedence. On success the partial
// chunk is flushed, otherwise it is abandoned.
func (k *chunkSink) finish(readErr error) error {
	if k.err == nil {
		k.err = readErr
	}
	if k.err != nil {
		k.abandon()
		return k.err
	}
	return k.flush()
}

// morselOut is one parallel hand-off: a chunk plus the producing
// worker's credit channel (the consumer returns the credit on
// receipt), or a terminal error.
type morselOut struct {
	c      *Chunk
	err    error
	credit chan struct{}
}

// workerCredits bounds how many chunks one worker may have in flight
// (produced but not yet consumed) — small, so a fast worker cannot
// buffer its whole morsel set ahead of the consumer.
const workerCredits = 2

// morselStream is a source operator: it splits its input into morsels
// (page ranges, key subranges) and produces chunks from them — inline
// on the consumer's goroutine when serial, on a worker pool when
// parallel. Delivery preserves morsel order exactly: each morsel owns
// an output slot and the consumer drains slots in morsel order, so
// parallel output is row-for-row identical to serial output.
type morselStream struct {
	ex   *Executor
	rc   *runCtx
	prof *OpProfile
	// preOpen runs once before the first morsel (chaos consultation for
	// scans); its error fails the stream before any row is read.
	preOpen func() error
	n       int
	// produce reads morsel m and emits its chunks in row order.
	produce func(m int, emit emitFn) error
	ts      []transform

	opened bool
	done   bool
	err    error

	// Serial state: chunks buffered from the morsel produced last.
	cur int
	buf []*Chunk

	// Parallel state.
	par    bool
	slots  []chan morselOut
	stop   chan struct{}
	wg     sync.WaitGroup
	slot   int
	closed bool
}

func (s *morselStream) fuse(t transform) { s.ts = append(s.ts, t) }

// open dispatches the stream: chaos, morsel accounting, and — when
// both the morsel count and the worker budget allow — the worker pool.
func (s *morselStream) open() error {
	s.opened = true
	if s.preOpen != nil {
		if err := s.preOpen(); err != nil {
			return err
		}
	}
	if s.n == 0 {
		s.done = true
		return nil
	}
	s.ex.Obs.Morsels.Add(uint64(s.n))
	if s.prof != nil {
		s.prof.morsels.Add(int64(s.n))
	}
	workers := s.ex.workers()
	if workers > s.n {
		workers = s.n
	}
	if workers <= 1 {
		return nil
	}
	s.par = true
	s.ex.Obs.ParallelOps.Inc()
	s.ex.Obs.WorkerSpawns.Add(uint64(workers))
	if s.prof != nil {
		s.prof.workerSpawns.Add(int64(workers))
	}
	s.slots = make([]chan morselOut, s.n)
	for i := range s.slots {
		s.slots[i] = make(chan morselOut, workerCredits)
	}
	s.stop = make(chan struct{})
	var cursor atomic.Int64
	var failed atomic.Bool
	s.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer s.wg.Done()
			// Each worker's credits cap its in-flight chunks; the
			// consumer returns a credit per chunk received. The lowest
			// undrained morsel's worker therefore always either holds a
			// credit or has drainable chunks in that morsel's slot, so
			// the pipeline cannot deadlock.
			credits := make(chan struct{}, workerCredits)
			for i := 0; i < workerCredits; i++ {
				credits <- struct{}{}
			}
			processed := 0
			for {
				m := int(cursor.Add(1)) - 1
				if m >= s.n {
					break
				}
				if failed.Load() || s.stopping() {
					close(s.slots[m])
					continue
				}
				perr := s.rc.err()
				if perr == nil {
					processed++
					perr = s.produce(m, func(c *Chunk) error {
						select {
						case <-credits:
						case <-s.stop:
							s.rc.recycle(c)
							return errStreamClosed
						}
						select {
						case s.slots[m] <- morselOut{c: c, credit: credits}:
							return nil
						case <-s.stop:
							credits <- struct{}{}
							s.rc.recycle(c)
							return errStreamClosed
						}
					})
				}
				if perr == nil || perr == errStreamClosed {
					close(s.slots[m])
					continue
				}
				failed.Store(true)
				select {
				case s.slots[m] <- morselOut{err: perr}:
				case <-s.stop:
				}
				close(s.slots[m])
			}
			if s.prof != nil && processed > 0 {
				s.prof.busyWorkers.Add(1)
			}
		}()
	}
	return nil
}

func (s *morselStream) stopping() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

func (s *morselStream) Next(ctx context.Context) (c *Chunk, ok bool, err error) {
	if s.prof != nil {
		start := time.Now()
		defer func() { s.prof.wallNs.Add(time.Since(start).Nanoseconds()) }()
	}
	if s.err != nil {
		return nil, false, s.err
	}
	if !s.opened {
		if err := s.open(); err != nil {
			s.err = err
			return nil, false, err
		}
	}
	if s.done {
		return nil, false, nil
	}
	if s.par {
		for s.slot < s.n {
			o, open := <-s.slots[s.slot]
			if !open {
				s.slot++
				continue
			}
			if o.credit != nil {
				o.credit <- struct{}{}
			}
			if o.err != nil {
				s.err = o.err
				return nil, false, o.err
			}
			return o.c, true, nil
		}
		s.done = true
		return nil, false, nil
	}
	for {
		if len(s.buf) > 0 {
			out := s.buf[0]
			s.buf[0] = nil
			s.buf = s.buf[1:]
			return out, true, nil
		}
		if s.cur >= s.n {
			s.done = true
			return nil, false, nil
		}
		if err := s.rc.err(); err != nil {
			s.err = err
			return nil, false, err
		}
		m := s.cur
		s.cur++
		s.buf = s.buf[:0]
		if err := s.produce(m, func(c *Chunk) error {
			s.buf = append(s.buf, c)
			return nil
		}); err != nil {
			s.err = err
			return nil, false, err
		}
	}
}

// Close tears the stream down: parallel workers are signalled, waited
// out, and every chunk still parked in a slot or the serial buffer is
// recycled, so cancellation and early LIMIT exits leak nothing.
func (s *morselStream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.par {
		close(s.stop)
		s.wg.Wait()
		for _, ch := range s.slots {
			for {
				o, open := <-ch
				if !open {
					break
				}
				if o.c != nil {
					s.rc.recycle(o.c)
				}
			}
		}
	}
	for _, c := range s.buf {
		s.rc.recycle(c)
	}
	s.buf = nil
}

// compileScan builds the streaming source for a heap scan. The chaos
// site is consulted at open (first Next), serially, once per morsel —
// the schedule depends only on table size and morsel configuration,
// exactly as in the materializing executor — and a failed scan reads
// and charges nothing.
func (ex *Executor) compileScan(rc *runCtx, v *plan.ScanNode) *morselStream {
	morsels := storage.PartitionPages(v.Table.PageIDs(), ex.scanMorselPages())
	s := &morselStream{ex: ex, rc: rc, prof: ex.Profile.of(v), n: len(morsels)}
	s.preOpen = func() error {
		// At least one consultation per scan, so empty tables keep
		// their fault schedule. Injected latency selects on the run's
		// context: a cancelled query never waits out a sleep.
		consult := len(morsels)
		if consult == 0 {
			consult = 1
		}
		for m := 0; m < consult; m++ {
			delay, cerr := ex.Chaos.SleepLatency(rc.ctx, SiteExecScan)
			ex.Stats.InjectedDelayUnits.Add(uint64(delay))
			ex.Obs.InjectedDelay.Add(uint64(delay))
			if cerr != nil {
				return fmt.Errorf("exec: scan %s: %w", v.Table.Name, rc.stamp(cerr))
			}
			if err := ex.Chaos.Fail(SiteExecScan); err != nil {
				return fmt.Errorf("exec: scan %s: %w", v.Table.Name, err)
			}
		}
		return nil
	}
	s.produce = s.heapProduce(v.Table, morsels, v.Needed, v.RowIDs)
	return s
}

// heapProduce is the produce function of a heap scan over morsels,
// decoding the needed columns (nil: all). With rowIDs each row gets one
// extra arena slot holding its record id; the plain scan's row loop is
// the same code either way.
func (s *morselStream) heapProduce(t *catalog.Table, morsels [][]storage.PageID, needed []bool, rowIDs bool) func(m int, emit emitFn) error {
	return func(m int, emit emitFn) error {
		sink := &chunkSink{s: s, emit: emit, limit: s.ex.morselRows()}
		alloc := func(cols int) catalog.Row { return sink.row(cols) }
		visit := sink.visitor()
		if rowIDs {
			alloc = func(cols int) catalog.Row { return sink.row(cols + 1)[:cols] }
			visit = withRowID(visit)
		}
		serr := t.ScanPagesInto(morsels[m], needed, alloc, visit)
		return sink.finish(serr)
	}
}

// withRowID wraps a row visitor so each row carries its record id as a
// trailing value (appended in place when the row has the spare slot).
func withRowID(visit func(storage.RecordID, catalog.Row) bool) func(storage.RecordID, catalog.Row) bool {
	return func(rid storage.RecordID, r catalog.Row) bool { return visit(rid, append(r, rid)) }
}

// compileIndexScan builds the streaming source for an index range
// scan. The key range is fixed at open from the run's parameters, so
// one cached plan serves every binding, then split into key subranges;
// fetched rows are appended as-is (the fetch closure allocates them)
// and subranges emit in ascending key order, matching the serial scan
// exactly. When a bound has no int64 value the scan reads the heap
// instead and leaves the decision to the filter above it.
func (ex *Executor) compileIndexScan(rc *runCtx, v *plan.IndexScanNode) *morselStream {
	s := &morselStream{ex: ex, rc: rc, prof: ex.Profile.of(v)}
	s.preOpen = func() error {
		lo, hi, ok := v.Range(ex.Params)
		if !ok {
			morsels := storage.PartitionPages(v.Table.PageIDs(), ex.scanMorselPages())
			s.n, s.produce = len(morsels), s.heapProduce(v.Table, morsels, nil, v.RowIDs)
			return nil
		}
		subs := splitKeyRange(lo, hi, ex.workers()*2, minIndexMorselWidth)
		s.n = len(subs)
		s.produce = func(m int, emit emitFn) error {
			sink := &chunkSink{s: s, emit: emit, limit: ex.morselRows()}
			visit := sink.visitor()
			if v.RowIDs {
				visit = withRowID(visit)
			}
			return sink.finish(v.Fetch(subs[m][0], subs[m][1], visit))
		}
		return nil
	}
	return s
}

// compileVirtualScan builds the streaming source for a virtual table
// (system.*). The provider's rows are snapshotted once in preOpen — at
// execution, not at plan time, so EXPLAIN never touches the provider —
// then partitioned into morsel ranges and pushed through the same
// chunkSink as heap scans, so parallel delivery order, cancellation
// strides, MemBudget charging and profiling all behave identically.
func (ex *Executor) compileVirtualScan(rc *runCtx, v *plan.VirtualScanNode) *morselStream {
	s := &morselStream{ex: ex, rc: rc, prof: ex.Profile.of(v)}
	var rows []catalog.Row
	var bounds [][2]int
	s.preOpen = func() error {
		r, err := v.Table.Rows()
		if err != nil {
			return fmt.Errorf("exec: virtual scan %s: %w", v.Table.Name(), err)
		}
		rows = r
		bounds = chunkBounds(len(rows), ex.morselRows())
		s.n = len(bounds)
		return nil
	}
	s.produce = func(m int, emit emitFn) error {
		sink := &chunkSink{s: s, emit: emit, limit: ex.morselRows()}
		lo, hi := bounds[m][0], bounds[m][1]
		for i := lo; i < hi; i++ {
			if (i-lo)%ctxCheckRows == 0 {
				if err := rc.err(); err != nil {
					sink.abandon()
					return err
				}
			}
			if err := sink.push(rows[i]); err != nil {
				sink.abandon()
				return err
			}
		}
		return sink.flush()
	}
	return s
}

// ---------------------------------------------------------------------
// Pipeline breakers.

// joinOp is a partitioned hash join that drains and escapes its build
// side (rows are retained in the hash tables) and then streams the
// probe side: each probe chunk is matched and rewritten into an output
// chunk whose rows are carved from its arena. The probe child's scan
// still parallelizes internally; probing itself runs on the consumer
// goroutine, preserving probe order exactly.
type joinOp struct {
	ex          *Executor
	rc          *runCtx
	node        *plan.JoinNode
	prof        *OpProfile
	build       BatchOperator
	probe       BatchOperator
	buildIdx    int
	probeIdx    int
	buildIsLeft bool
	// outWidth is the joined row width (left cols + right cols), used to
	// right-size output chunk arenas.
	outWidth int

	opened bool
	err    error
	tables []map[string]*joinBucket
	nparts uint64
	keyBuf []byte
}

func (j *joinOp) open(ctx context.Context) error {
	j.opened = true
	// Keep each escaped chunk's row slice as-is: the hash tables
	// reference the rows in place, so flattening them into one big
	// buildRows copy would only add allocation churn.
	var rowsets [][]catalog.Row
	for {
		c, ok, err := j.build.Next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		rows, err := j.rc.keep(c)
		if err != nil {
			return err
		}
		rowsets = append(rowsets, rows)
	}
	j.build.Close()
	w := j.ex.workers()
	tables, err := j.ex.buildPartitioned(j.rc, j.prof, rowsets, j.buildIdx, w)
	if err != nil {
		return err
	}
	j.tables = tables
	j.nparts = uint64(len(tables))
	return nil
}

func (j *joinOp) Next(ctx context.Context) (*Chunk, bool, error) {
	if j.err != nil {
		return nil, false, j.err
	}
	if !j.opened {
		if err := j.open(ctx); err != nil {
			j.err = err
			return nil, false, err
		}
	}
	for {
		pc, ok, err := j.probe.Next(ctx)
		if err != nil || !ok {
			return nil, false, err
		}
		out := j.rc.pool.get()
		out.reserve(len(pc.rows), j.outWidth)
		for i, pr := range pc.rows {
			if i > 0 && i%ctxCheckRows == 0 {
				if err := j.rc.err(); err != nil {
					j.rc.recycle(out)
					j.rc.recycle(pc)
					j.err = err
					return nil, false, err
				}
			}
			j.keyBuf = appendValKey(j.keyBuf[:0], pr[j.probeIdx])
			if b := j.tables[hashBytes(j.keyBuf)%j.nparts][string(j.keyBuf)]; b != nil {
				for _, br := range b.rows {
					row := out.newRow(len(br) + len(pr))
					if j.buildIsLeft {
						copy(row, br)
						copy(row[len(br):], pr)
					} else {
						copy(row, pr)
						copy(row[len(pr):], br)
					}
					out.rows = append(out.rows, row)
				}
			}
		}
		j.rc.recycle(pc)
		if len(out.rows) == 0 {
			j.rc.recycle(out)
			continue
		}
		n := uint64(len(out.rows))
		j.ex.Stats.RowsJoined.Add(n)
		j.ex.Obs.RowsJoined.Add(n)
		j.ex.Obs.ChunksEmitted.Inc()
		if err := j.rc.chargeEmit(out); err != nil {
			j.rc.recycle(out)
			j.err = err
			return nil, false, err
		}
		return out, true, nil
	}
}

func (j *joinOp) Close() {
	j.build.Close()
	j.probe.Close()
}

// aggOp drains its input, folding every chunk's rows — serially, in
// arrival (morsel) order — into one partial state, and emits the
// finalized groups as a single static chunk. Folding on the consumer
// goroutine makes grouped output bitwise identical at any parallelism;
// the scan below still fans out. Input chunks are recycled as they are
// folded (aggregation state copies the values it keeps), so a
// full-table aggregate holds only its groups, never its input.
type aggOp struct {
	ex  *Executor
	rc  *runCtx
	agg *boundAgg

	in   BatchOperator
	done bool
	err  error
}

func (a *aggOp) Next(ctx context.Context) (*Chunk, bool, error) {
	if a.done || a.err != nil {
		return nil, false, a.err
	}
	a.done = true
	part := newAggPartial()
	for {
		c, ok, err := a.in.Next(ctx)
		if err != nil {
			a.err = err
			return nil, false, err
		}
		if !ok {
			break
		}
		if err := a.agg.fold(a.rc, part, c.rows); err != nil {
			a.rc.recycle(c)
			a.err = err
			return nil, false, err
		}
		a.rc.recycle(c)
	}
	rows := a.agg.finalize(part)
	if len(rows) == 0 {
		return nil, false, nil
	}
	a.ex.Obs.ChunksEmitted.Inc()
	return &Chunk{rows: rows}, true, nil
}

func (a *aggOp) Close() { a.in.Close() }

// sortOp drains and escapes its input (sorting needs everything), then
// emits the ordered rows as one static chunk.
type sortOp struct {
	rc   *runCtx
	keys []sortKey

	in   BatchOperator
	done bool
	err  error
}

func (s *sortOp) Next(ctx context.Context) (*Chunk, bool, error) {
	if s.done || s.err != nil {
		return nil, false, s.err
	}
	s.done = true
	var rows []catalog.Row
	for {
		c, ok, err := s.in.Next(ctx)
		if err != nil {
			s.err = err
			return nil, false, err
		}
		if !ok {
			break
		}
		kept, err := s.rc.keep(c)
		if err != nil {
			s.err = err
			return nil, false, err
		}
		rows = append(rows, kept...)
	}
	if err := s.rc.err(); err != nil {
		s.err = err
		return nil, false, err
	}
	rows, err := sortRows(s.keys, rows)
	if err != nil {
		s.err = err
		return nil, false, err
	}
	if len(rows) == 0 {
		return nil, false, nil
	}
	return &Chunk{rows: rows}, true, nil
}

func (s *sortOp) Close() { s.in.Close() }

// sortKey is one bound ORDER BY key.
type sortKey struct {
	expr bound
	desc bool
}

// bindSortKeys binds a sort's keys against its input schema. A key that
// textually matches an input column (e.g. an aggregate or PREDICT
// output) sorts by that column directly instead of re-evaluating the
// expression.
func (ex *Executor) bindSortKeys(v *plan.SortNode) ([]sortKey, error) {
	schema := v.Input.Schema()
	scope := ex.newScope(schema)
	keys := make([]sortKey, len(v.Keys))
	for ki, k := range v.Keys {
		keys[ki].desc = k.Desc
		if ci := slices.Index(schema, k.Expr.String()); ci >= 0 {
			keys[ki].expr = bound{col: ci}
			continue
		}
		b, err := bind(k.Expr, scope, ex.Funcs)
		if err != nil {
			return nil, err
		}
		keys[ki].expr = b
	}
	return keys, nil
}

// sortRows stable-sorts rows by keys.
func sortRows(keys []sortKey, in []catalog.Row) ([]catalog.Row, error) {
	var sortErr error
	sort.SliceStable(in, func(i, j int) bool {
		for ki := range keys {
			k := &keys[ki]
			a, err := k.expr.eval(in[i])
			if err != nil {
				sortErr = err
				return false
			}
			b, err := k.expr.eval(in[j])
			if err != nil {
				sortErr = err
				return false
			}
			c, err := compare(a, b)
			if err != nil {
				sortErr = err
				return false
			}
			if c != 0 {
				if k.desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	return in, sortErr
}

// limitOp passes chunks through until N rows have flowed, truncating
// the boundary chunk and closing its upstream early — a LIMIT query
// stops scanning as soon as it has enough rows.
type limitOp struct {
	rc   *runCtx
	n    int
	in   BatchOperator
	got  int
	done bool
}

func (l *limitOp) Next(ctx context.Context) (*Chunk, bool, error) {
	if l.done {
		return nil, false, nil
	}
	if l.n <= 0 {
		l.done = true
		l.in.Close()
		return nil, false, nil
	}
	c, ok, err := l.in.Next(ctx)
	if err != nil || !ok {
		l.done = true
		return nil, false, err
	}
	if rem := l.n - l.got; len(c.rows) > rem {
		c.rows = c.rows[:rem]
	}
	l.got += len(c.rows)
	if l.got >= l.n {
		l.done = true
		l.in.Close()
	}
	return c, true, nil
}

func (l *limitOp) Close() { l.in.Close() }

// distinctOp streams its input, compacting each chunk down to rows
// whose key has not been seen before — first-occurrence order, exactly
// like the materializing dedup.
type distinctOp struct {
	rc     *runCtx
	in     BatchOperator
	seen   map[string]bool
	keyBuf []byte
}

func (d *distinctOp) Next(ctx context.Context) (*Chunk, bool, error) {
	for {
		c, ok, err := d.in.Next(ctx)
		if err != nil || !ok {
			return nil, false, err
		}
		out := c.rows[:0]
		for _, r := range c.rows {
			d.keyBuf = appendRowKey(d.keyBuf[:0], r)
			if !d.seen[string(d.keyBuf)] {
				d.seen[string(d.keyBuf)] = true
				out = append(out, r)
			}
		}
		c.rows = out
		if len(out) == 0 {
			d.rc.recycle(c)
			continue
		}
		return c, true, nil
	}
}

func (d *distinctOp) Close() { d.in.Close() }

// profiledOp wraps a pipeline breaker with EXPLAIN ANALYZE accounting:
// wall time spent in (and below) its Next, rows and chunks emitted,
// and the largest chunk it handed downstream.
type profiledOp struct {
	in   BatchOperator
	prof *OpProfile
}

func (p *profiledOp) Next(ctx context.Context) (*Chunk, bool, error) {
	start := time.Now()
	c, ok, err := p.in.Next(ctx)
	p.prof.wallNs.Add(time.Since(start).Nanoseconds())
	if ok && c != nil {
		p.prof.actualRows.Add(int64(len(c.rows)))
		p.prof.chunks.Add(1)
		if c.charged > 0 {
			p.prof.notePeak(c.charged)
		} else {
			p.prof.notePeak(approxRowsBytes(c.rows))
		}
	}
	return c, ok, err
}

func (p *profiledOp) Close() { p.in.Close() }

// profiled wraps op when a profile is attached to n.
func (ex *Executor) profiled(op BatchOperator, n plan.Node) BatchOperator {
	if prof := ex.Profile.of(n); prof != nil {
		return &profiledOp{in: op, prof: prof}
	}
	return op
}

// compile lowers a plan tree into a BatchOperator pipeline. Filters
// and projections become transforms fused into their input when it can
// absorb them (sources and transform chains), so the hot row loop runs
// entirely inside the scan workers.
func (ex *Executor) compile(rc *runCtx, n plan.Node) (BatchOperator, error) {
	switch v := n.(type) {
	case *plan.BoundNode:
		ex.Params = v.Params
		return ex.compile(rc, v.Input)
	case *plan.ScanNode:
		return ex.compileScan(rc, v), nil
	case *plan.IndexScanNode:
		return ex.compileIndexScan(rc, v), nil
	case *plan.VirtualScanNode:
		return ex.compileVirtualScan(rc, v), nil
	case *plan.FilterNode:
		cond, err := bindBool(v.Cond, ex.newScope(v.Input.Schema()), ex.Funcs)
		if err != nil {
			return nil, err
		}
		in, err := ex.compile(rc, v.Input)
		if err != nil {
			return nil, err
		}
		return fused(rc, in, &filterTransform{rc: rc, cond: cond, prof: ex.Profile.of(v)}), nil
	case *plan.ProjectNode:
		t, err := ex.bindProject(rc, v)
		if err != nil {
			return nil, err
		}
		in, err := ex.compile(rc, v.Input)
		if err != nil {
			return nil, err
		}
		return fused(rc, in, t), nil
	case *plan.JoinNode:
		return ex.compileJoin(rc, v)
	case *plan.AggregateNode:
		agg, err := ex.bindAggregate(v)
		if err != nil {
			return nil, err
		}
		in, err := ex.compile(rc, v.Input)
		if err != nil {
			return nil, err
		}
		return ex.profiled(&aggOp{ex: ex, rc: rc, agg: agg, in: in}, v), nil
	case *plan.SortNode:
		keys, err := ex.bindSortKeys(v)
		if err != nil {
			return nil, err
		}
		in, err := ex.compile(rc, v.Input)
		if err != nil {
			return nil, err
		}
		return ex.profiled(&sortOp{rc: rc, keys: keys, in: in}, v), nil
	case *plan.LimitNode:
		in, err := ex.compile(rc, v.Input)
		if err != nil {
			return nil, err
		}
		return ex.profiled(&limitOp{rc: rc, n: v.N, in: in}, v), nil
	case *plan.DistinctNode:
		in, err := ex.compile(rc, v.Input)
		if err != nil {
			return nil, err
		}
		return ex.profiled(&distinctOp{rc: rc, in: in, seen: map[string]bool{}}, v), nil
	case *plan.ModifyNode:
		set, err := ex.bindSet(v)
		if err != nil {
			return nil, err
		}
		in, err := ex.compile(rc, v.Input)
		if err != nil {
			return nil, err
		}
		return &modifyOp{rc: rc, node: v, set: set, prof: ex.Profile.of(v), in: in}, nil
	default:
		return nil, fmt.Errorf("exec: unsupported plan node %T", n)
	}
}

// compileJoin resolves the join keys, picks the build side from the
// planner's cardinality estimates (for plain scans the estimate is the
// exact row count, matching the old measured choice; ties build left),
// and assembles the streaming joinOp.
func (ex *Executor) compileJoin(rc *runCtx, v *plan.JoinNode) (BatchOperator, error) {
	left, err := ex.compile(rc, v.Left)
	if err != nil {
		return nil, err
	}
	right, err := ex.compile(rc, v.Right)
	if err != nil {
		left.Close()
		return nil, err
	}
	lScope := NewScope(v.Left.Schema())
	rScope := NewScope(v.Right.Schema())
	lIdx, err := lScope.Resolve(plan.ColumnRefOf(v.LeftCol))
	if err != nil {
		left.Close()
		right.Close()
		return nil, fmt.Errorf("exec: join left key: %w", err)
	}
	rIdx, err := rScope.Resolve(plan.ColumnRefOf(v.RightCol))
	if err != nil {
		left.Close()
		right.Close()
		return nil, fmt.Errorf("exec: join right key: %w", err)
	}
	j := &joinOp{
		ex: ex, rc: rc, node: v, prof: ex.Profile.of(v),
		outWidth: len(v.Left.Schema()) + len(v.Right.Schema()),
	}
	// A plan-time annotation (cached plans) freezes the build side; only
	// un-annotated plans consult the estimator here, per run.
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
		j.build, j.probe = right, left
		j.buildIdx, j.probeIdx = rIdx, lIdx
		j.buildIsLeft = false
	} else {
		j.build, j.probe = left, right
		j.buildIdx, j.probeIdx = lIdx, rIdx
		j.buildIsLeft = true
	}
	return ex.profiled(j, v), nil
}

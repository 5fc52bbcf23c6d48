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
	"aidb/internal/plan"
	"aidb/internal/sql"
	"aidb/internal/storage"
)

// This file is the streaming heart of the executor: a compiled plan is
// a tree of BatchOperators pulling pooled Chunks from their children.
// Rows flow scan → filter → project → limit one batch at a time, so a
// query's live memory is bounded by chunks in flight — not by the size
// of every intermediate result. Filters and projections compile to
// transforms fused into their source's morsel loop (they run inside scan
// workers); pipeline breakers (join build, aggregation, sort) drain their
// input and then stream or emit their output.

// BatchOperator is the pull-based iterator every compiled operator
// implements. Next returns the next non-empty chunk, ok=false on
// exhaustion; the caller owns the returned chunk and must recycle it or
// hand it on. Close tears the operator down (idempotent, safe after an
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
// Transforms: fused stages (filter, project).

// transform is one fused pipeline stage. apply takes ownership of c
// and returns the surviving chunk (c itself, narrowed or re-columned);
// a chunk it abandons on error it recycles itself. Transforms run
// concurrently from morsel workers and must only touch shared state
// that is read-only or atomic.
type transform interface {
	apply(c *Chunk) (*Chunk, error)
}

// fusable is implemented by operators that can absorb a downstream
// transform into their own loop (sources and transformOp).
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

// filterTransform narrows the chunk's selection to the rows cond holds
// for; no cell moves.
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
	sel, err := t.cond.apply(c, c.sel)
	if err != nil {
		t.rc.recycle(c)
		return nil, err
	}
	c.sel = sel
	if t.prof != nil {
		t.prof.wallNs.Add(time.Since(start).Nanoseconds())
		t.prof.actualRows.Add(int64(len(sel)))
		t.prof.chunks.Add(1)
	}
	return c, nil
}

// projectTransform re-columns the chunk in place: a column item
// references its input vector, a computed item fills a fresh vector of
// the chunk for the selected rows.
type projectTransform struct {
	rc    *runCtx
	items []projItem
	prof  *OpProfile
}

// projItem is one bound projection item; star passes every input column.
type projItem struct {
	star bool
	expr bound
}

// bindProject binds a projection's items against its input and returns
// the output layout.
func (ex *Executor) bindProject(rc *runCtx, v *plan.ProjectNode, scope *Scope) (*projectTransform, []kind, error) {
	t := &projectTransform{rc: rc, items: make([]projItem, len(v.Items)), prof: ex.Profile.of(v)}
	out := make([]kind, 0, len(v.Items))
	for i, it := range v.Items {
		if _, ok := it.Expr.(*sql.Star); ok {
			t.items[i].star = true
			out = append(out, scope.kinds...)
			continue
		}
		b, err := bind(it.Expr, scope, ex.Funcs)
		if err != nil {
			return nil, nil, err
		}
		t.items[i].expr = b
		out = append(out, b.k)
	}
	return t, out, nil
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
	out := slices.Grow(c.spare[:0], len(t.items))
	for i := range t.items {
		it := &t.items[i]
		switch {
		case it.star:
			out = append(out, c.cols...)
		case it.expr.col >= 0:
			out = append(out, c.cols[it.expr.col])
		default:
			v := c.newVec(it.expr.k)
			if err := it.expr.fill(v, c, c.sel); err != nil {
				c.spare = out
				rc.recycle(c)
				return nil, err
			}
			out = append(out, v)
		}
	}
	c.spare, c.cols = c.cols, out
	if err := rc.recharge(c); err != nil {
		rc.recycle(c)
		return nil, err
	}
	if t.prof != nil {
		t.prof.wallNs.Add(time.Since(start).Nanoseconds())
		t.prof.actualRows.Add(int64(c.Len()))
		t.prof.chunks.Add(1)
		t.prof.notePeak(c.charged)
	}
	return c, nil
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

// chunkSink fills pooled chunks laid out as kinds and flushes one
// downstream once it holds limit rows: rows are counted as scanned,
// charged against the memory budget, run through the fused transforms,
// and emitted. One sink per produce call, owned by one worker.
type chunkSink struct {
	s      *morselStream
	emit   emitFn
	kinds  []kind
	rowIDs bool
	limit  int
	cur    *Chunk
	// dst is cur's vectors as a decoder takes them, nil where the plan
	// reads nothing.
	dst []*catalog.Vector
}

func (s *morselStream) sink(emit emitFn, kinds []kind, rowIDs bool) chunkSink {
	return chunkSink{s: s, emit: emit, kinds: kinds, rowIDs: rowIDs, limit: s.ex.morselRows()}
}

// chunk returns the chunk being filled, starting one when there is none.
func (k *chunkSink) chunk() *Chunk {
	if k.cur == nil {
		c := k.s.rc.pool.get()
		c.layout(k.kinds)
		k.dst = slices.Grow(k.dst[:0], len(c.cols))
		for _, v := range c.cols {
			if v == nil {
				k.dst = append(k.dst, nil)
			} else {
				k.dst = append(k.dst, &v.Vector)
			}
		}
		k.cur = c
	}
	return k.cur
}

// rids is where a decoder appends record ids: the current chunk's, for
// a DML plan, else nowhere.
func (k *chunkSink) rids() *[]storage.RecordID {
	if !k.rowIDs {
		return nil
	}
	return &k.chunk().rids
}

// fill runs a source's morsel: decode(i) appends the rows of unit i (a
// page, a batch of record ids) to the current chunk, which is flushed
// whenever it holds limit rows, and at the end. The run's context is
// checked before every unit.
func (k *chunkSink) fill(units int, decode func(i int) (int, error)) error {
	for i := 0; i < units; i++ {
		err := k.s.rc.err()
		if err == nil {
			k.chunk()
			var n int
			if n, err = decode(i); err == nil {
				if k.cur.n += n; k.cur.n >= k.limit {
					err = k.flush()
				}
			}
		}
		if err != nil {
			k.abandon()
			return err
		}
	}
	return k.flush()
}

// flush accounts, transforms and emits the current chunk.
func (k *chunkSink) flush() error {
	c := k.cur
	if c == nil {
		return nil
	}
	k.cur = nil
	s := k.s
	if c.n == 0 {
		s.rc.recycle(c)
		return nil
	}
	c.selectAll()
	n := uint64(c.n)
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
	if err != nil || out == nil {
		return err
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

func (s *morselStream) fuse(t transform) {
	if s.ts == nil {
		s.ts = make([]transform, 0, 2) // a filter and a projection
	}
	s.ts = append(s.ts, t)
}

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

// tableKinds is the layout a scan of t yields: one vector per column
// needed marks (every column when needed is nil).
func tableKinds(t *catalog.Table, needed []bool) []kind {
	kinds := make([]kind, len(t.Schema.Columns))
	for i, c := range t.Schema.Columns {
		if needed == nil || needed[i] {
			kinds[i] = kindOf(c.Type)
		}
	}
	return kinds
}

// compileScan builds the streaming source for a heap scan. The chaos
// site is consulted at open (first Next), serially, once per morsel —
// the schedule depends only on table size and morsel configuration —
// and a failed scan reads and charges nothing.
func (ex *Executor) compileScan(rc *runCtx, v *plan.ScanNode) (*morselStream, []kind) {
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
	kinds := tableKinds(v.Table, v.Needed)
	s.produce = s.heapProduce(v.Table, morsels, kinds, v.RowIDs)
	return s, kinds
}

// heapProduce is the produce function of a heap scan over morsels: each
// page decodes straight into the current chunk's vectors.
func (s *morselStream) heapProduce(t *catalog.Table, morsels [][]storage.PageID, kinds []kind, rowIDs bool) func(m int, emit emitFn) error {
	return func(m int, emit emitFn) error {
		k := s.sink(emit, kinds, rowIDs)
		pages := morsels[m]
		return k.fill(len(pages), func(i int) (int, error) { return t.DecodePage(pages[i], k.dst, k.rids()) })
	}
}

// compileIndexScan builds the streaming source for an index range
// scan. The key range is fixed at open from the run's parameters, so
// one cached plan serves every binding, then split into key subranges;
// each subrange's record ids, in key order, are decoded a chunk at a
// time, one pin per page, and subranges emit in ascending key order,
// matching the serial scan exactly. When a bound has no int64 value the
// scan reads the heap instead and leaves the decision to the filter
// above it.
func (ex *Executor) compileIndexScan(rc *runCtx, v *plan.IndexScanNode) (*morselStream, []kind) {
	s := &morselStream{ex: ex, rc: rc, prof: ex.Profile.of(v)}
	kinds := tableKinds(v.Table, v.Needed)
	s.preOpen = func() error {
		lo, hi, ok := v.Range(ex.Params)
		if !ok {
			morsels := storage.PartitionPages(v.Table.PageIDs(), ex.scanMorselPages())
			s.n, s.produce = len(morsels), s.heapProduce(v.Table, morsels, kinds, v.RowIDs)
			return nil
		}
		subs := splitKeyRange(lo, hi, ex.workers()*2, minIndexMorselWidth)
		s.n = len(subs)
		s.produce = func(m int, emit emitFn) error {
			rids, err := v.Fetch(subs[m][0], subs[m][1], nil)
			if err != nil {
				return err
			}
			k := s.sink(emit, kinds, v.RowIDs)
			return k.fill((len(rids)+k.limit-1)/k.limit, func(i int) (int, error) {
				batch := rids[i*k.limit : min((i+1)*k.limit, len(rids))]
				return v.Table.DecodeRecords(batch, k.dst, k.rids())
			})
		}
		return nil
	}
	return s, kinds
}

// compileVirtualScan builds the streaming source for a virtual table
// (system.*), whose cells are boxed. The provider's rows are snapshotted
// once in preOpen — at execution, not at plan time, so EXPLAIN never
// touches the provider — then partitioned into morsel ranges and pushed
// through the same chunkSink as heap scans, so parallel delivery order,
// cancellation, MemBudget charging and profiling all behave identically.
func (ex *Executor) compileVirtualScan(rc *runCtx, v *plan.VirtualScanNode) (*morselStream, []kind) {
	s := &morselStream{ex: ex, rc: rc, prof: ex.Profile.of(v)}
	kinds := make([]kind, len(v.Table.Columns().Columns))
	for i := range kinds {
		kinds[i] = kAny
	}
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
		k := s.sink(emit, kinds, false)
		return k.fill(1, func(int) (int, error) {
			morsel := rows[bounds[m][0]:bounds[m][1]]
			for _, row := range morsel {
				for j, v := range k.cur.cols {
					v.V = append(v.V, row[j])
				}
			}
			return len(morsel), nil
		})
	}
	return s, kinds
}

// ---------------------------------------------------------------------
// Pipeline breakers.

// gatherAll appends every live row of src to c, a static chunk of the
// same layout: the copy a breaker keeps, so src can be recycled.
func (c *Chunk) gatherAll(src *Chunk) {
	for j, v := range c.cols {
		if v != nil {
			v.gather(src.cols[j], src.sel)
		}
	}
	c.n += len(src.sel)
}

// drain gathers every chunk in yields into one static chunk laid out as
// kinds, charging it as it grows and recycling the input.
func drain(ctx context.Context, rc *runCtx, in BatchOperator, kinds []kind) (*Chunk, error) {
	all := &Chunk{}
	all.layout(kinds)
	for {
		c, ok, err := in.Next(ctx)
		if err != nil || !ok {
			all.selectAll()
			return all, err
		}
		all.gatherAll(c)
		rc.recycle(c)
		if err := rc.recharge(all); err != nil {
			return nil, err
		}
	}
}

// joinOp is a hash join. It drains its build side into one static chunk
// and hashes the build keys (typed: see keyMap), then streams the probe
// side: each probe chunk's matches are gathered, column by column, into
// one output chunk. The probe child's scan still parallelizes
// internally; probing itself runs on the consumer goroutine, preserving
// probe order exactly.
type joinOp struct {
	ex          *Executor
	rc          *runCtx
	prof        *OpProfile
	build       BatchOperator
	probe       BatchOperator
	buildKinds  []kind
	outKinds    []kind // the left input's columns, then the right's
	buildKey    []bound
	probeKey    []bound
	buildIsLeft bool

	opened bool
	err    error
	keys   *keyMap
	side   *Chunk  // the build rows
	head   []int32 // per key id: its first build row
	next   []int32 // per build row: the next with its key, -1 after the last
	// Probe scratch: key ids, then the matched (probe, build) row pairs.
	ids, pr, br []int32
}

func (j *joinOp) open(ctx context.Context) error {
	j.opened = true
	side, err := drain(ctx, j.rc, j.build, j.buildKinds)
	j.build.Close()
	if err != nil {
		return err
	}
	j.side = side
	ids, err := j.keys.ids(side, side.sel, j.buildKey, true, nil)
	if err != nil {
		return err
	}
	// Chains are built back to front, so each lists its rows in build
	// order and the probe emits them in that order.
	j.head = make([]int32, j.keys.n)
	for i := range j.head {
		j.head[i] = -1
	}
	j.next = make([]int32, side.n)
	for r := side.n - 1; r >= 0; r-- {
		if id := ids[r]; id >= 0 {
			j.next[r], j.head[id] = j.head[id], int32(r)
		}
	}
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
		if err := j.rc.err(); err != nil {
			j.rc.recycle(pc)
			j.err = err
			return nil, false, err
		}
		if j.ids, err = j.keys.ids(pc, pc.sel, j.probeKey, false, j.ids); err != nil {
			j.rc.recycle(pc)
			j.err = err
			return nil, false, err
		}
		j.pr, j.br = j.pr[:0], j.br[:0]
		for i, r := range pc.sel {
			if id := j.ids[i]; id >= 0 {
				for b := j.head[id]; b >= 0; b = j.next[b] {
					j.pr, j.br = append(j.pr, r), append(j.br, b)
				}
			}
		}
		if len(j.pr) == 0 {
			j.rc.recycle(pc)
			continue
		}
		out := j.rc.pool.get()
		out.layout(j.outKinds)
		left, lrows, right, rrows := j.side, j.br, pc, j.pr
		if !j.buildIsLeft {
			left, lrows, right, rrows = pc, j.pr, j.side, j.br
		}
		for col, v := range out.cols {
			switch {
			case v == nil:
			case col < len(left.cols):
				v.gather(left.cols[col], lrows)
			default:
				v.gather(right.cols[col-len(left.cols)], rrows)
			}
		}
		out.n = len(j.pr)
		out.selectAll()
		j.rc.recycle(pc)
		n := uint64(out.n)
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

// aggOp drains its input, folding every chunk — serially, in arrival
// (morsel) order — into one partial state, and emits the finalized
// groups as a single static chunk. Folding on the consumer goroutine
// makes grouped output bitwise identical at any parallelism; the scan
// below still fans out. Input chunks are recycled as they are folded,
// so a full-table aggregate holds only its groups, never its input.
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
	part := a.agg.newPartial()
	for {
		c, ok, err := a.in.Next(ctx)
		if err != nil {
			a.err = err
			return nil, false, err
		}
		if !ok {
			break
		}
		err = a.rc.err()
		if err == nil {
			err = a.agg.fold(part, c)
		}
		a.rc.recycle(c)
		if err != nil {
			a.err = err
			return nil, false, err
		}
	}
	out := a.agg.finalize(part)
	if out.Len() == 0 {
		return nil, false, nil
	}
	a.ex.Obs.ChunksEmitted.Inc()
	return out, true, nil
}

func (a *aggOp) Close() { a.in.Close() }

// sortOp drains its input into one static chunk, computes each key's
// vector once, and emits the chunk with its selection permuted into
// order.
type sortOp struct {
	rc    *runCtx
	keys  []sortKey
	kinds []kind

	in   BatchOperator
	done bool
	err  error
}

func (s *sortOp) Next(ctx context.Context) (*Chunk, bool, error) {
	if s.done || s.err != nil {
		return nil, false, s.err
	}
	s.done = true
	all, err := drain(ctx, s.rc, s.in, s.kinds)
	if err == nil {
		err = s.rc.err()
	}
	if err == nil {
		err = sortRows(s.keys, all)
	}
	if err != nil {
		s.err = err
		return nil, false, err
	}
	if all.Len() == 0 {
		s.rc.recycle(all)
		return nil, false, nil
	}
	return all, true, nil
}

func (s *sortOp) Close() { s.in.Close() }

// sortKey is one bound ORDER BY key.
type sortKey struct {
	expr bound
	desc bool
}

// bindSortKeys binds a sort's keys against its input. A key that
// textually matches an input column (e.g. an aggregate or PREDICT
// output) sorts by that column directly instead of re-evaluating the
// expression.
func (ex *Executor) bindSortKeys(v *plan.SortNode, scope *Scope) ([]sortKey, error) {
	keys := make([]sortKey, len(v.Keys))
	for ki, k := range v.Keys {
		keys[ki].desc = k.Desc
		if ci := slices.Index(scope.names, k.Expr.String()); ci >= 0 && scope.kinds[ci] != kNone {
			keys[ki].expr = bound{k: scope.kinds[ci], col: ci}
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

// sortRows stable-sorts c's selection by keys, each evaluated once per
// row into a vector first.
func sortRows(keys []sortKey, c *Chunk) error {
	cols := make([]*vec, len(keys))
	for i := range keys {
		if b := &keys[i].expr; b.col >= 0 {
			cols[i] = c.cols[b.col]
		} else {
			cols[i] = c.newVec(b.k)
			if err := b.fill(cols[i], c, c.sel); err != nil {
				return err
			}
		}
	}
	var sortErr error
	slices.SortStableFunc(c.sel, func(a, b int32) int {
		for i, v := range cols {
			var x int
			switch v.k {
			case kInt:
				x = cmpOrd(v.I[a], v.I[b])
			case kFloat:
				x = cmpOrd(v.F[a], v.F[b])
			case kString:
				x = strings.Compare(v.S[a], v.S[b])
			default:
				var err error
				if x, err = compare(v.V[a], v.V[b]); err != nil && sortErr == nil {
					sortErr = err
				}
			}
			if x != 0 {
				if keys[i].desc {
					return -x
				}
				return x
			}
		}
		return 0
	})
	return sortErr
}

// limitOp passes chunks through until N rows have flowed, truncating
// the boundary chunk's selection and closing its upstream early — a
// LIMIT query stops scanning as soon as it has enough rows.
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
	if rem := l.n - l.got; len(c.sel) > rem {
		c.sel = c.sel[:rem]
	}
	l.got += len(c.sel)
	if l.got >= l.n {
		l.done = true
		l.in.Close()
	}
	return c, true, nil
}

func (l *limitOp) Close() { l.in.Close() }

// distinctOp streams its input, narrowing each chunk's selection to
// rows whose key has not been seen before — first-occurrence order.
type distinctOp struct {
	rc   *runCtx
	in   BatchOperator
	key  []bound // every column
	seen *keyMap
	ids  []int32
}

func (d *distinctOp) Next(ctx context.Context) (*Chunk, bool, error) {
	for {
		c, ok, err := d.in.Next(ctx)
		if err != nil || !ok {
			return nil, false, err
		}
		// Key ids are handed out in row order, so a row is the first of
		// its key exactly when its id is the next one unseen.
		first := d.seen.n
		if d.ids, err = d.seen.ids(c, c.sel, d.key, true, d.ids); err != nil {
			d.rc.recycle(c)
			return nil, false, err
		}
		out := c.sel[:0]
		for i, r := range c.sel {
			if d.ids[i] == first {
				out = append(out, r)
				first++
			}
		}
		c.sel = out
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
		p.prof.actualRows.Add(int64(c.Len()))
		p.prof.chunks.Add(1)
		p.prof.notePeak(c.bytes())
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

// compile lowers a plan tree into a BatchOperator pipeline and returns
// the layout of its chunks: one vector kind per schema column. Filters
// and projections become transforms fused into their input when it can
// absorb them (sources and transform chains), so the hot loops run
// entirely inside the scan workers. An input is compiled before the
// expressions over it are bound (binding needs its layout); a bind
// error closes it before anything ran.
func (ex *Executor) compile(rc *runCtx, n plan.Node) (BatchOperator, []kind, error) {
	switch v := n.(type) {
	case *plan.BoundNode:
		ex.Params = v.Params
		return ex.compile(rc, v.Input)
	case *plan.ScanNode:
		s, kinds := ex.compileScan(rc, v)
		return s, kinds, nil
	case *plan.IndexScanNode:
		s, kinds := ex.compileIndexScan(rc, v)
		return s, kinds, nil
	case *plan.VirtualScanNode:
		s, kinds := ex.compileVirtualScan(rc, v)
		return s, kinds, nil
	case *plan.JoinNode:
		return ex.compileJoin(rc, v)
	}
	input := inputOf(n)
	if input == nil {
		return nil, nil, fmt.Errorf("exec: unsupported plan node %T", n)
	}
	in, kinds, err := ex.compile(rc, input)
	if err != nil {
		return nil, nil, err
	}
	op, kinds, err := ex.compileOver(rc, n, in, ex.newScope(input.Schema(), kinds))
	if err != nil {
		in.Close()
		return nil, nil, err
	}
	return op, kinds, nil
}

// compileOver compiles the one-input node n over its compiled input in,
// whose chunks are laid out as scope says.
func (ex *Executor) compileOver(rc *runCtx, n plan.Node, in BatchOperator, scope *Scope) (BatchOperator, []kind, error) {
	kinds := scope.kinds
	switch v := n.(type) {
	case *plan.FilterNode:
		cond, err := bindBool(v.Cond, scope, ex.Funcs)
		if err != nil {
			return nil, nil, err
		}
		return fused(rc, in, &filterTransform{rc: rc, cond: cond, prof: ex.Profile.of(v)}), kinds, nil
	case *plan.ProjectNode:
		t, out, err := ex.bindProject(rc, v, scope)
		if err != nil {
			return nil, nil, err
		}
		return fused(rc, in, t), out, nil
	case *plan.AggregateNode:
		agg, out, err := ex.bindAggregate(v, scope)
		if err != nil {
			return nil, nil, err
		}
		return ex.profiled(&aggOp{ex: ex, rc: rc, agg: agg, in: in}, v), out, nil
	case *plan.SortNode:
		keys, err := ex.bindSortKeys(v, scope)
		if err != nil {
			return nil, nil, err
		}
		return ex.profiled(&sortOp{rc: rc, keys: keys, kinds: kinds, in: in}, v), kinds, nil
	case *plan.LimitNode:
		return ex.profiled(&limitOp{rc: rc, n: v.N, in: in}, v), kinds, nil
	case *plan.DistinctNode:
		key := make([]bound, len(kinds))
		for i, k := range kinds {
			key[i] = bound{k: k, col: i}
		}
		d := &distinctOp{rc: rc, in: in, key: key, seen: newKeyMap(groupKeyMode(key), false)}
		return ex.profiled(d, v), kinds, nil
	case *plan.ModifyNode:
		set, err := ex.bindSet(v, scope)
		if err != nil {
			return nil, nil, err
		}
		return &modifyOp{rc: rc, node: v, set: set, prof: ex.Profile.of(v), in: in}, nil, nil
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

// compileJoin resolves the join keys, picks the build side from the
// planner's cardinality estimates (for plain scans the estimate is the
// exact row count; ties build left), picks the key strategy from the two
// key columns' kinds, and assembles the streaming joinOp.
func (ex *Executor) compileJoin(rc *runCtx, v *plan.JoinNode) (BatchOperator, []kind, error) {
	left, lKinds, err := ex.compile(rc, v.Left)
	if err != nil {
		return nil, nil, err
	}
	right, rKinds, err := ex.compile(rc, v.Right)
	if err != nil {
		left.Close()
		return nil, nil, err
	}
	lKey, err := ex.newScope(v.Left.Schema(), lKinds).column(plan.ColumnRefOf(v.LeftCol))
	if err != nil {
		left.Close()
		right.Close()
		return nil, nil, fmt.Errorf("exec: join left key: %w", err)
	}
	rKey, err := ex.newScope(v.Right.Schema(), rKinds).column(plan.ColumnRefOf(v.RightCol))
	if err != nil {
		left.Close()
		right.Close()
		return nil, nil, fmt.Errorf("exec: join right key: %w", err)
	}
	j := &joinOp{
		ex: ex, rc: rc, prof: ex.Profile.of(v),
		outKinds: append(slices.Clip(lKinds), rKinds...),
		keys:     newKeyMap(joinKeyMode(lKey.k, rKey.k), true),
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
		j.build, j.probe, j.buildKinds = right, left, rKinds
		j.buildKey, j.probeKey = []bound{rKey}, []bound{lKey}
	} else {
		j.build, j.probe, j.buildKinds = left, right, lKinds
		j.buildKey, j.probeKey = []bound{lKey}, []bound{rKey}
		j.buildIsLeft = true
	}
	return ex.profiled(j, v), j.outKinds, nil
}

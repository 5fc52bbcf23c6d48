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
	"aidb/internal/storage"
)

// This file is the streaming heart of the executor: a program opened for
// a run is a tree of BatchOperators pulling pooled Chunks from their
// children.
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

// transform is one fused pipeline stage, part of a program. apply takes
// ownership of c and returns the surviving chunk (c itself, narrowed or
// re-columned); a chunk it abandons on error it recycles itself.
// Transforms run concurrently from morsel workers and concurrent runs,
// and hold nothing but the program's read-only state.
type transform interface {
	apply(rc *runCtx, c *Chunk) (*Chunk, error)
}

// applyTransforms runs c through ts in order. A chunk filtered down to
// zero rows is recycled and reported as nil (no emission).
func applyTransforms(rc *runCtx, ts []transform, c *Chunk) (*Chunk, error) {
	for _, t := range ts {
		out, err := t.apply(rc, c)
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
	cond pred
	node *plan.FilterNode
}

func (t *filterTransform) apply(rc *runCtx, c *Chunk) (*Chunk, error) {
	if err := rc.err(); err != nil {
		rc.recycle(c)
		return nil, err
	}
	prof := rc.prof.of(t.node)
	var start time.Time
	if prof != nil {
		start = time.Now()
	}
	c.params = rc.params
	sel, err := t.cond.apply(c, c.sel)
	if err != nil {
		rc.recycle(c)
		return nil, err
	}
	c.sel = sel
	if prof != nil {
		prof.wallNs.Add(time.Since(start).Nanoseconds())
		prof.actualRows.Add(int64(len(sel)))
		prof.chunks.Add(1)
	}
	return c, nil
}

// projectTransform re-columns the chunk in place: a column item
// references its input vector, a computed item fills a fresh vector of
// the chunk for the selected rows.
type projectTransform struct {
	items []projItem
	node  *plan.ProjectNode
}

// projItem is one bound projection item; star passes every input column.
type projItem struct {
	star bool
	expr bound
}

func (t *projectTransform) apply(rc *runCtx, c *Chunk) (*Chunk, error) {
	if err := rc.err(); err != nil {
		rc.recycle(c)
		return nil, err
	}
	prof := rc.prof.of(t.node)
	var start time.Time
	if prof != nil {
		start = time.Now()
	}
	c.params = rc.params
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
	if prof != nil {
		prof.wallNs.Add(time.Since(start).Nanoseconds())
		prof.actualRows.Add(int64(c.Len()))
		prof.chunks.Add(1)
		prof.notePeak(c.charged)
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

// chunkSink fills pooled chunks laid out as its stream's kinds and
// flushes one downstream once it holds limit rows: rows are counted as
// scanned, charged against the memory budget, run through the fused
// transforms, and emitted. One sink per produce call, owned by one
// worker.
type chunkSink struct {
	s     *morselStream
	emit  emitFn
	limit int
	cur   *Chunk
}

// chunk returns the chunk being filled, starting one when there is none.
func (k *chunkSink) chunk() *Chunk {
	if k.cur == nil {
		c := k.s.rc.pool.get()
		c.layout(k.s.src.kinds)
		c.dst = c.dst[:0]
		for _, v := range c.cols {
			if v == nil {
				c.dst = append(c.dst, nil)
			} else {
				c.dst = append(c.dst, &v.Vector)
			}
		}
		k.cur = c
	}
	return k.cur
}

// rids is where a decoder appends record ids: the current chunk's, for
// a DML plan, else nowhere.
func (k *chunkSink) rids() *[]storage.RecordID {
	if !k.s.src.rowIDs {
		return nil
	}
	return &k.chunk().rids
}

// fill runs a source's morsel: next(room) appends rows to the current
// chunk — at most room, or at most one page's rows past it — and reports
// whether the morsel is done. The chunk is flushed whenever it holds
// limit rows, and at the end, never inside next, so a source holds no
// latch across an emit. The run's context is checked before every call.
func (k *chunkSink) fill(next func(room int) (n int, done bool, err error)) error {
	for done := false; !done; {
		err := k.s.rc.err()
		if err == nil {
			k.chunk()
			var n int
			if n, done, err = next(k.limit - k.cur.n); err == nil {
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
	s, rc := k.s, k.s.rc
	if c.n == 0 {
		rc.recycle(c)
		return nil
	}
	c.selectAll()
	n := uint64(c.n)
	rc.ex.Stats.RowsScanned.Add(n)
	rc.ex.Obs.RowsScanned.Add(n)
	if s.prof != nil {
		s.prof.actualRows.Add(int64(n))
		s.prof.chunks.Add(1)
	}
	if err := rc.chargeEmit(c); err != nil {
		rc.recycle(c)
		return err
	}
	if s.prof != nil {
		s.prof.notePeak(c.charged)
	}
	out, err := applyTransforms(rc, s.src.ts, c)
	if err != nil || out == nil {
		return err
	}
	rc.ex.Obs.ChunksEmitted.Inc()
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

// What a stream's morsels read.
const (
	fromPages = iota // heap pages
	fromKeys         // index key subranges
	fromRows         // a virtual table's rows
)

// maxKeptRids bounds the record-id buffer a stream keeps for later runs.
const maxKeptRids = 4096

// morselStream is a run's source operator, opened from a scanStep: it
// splits its input into morsels (page ranges, key subranges, row
// ranges) and produces chunks from them — inline on the consumer's
// goroutine when serial, on a worker pool when parallel. Delivery
// preserves morsel order exactly: each morsel owns an output slot and
// the consumer drains slots in morsel order, so parallel output is
// row-for-row identical to serial output. A stream is part of the run
// state later runs recycle (runCtx.stream), and keeps its buffers'
// capacity for them.
type morselStream struct {
	rc   *runCtx
	src  *scanStep
	prof *OpProfile

	// The morsels, fixed when the stream opens: n of them, from pages,
	// keys or rows as from says; bounds are the virtual rows' ranges.
	n      int
	from   int
	pages  [][]storage.PageID
	keys   [][2]int64
	rows   []catalog.Row
	bounds [][2]int
	conds  []catalog.ZoneCond
	// rids is the serial index scan's record-id buffer.
	rids []storage.RecordID
	// When probed is set, the stream is a hash join's probe and reads
	// only pages whose zone of column probeCol holds one of probeKeys,
	// the build side's keys in ascending order (probeBy).
	probed    bool
	probeCol  int
	probeKeys []int64

	opened bool
	done   bool
	err    error

	// Serial state: the chunks of the morsel produced last, buf[next:]
	// not yet handed on, and push, which buffers one (made once per
	// stream, so a run allocates no emit function).
	cur  int
	buf  []*Chunk
	next int
	push emitFn

	// Parallel state.
	par    bool
	slots  []chan morselOut
	stop   chan struct{}
	wg     sync.WaitGroup
	slot   int
	closed bool
}

// clear drops everything of a finished run but the buffers' capacity,
// field by field: a point read's run spends less on that than on
// zeroing the whole stream.
func (s *morselStream) clear() {
	s.rc, s.src, s.prof, s.err = nil, nil, nil, nil
	s.n, s.from, s.cur, s.next, s.slot = 0, fromPages, 0, 0, 0
	s.pages, s.rows, s.bounds, s.slots, s.stop = nil, nil, nil, nil, nil
	s.opened, s.done, s.par, s.closed = false, false, false, false
	s.keys, s.conds, s.buf = s.keys[:0], s.conds[:0], s.buf[:0]
	if s.rids = s.rids[:0]; cap(s.rids) > maxKeptRids {
		s.rids = nil
	}
	s.probed = false
	if s.probeKeys = s.probeKeys[:0]; cap(s.probeKeys) > maxKeptRids {
		s.probeKeys = nil
	}
}

// probeBy makes the stream, a heap scan not yet opened, read only the
// pages where column col may hold one of keys: no row of any other page
// can match a build row of the join it probes.
func (s *morselStream) probeBy(col int, keys map[int64]int32) {
	s.probeKeys = s.probeKeys[:0]
	for k := range keys {
		s.probeKeys = append(s.probeKeys, k)
	}
	slices.Sort(s.probeKeys)
	s.probed, s.probeCol = true, col
}

func (s *morselStream) bufferChunk(c *Chunk) error {
	s.buf = append(s.buf, c)
	return nil
}

// open dispatches the stream: its morsels, morsel accounting, and — when
// the morsel count, the worker budget and the idle cores allow — the
// worker pool.
func (s *morselStream) open() error {
	s.opened = true
	if err := s.plan(); err != nil {
		return err
	}
	if s.n == 0 {
		s.done = true
		return nil
	}
	ex := s.rc.ex
	ex.Obs.Morsels.Add(uint64(s.n))
	if s.prof != nil {
		s.prof.morsels.Add(int64(s.n))
	}
	workers := s.rc.claimWorkers(s.n)
	if workers <= 1 {
		return nil
	}
	s.par = true
	ex.Obs.ParallelOps.Inc()
	ex.Obs.WorkerSpawns.Add(uint64(workers))
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
			if w > 0 {
				defer cores.Add(-1) // before Done: Close returns with every core given back
			}
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

// plan fixes the stream's morsels from the run's parameters and
// settings. A heap scan leaves out the pages whose zones rule out the
// filter fused into it (scanStep.zones) or, for a join's probe, hold none of
// the build side's keys (probeBy), and consults the chaos site serially,
// once per morsel of the pages it keeps — the schedule depends only on
// the pages read and the morsel configuration — and a failed scan reads
// and charges nothing. An index scan fixes its key range from the
// parameters, so one program serves every binding, and splits it into
// key subranges; when a bound has no int64 value it reads the heap
// instead and leaves the decision to the filter above it. A virtual
// table's rows are snapshotted here — at execution, not at plan time,
// so EXPLAIN never touches the provider.
func (s *morselStream) plan() error {
	rc, ex := s.rc, s.rc.ex
	switch v := s.src.node.(type) {
	case *plan.ScanNode:
		s.conds = s.conds[:0]
		for _, z := range s.src.zones {
			zc, ok := z.Zone(rc.params)
			if !ok {
				break
			}
			s.conds = append(s.conds, zc)
		}
		if s.probed {
			s.conds = append(s.conds, catalog.ZoneCond{Col: s.probeCol, In: true, Keys: s.probeKeys})
		}
		ps := v.Table.PagesFor(s.conds)
		morsels := storage.PartitionPages(ps.Pages, ex.scanMorselPages(ps.RowsPerPage))
		// At least one consultation per scan, so empty tables keep
		// their fault schedule. Injected latency selects on the run's
		// context: a cancelled query never waits out a sleep.
		for m := 0; m < max(1, len(morsels)); m++ {
			delay, cerr := rc.chaos.SleepLatency(rc.ctx, SiteExecScan)
			if delay > 0 {
				rc.chaosFires.Add(1)
			}
			ex.Stats.InjectedDelayUnits.Add(uint64(delay))
			ex.Obs.InjectedDelay.Add(uint64(delay))
			if cerr != nil {
				return fmt.Errorf("exec: scan %s: %w", v.Table.Name, rc.stamp(cerr))
			}
			if err := rc.chaos.Fail(SiteExecScan); err != nil {
				return fmt.Errorf("exec: scan %s: %w", v.Table.Name, err)
			}
		}
		s.pruned(ps)
		s.n, s.pages = len(morsels), morsels
	case *plan.IndexScanNode:
		lo, hi, ok := v.Range(rc.params)
		if !ok {
			ps := v.Table.PagesFor(nil)
			s.pages = storage.PartitionPages(ps.Pages, ex.scanMorselPages(ps.RowsPerPage))
			s.pruned(ps)
			s.n = len(s.pages)
			return nil
		}
		k := 1 // a range too narrow to split asks for no worker count
		if lo <= hi && uint64(hi)-uint64(lo) >= 2*minIndexMorselWidth {
			k = rc.workers() * 2
		}
		s.keys = splitKeyRange(s.keys, lo, hi, k, minIndexMorselWidth)
		s.n, s.from = len(s.keys), fromKeys
	case *plan.VirtualScanNode:
		rows, err := v.Table.Fetch()
		if err != nil {
			return fmt.Errorf("exec: virtual scan %s: %w", v.Table.QName, err)
		}
		s.rows, s.bounds = rows, chunkBounds(len(rows), ex.morselRows())
		s.n, s.from = len(s.bounds), fromRows
	}
	return nil
}

// produce reads morsel m and emits its chunks in row order.
func (s *morselStream) produce(m int, emit emitFn) error {
	k := chunkSink{s: s, emit: emit, limit: s.rc.ex.morselRows()}
	switch s.from {
	case fromKeys:
		return s.indexMorsel(&k, m)
	case fromRows:
		return k.fill(func(int) (int, bool, error) {
			morsel := s.rows[s.bounds[m][0]:s.bounds[m][1]]
			for _, row := range morsel {
				for j, v := range k.cur.cols {
					v.V = append(v.V, row[j])
				}
			}
			return len(morsel), true, nil
		})
	}
	// The pages decode straight into the current chunk's vectors, as
	// many per table lock and buffer-pool View as the chunk has room for.
	t, pages := scanTable(s.src.node), s.pages[m]
	return k.fill(func(room int) (int, bool, error) {
		read, n, err := t.DecodePages(pages, k.cur.dst, k.rids(), room)
		pages = pages[read:]
		if s.prof != nil {
			s.prof.pagesRead.Add(int64(read))
		}
		return n, len(pages) == 0, err
	})
}

// indexMorsel reads key subrange m: its record ids, in (key, record id)
// order, are decoded a chunk at a time, one pin per page. Serially the
// ids land in the stream's own buffer, which later morsels and runs
// reuse.
func (s *morselStream) indexMorsel(k *chunkSink, m int) error {
	v := s.src.node.(*plan.IndexScanNode)
	var buf []storage.RecordID
	if !s.par {
		buf = s.rids[:0]
	}
	rids, err := v.Table.IndexRange(v.Column, s.keys[m][0], s.keys[m][1], buf)
	if !s.par {
		s.rids = rids
	}
	if err != nil {
		return err
	}
	return k.fill(func(room int) (int, bool, error) {
		batch := rids[:min(room, len(rids))]
		rids = rids[len(batch):]
		n, err := v.Table.DecodeRecords(batch, k.cur.dst, k.rids())
		return n, len(rids) == 0, err
	})
}

// scanTable is the heap table a scan node reads.
func scanTable(n plan.Node) *catalog.Table {
	if v, ok := n.(*plan.IndexScanNode); ok {
		return v.Table
	}
	return n.(*plan.ScanNode).Table
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
		if s.next < len(s.buf) {
			out := s.buf[s.next]
			s.buf[s.next] = nil
			s.next++
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
		s.buf, s.next = s.buf[:0], 0
		if err := s.produce(m, s.push); err != nil {
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
	for i, c := range s.buf[s.next:] {
		s.rc.recycle(c)
		s.buf[s.next+i] = nil
	}
	s.buf, s.next = s.buf[:0], 0
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

// pruned counts the pages a scan left out, and their live rows as rows
// scanned: the scan's row counts are the table's, whatever it skipped.
func (s *morselStream) pruned(ps catalog.PageSet) {
	rows := uint64(ps.PrunedRows)
	ex := s.rc.ex
	ex.Stats.RowsScanned.Add(rows)
	ex.Obs.RowsScanned.Add(rows)
	ex.Obs.PagesPruned.Add(uint64(ps.Pruned))
	if s.prof != nil {
		s.prof.actualRows.Add(int64(rows))
		s.prof.pagesPruned.Add(int64(ps.Pruned))
	}
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
// one output chunk. A prunable probe on an INT key is first handed the
// build keys (joinStep.pruneCol), so it reads only the pages a match
// may lie on — none when the build side is empty (sideways information
// passing; Zhu et al., VLDB 2017). The probe child's scan still
// parallelizes internally; probing itself runs on the consumer
// goroutine, preserving probe order exactly.
type joinOp struct {
	rc    *runCtx
	step  *joinStep
	build BatchOperator
	probe BatchOperator

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
	side, err := drain(ctx, j.rc, j.build, j.step.buildKinds)
	j.build.Close()
	if err != nil {
		return err
	}
	j.side = side
	ids, err := j.keys.ids(side, side.sel, j.step.buildKey, true, nil)
	if err != nil {
		return err
	}
	if col := j.step.pruneCol; col >= 0 {
		if s, ok := j.probe.(*morselStream); ok && !s.opened {
			s.probeBy(col, j.keys.ints)
		}
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
		if j.ids, err = j.keys.ids(pc, pc.sel, j.step.probeKey, false, j.ids); err != nil {
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
		out.layout(j.step.outKinds)
		left, lrows, right, rrows := j.side, j.br, pc, j.pr
		if !j.step.buildIsLeft {
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
		n, ex := uint64(out.n), j.rc.ex
		ex.Stats.RowsJoined.Add(n)
		ex.Obs.RowsJoined.Add(n)
		ex.Obs.ChunksEmitted.Inc()
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
			c.params = a.rc.params
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
	a.rc.ex.Obs.ChunksEmitted.Inc()
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
		all.params = s.rc.params
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

// profiled wraps op when the run's profile has n.
func (rc *runCtx) profiled(op BatchOperator, n plan.Node) BatchOperator {
	if prof := rc.prof.of(n); prof != nil {
		return &profiledOp{in: op, prof: prof}
	}
	return op
}

package exec

import (
	"runtime"
	"sync"
	"sync/atomic"

	"aidb/internal/catalog"
)

// Morsel-driven parallel execution (Leis et al., "Morsel-Driven
// Parallelism", adapted to this streaming executor): every source
// splits its input into fixed-size morsels — page ranges for heap
// scans, key subranges for index scans — and a NumCPU()-bounded worker
// set pulls morsels from a shared cursor (work stealing, no per-morsel
// goroutine). Workers run the fused filter/project transforms inline
// and hand finished chunks through small bounded per-morsel channels;
// the consumer drains morsels in order, so parallel output is
// row-for-row identical to the serial order (see morselStream in
// stream.go). runMorsels below is the barrier-style variant still used
// where a fan-out has no streaming consumer (join build partitioning).

// DefaultMorselRows is the default morsel size, in rows, for
// row-partitioned work and the target chunk size of the streaming
// pipeline. Small enough to stay cache-resident per worker, large
// enough to amortize dispatch.
const DefaultMorselRows = 1024

// DefaultScanMorselPages is the default morsel size, in heap pages, for
// table scans (a 4KiB page holds on the order of a couple hundred small
// rows, so this is roughly DefaultMorselRows worth of decode work).
const DefaultScanMorselPages = 4

// workers resolves the Parallelism knob: 1 (or any negative value)
// pins the serial path, 0 selects runtime.NumCPU(), larger values are
// an explicit worker budget.
func (ex *Executor) workers() int {
	switch {
	case ex.Parallelism == 0:
		return runtime.NumCPU()
	case ex.Parallelism < 1:
		return 1
	default:
		return ex.Parallelism
	}
}

// morselRows resolves the MorselSize knob.
func (ex *Executor) morselRows() int {
	if ex.MorselSize > 0 {
		return ex.MorselSize
	}
	return DefaultMorselRows
}

// scanMorselPages resolves the ScanMorselPages knob.
func (ex *Executor) scanMorselPages() int {
	if ex.ScanMorselPages > 0 {
		return ex.ScanMorselPages
	}
	return DefaultScanMorselPages
}

// chunkBounds splits [0, n) into [lo, hi) ranges of at most size each.
// nil when n == 0.
func chunkBounds(n, size int) [][2]int {
	if n == 0 {
		return nil
	}
	if size < 1 {
		size = 1
	}
	out := make([][2]int, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// runMorsels executes fn(m) for every morsel index in [0, n), on up to
// ex.workers() goroutines pulling indices from a shared atomic cursor.
// The first error wins and remaining morsels are skipped; fn instances
// run concurrently and must only write state owned by their morsel.
// With one worker (or one morsel) it degenerates to a plain loop — the
// serial path shares this code, so Parallelism=1 exercises the exact
// per-morsel logic without goroutines. rc's context is checked before
// every morsel (in both the serial loop and each worker's pull loop),
// so a cancelled run stops within one in-flight morsel per worker and
// workers always drain back through the WaitGroup — no leaks. prof,
// when non-nil, is the operator this fan-out belongs to.
func (ex *Executor) runMorsels(rc *runCtx, prof *OpProfile, n int, fn func(m int) error) error {
	if n == 0 {
		return nil
	}
	workers := ex.workers()
	if workers > n {
		workers = n
	}
	ex.Obs.Morsels.Add(uint64(n))
	if prof != nil {
		prof.morsels.Add(int64(n))
	}
	if workers <= 1 {
		for m := 0; m < n; m++ {
			if err := rc.err(); err != nil {
				return err
			}
			if err := fn(m); err != nil {
				return err
			}
		}
		return nil
	}
	ex.Obs.ParallelOps.Inc()
	ex.Obs.WorkerSpawns.Add(uint64(workers))
	if prof != nil {
		prof.workerSpawns.Add(int64(workers))
	}
	var (
		cursor   atomic.Int64
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			processed := 0
			for {
				m := int(cursor.Add(1)) - 1
				if m >= n || failed.Load() {
					break
				}
				if err := rc.err(); err != nil {
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
					break
				}
				processed++
				if err := fn(m); err != nil {
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
					break
				}
			}
			if prof != nil && processed > 0 {
				prof.busyWorkers.Add(1)
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// joinEntry is one build-side row tagged with its join key.
type joinEntry struct {
	key string
	row catalog.Row
}

// joinBucket holds all build rows sharing one join key. Buckets are
// pointer-valued so inserting into an existing key mutates the bucket
// in place through a no-allocation map lookup — the key string is
// materialized once per distinct key, not once per build row.
type joinBucket struct{ rows []catalog.Row }

// buildPartitioned builds P per-partition hash tables from the build
// side's row sets (one per drained build chunk — passed through as-is,
// never flattened into one big copy). With one partition it builds the
// table directly in a single pass: no intermediate split lists, no
// per-row key-string allocation. With P > 1 it runs two lock-free
// parallel phases: (1) each row-set morsel splits its rows by
// hash(key) % P into morsel-local partition lists; (2) one worker per
// partition merges that partition's lists in morsel order, so rows
// within a key keep build-input order and the probe output matches the
// serial join exactly. No shared map is ever written concurrently.
func (ex *Executor) buildPartitioned(rc *runCtx, prof *OpProfile, rowsets [][]catalog.Row, buildIdx, numParts int) ([]map[string]*joinBucket, error) {
	total := 0
	for _, rs := range rowsets {
		total += len(rs)
	}
	if numParts <= 1 {
		// Serial fast path: each row set is one unit of work (kept on the
		// morsel counters so \metrics sees the same dispatch accounting).
		ex.Obs.Morsels.Add(uint64(len(rowsets)))
		if prof != nil {
			prof.morsels.Add(int64(len(rowsets)))
		}
		ht := make(map[string]*joinBucket, total)
		keyBuf := make([]byte, 0, 64)
		n := 0
		for _, rs := range rowsets {
			if err := rc.err(); err != nil {
				return nil, err
			}
			for _, r := range rs {
				if n > 0 && n%ctxCheckRows == 0 {
					if err := rc.err(); err != nil {
						return nil, err
					}
				}
				n++
				keyBuf = appendValKey(keyBuf[:0], r[buildIdx])
				b := ht[string(keyBuf)] // compiler-optimized: no key alloc
				if b == nil {
					b = &joinBucket{}
					ht[string(keyBuf)] = b
				}
				b.rows = append(b.rows, r)
			}
		}
		return []map[string]*joinBucket{ht}, nil
	}
	split := make([][][]joinEntry, len(rowsets))
	err := ex.runMorsels(rc, prof, len(rowsets), func(m int) error {
		local := make([][]joinEntry, numParts)
		keyBuf := make([]byte, 0, 64)
		for _, r := range rowsets[m] {
			keyBuf = appendValKey(keyBuf[:0], r[buildIdx])
			p := int(hashBytes(keyBuf) % uint64(numParts))
			local[p] = append(local[p], joinEntry{key: string(keyBuf), row: r})
		}
		split[m] = local
		return nil
	})
	if err != nil {
		return nil, err
	}
	tables := make([]map[string]*joinBucket, numParts)
	err = ex.runMorsels(rc, prof, numParts, func(p int) error {
		n := 0
		for m := range split {
			n += len(split[m][p])
		}
		ht := make(map[string]*joinBucket, n)
		for m := range split {
			for _, e := range split[m][p] {
				b := ht[e.key]
				if b == nil {
					b = &joinBucket{}
					ht[e.key] = b
				}
				b.rows = append(b.rows, e.row)
			}
		}
		tables[p] = ht
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tables, nil
}

// splitKeyRange splits the inclusive key range [lo, hi] into up to k
// inclusive subranges in ascending order, each at least minWidth keys
// wide. Width arithmetic is done in uint64 so open-ended planner ranges
// (math.MinInt64, math.MaxInt64) cannot overflow. Concatenating
// subrange scans in order preserves global key order.
func splitKeyRange(lo, hi int64, k int, minWidth uint64) [][2]int64 {
	if lo > hi {
		return nil
	}
	width := uint64(hi) - uint64(lo) // inclusive range holds width+1 keys
	if k > 1 && width/minWidth < uint64(k) {
		k = int(width / minWidth)
	}
	if k <= 1 {
		return [][2]int64{{lo, hi}}
	}
	step := width/uint64(k) + 1
	out := make([][2]int64, 0, k)
	cur := lo
	for {
		rem := uint64(hi) - uint64(cur)
		if rem < step {
			out = append(out, [2]int64{cur, hi})
			return out
		}
		out = append(out, [2]int64{cur, int64(uint64(cur) + step - 1)})
		cur = int64(uint64(cur) + step)
	}
}

// aggPartial is the streaming aggregation state: composable per-group
// partials (count, sum, min, max — AVG finalizes as sum/count), by
// encoded group key and in first-seen order. Chunks fold into it in
// arrival (morsel) order, so group output order is global
// first-occurrence order, identical to the serial accumulation.
type aggPartial struct {
	groups map[string]*aggState
	order  []*aggState
}

func newAggPartial() *aggPartial {
	return &aggPartial{groups: map[string]*aggState{}}
}

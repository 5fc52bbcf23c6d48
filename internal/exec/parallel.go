package exec

import (
	"runtime"
	"sync/atomic"
)

// Morsel-driven parallel execution (Leis et al., "Morsel-Driven
// Parallelism", adapted to this streaming executor): every source
// splits its input into fixed-size morsels — page ranges for heap
// scans, key subranges for index scans — and a worker set pulls morsels
// from a shared cursor (work stealing, no per-morsel goroutine). In auto
// mode the set is as large as GOMAXPROCS (NumCPU unless set) allows,
// counting only the cores no other statement occupies (see cores).
// Workers run the fused filter/project transforms inline and hand
// finished chunks through small bounded per-morsel channels; the
// consumer drains morsels in order, so parallel output is row-for-row
// identical to the serial order (see morselStream in stream.go).

// cores counts the cores this process's statements occupy: one per
// running RunContext, for the goroutine that drains its pipeline, plus
// one per live morsel worker beyond its stream's first — that consumer
// only waits on its workers, so the first runs on the consumer's core.
// It is process-wide because the cores are: two sessions each fanning
// out over every core only make their workers compete with each other.
var cores atomic.Int64

// claimWorkers decides how many workers a stream of n morsels runs and
// claims a core for each beyond the first; each of those workers
// gives its core back when it exits. An explicit Parallelism gets its
// count whatever else runs. Auto mode adds workers only while cores are
// idle and never waits for one: with none idle it returns 1, the serial
// path on the consumer's goroutine.
func (rc *runCtx) claimWorkers(n int) int {
	if n <= 1 {
		return 1 // one morsel, e.g. a point read: skip the GOMAXPROCS lookup
	}
	most := rc.workers()
	w := min(most, n)
	if w <= 1 {
		return 1
	}
	if rc.par != 0 {
		cores.Add(int64(w - 1))
		return w
	}
	for {
		used := cores.Load()
		extra := min(int64(w-1), int64(most)-used)
		if extra <= 0 {
			return 1
		}
		if cores.CompareAndSwap(used, used+extra) {
			return int(extra) + 1
		}
	}
}

// DefaultMorselRows is the default morsel size, in rows, for
// row-partitioned work and the target chunk size of the streaming
// pipeline. Small enough to stay cache-resident per worker, large
// enough to amortize dispatch.
const DefaultMorselRows = 1024

// workers resolves the Parallelism knob to a stream's most workers: 1
// (or any negative value) pins the serial path, 0 (auto) is GOMAXPROCS,
// of which claimWorkers takes only the idle cores, larger values are an
// explicit worker count.
func (rc *runCtx) workers() int {
	switch {
	case rc.par == 0:
		return runtime.GOMAXPROCS(0)
	case rc.par < 1:
		return 1
	default:
		return rc.par
	}
}

// morselRows resolves the MorselSize knob.
func (ex *Executor) morselRows() int {
	if ex.MorselSize > 0 {
		return ex.MorselSize
	}
	return DefaultMorselRows
}

// scanMorselPages resolves the ScanMorselPages knob for a table of
// rowsPerPage live rows a page, at least 1: by default, as many pages as
// hold about a morsel's rows.
func (ex *Executor) scanMorselPages(rowsPerPage int) int {
	if ex.ScanMorselPages > 0 {
		return ex.ScanMorselPages
	}
	return max(1, ex.morselRows()/rowsPerPage)
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

// splitKeyRange splits the inclusive key range [lo, hi] into up to k
// inclusive subranges in ascending order, each at least minWidth keys
// wide, in dst's room. Width arithmetic is done in uint64 so open-ended
// planner ranges (math.MinInt64, math.MaxInt64) cannot overflow.
// Concatenating subrange scans in order preserves global key order.
func splitKeyRange(dst [][2]int64, lo, hi int64, k int, minWidth uint64) [][2]int64 {
	out := dst[:0]
	if lo > hi {
		return out
	}
	width := uint64(hi) - uint64(lo) // inclusive range holds width+1 keys
	if k > 1 && width/minWidth < uint64(k) {
		k = int(width / minWidth)
	}
	if k <= 1 {
		return append(out, [2]int64{lo, hi})
	}
	step := width/uint64(k) + 1
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

package exec

import "runtime"

// Morsel-driven parallel execution (Leis et al., "Morsel-Driven
// Parallelism", adapted to this streaming executor): every source
// splits its input into fixed-size morsels — page ranges for heap
// scans, key subranges for index scans — and a NumCPU()-bounded worker
// set pulls morsels from a shared cursor (work stealing, no per-morsel
// goroutine). Workers run the fused filter/project transforms inline
// and hand finished chunks through small bounded per-morsel channels;
// the consumer drains morsels in order, so parallel output is
// row-for-row identical to the serial order (see morselStream in
// stream.go).

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

package exec

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"aidb/internal/catalog"
	"aidb/internal/storage"
)

// kind is the element type of a column vector, fixed per plan column at
// compile time.
type kind uint8

const (
	// kNone marks a column the plan does not read: it has no vector, and
	// an expression that reads it fails to bind.
	kNone   kind = iota
	kInt         // int64, in vec.I
	kFloat       // float64, in vec.F
	kString      // string, in vec.S
	// kAny holds boxed values whose type is not fixed until they exist:
	// scalar-function results, virtual-table cells, arithmetic over them.
	kAny
)

// kindOf is the vector kind a stored column decodes into.
func kindOf(t catalog.ColType) kind {
	switch t {
	case catalog.Int64:
		return kInt
	case catalog.Float64:
		return kFloat
	default:
		return kString
	}
}

// width is a cell's size in a vector of kind k, for memory accounting.
func (k kind) width() int64 {
	switch k {
	case kInt, kFloat:
		return 8
	case kString, kAny:
		return 16
	}
	return 0
}

// vec is one column of a chunk, indexed by physical row: the typed slice
// of its kind (from the embedded catalog.Vector, which decoders fill) or,
// for kAny, V.
type vec struct {
	catalog.Vector
	V []catalog.Value
	k kind
}

func (v *vec) reset(k kind) {
	v.Reset()
	v.V = v.V[:0]
	v.k = k
}

// value boxes the cell at physical row r.
func (v *vec) value(r int32) catalog.Value {
	switch v.k {
	case kInt:
		return v.I[r]
	case kFloat:
		return v.F[r]
	case kString:
		return v.S[r]
	default:
		return v.V[r]
	}
}

// gather appends src's cells at rows, in order.
func (v *vec) gather(src *vec, rows []int32) {
	switch v.k {
	case kInt:
		for _, r := range rows {
			v.I = append(v.I, src.I[r])
		}
	case kFloat:
		for _, r := range rows {
			v.F = append(v.F, src.F[r])
		}
	case kString:
		for _, r := range rows {
			v.S = append(v.S, src.S[r])
		}
	default:
		for _, r := range rows {
			v.V = append(v.V, src.V[r])
		}
	}
}

// extend lengthens v to n cells, keeping its cells and zeroing the new
// ones.
func (v *vec) extend(n int) {
	switch v.k {
	case kInt:
		v.I = extend(v.I, n)
	case kFloat:
		v.F = extend(v.F, n)
	case kString:
		v.S = extend(v.S, n)
	default:
		v.V = extend(v.V, n)
	}
}

func extend[T any](s []T, n int) []T {
	if n > len(s) {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// Chunk is the unit of data flow in the streaming executor: a batch of
// rows held column by column. Every vector has n cells, one per physical
// row; sel lists the rows that are live, in output order, so a filter
// narrows sel without moving a cell and a sort permutes it. A column the
// plan does not read has no vector (nil), a DML plan's chunks carry
// each row's record id in rids, and nothing is boxed until the result.
//
// Ownership is linear: exactly one operator owns a chunk at a time, and
// passes it downstream or recycles it (its vectors are then reused).
// A chunk's cells stay valid until it is recycled; strings taken from it
// stay valid for good (see catalog.Vector).
type Chunk struct {
	n    int
	sel  []int32
	cols []*vec
	rids []storage.RecordID

	// own holds every vector this chunk has allocated, the first used in
	// use; newVec hands them out again after a reset.
	own  []*vec
	used int
	// spare is the column list a projection builds before it swaps it
	// with cols.
	spare []*vec
	// args is the argument stack of the scalar-function calls the worker
	// owning the chunk evaluates over it: one slice, reused row by row.
	// cells holds the numbers among them, which are boxed in place.
	args  []catalog.Value
	cells []uint64

	// charged is the byte count this chunk currently holds against the
	// run's memory budget (0 = uncharged). Set by runCtx.chargeEmit,
	// refunded by runCtx.recycle.
	charged int64
	// released guards against double-put: true while the chunk sits in
	// the free list.
	released bool
	// src is the pool the chunk came from; nil for static chunks
	// (aggregate, sort and join-build outputs) that are never pooled.
	src *chunkPool
}

// Len is the number of live rows in the chunk.
func (c *Chunk) Len() int { return len(c.sel) }

// newVec returns an empty vector of kind k owned by c.
func (c *Chunk) newVec(k kind) *vec {
	if c.used == len(c.own) {
		c.own = append(c.own, &vec{})
	}
	v := c.own[c.used]
	c.used++
	v.reset(k)
	return v
}

// layout gives c one fresh vector per column of kinds, none where the
// kind is kNone. Vectors a fresh chunk lacks are allocated in one block.
func (c *Chunk) layout(kinds []kind) {
	if n := len(kinds); cap(c.cols) < n {
		// The column list and the one a projection builds share a block.
		buf := make([]*vec, 2*n)
		c.cols, c.spare = buf[:0:n], buf[n:n]
	}
	c.cols = c.cols[:0]
	if short := len(kinds) - (len(c.own) - c.used); short > 0 {
		block := make([]vec, short)
		c.own = slices.Grow(c.own, short)
		for i := range block {
			c.own = append(c.own, &block[i])
		}
	}
	for _, k := range kinds {
		var v *vec
		if k != kNone {
			v = c.newVec(k)
		}
		c.cols = append(c.cols, v)
	}
}

// selectAll makes every physical row live, in order.
func (c *Chunk) selectAll() {
	c.sel = slices.Grow(c.sel[:0], c.n)
	for r := 0; r < c.n; r++ {
		c.sel = append(c.sel, int32(r))
	}
}

// bytes is the chunk's exact vector footprint: n cells of every column's
// width, plus the selection and record ids.
func (c *Chunk) bytes() int64 {
	per := int64(4)
	for _, v := range c.cols {
		if v != nil {
			per += v.k.width()
		}
	}
	if len(c.rids) > 0 {
		per += 16
	}
	return int64(c.n) * per
}

// reset clears the chunk for reuse, keeping every vector's capacity.
func (c *Chunk) reset() {
	c.n, c.used, c.charged = 0, 0, 0
	c.sel, c.cols, c.rids, c.args, c.cells = c.sel[:0], c.cols[:0], c.rids[:0], c.args[:0], c.cells[:0]
}

// maxPoolChunks bounds the free list; beyond it returned chunks are
// dropped for the GC. A pipeline keeps at most a couple of chunks per
// worker in flight, so 32 covers every configuration without pinning
// unbounded vectors.
const maxPoolChunks = 32

// chunkPool is a per-run free list of chunks. It meters hits and
// misses onto the executor's obs registry and keeps a local get/put
// balance so tests can assert no chunk leaks across cancellation and
// budget-abort teardowns.
type chunkPool struct {
	mu   sync.Mutex
	free []*Chunk
	// m points at the owning executor's metrics (nil-field metrics are
	// no-ops, so an uninstrumented run pays only the pointer check).
	m *Metrics

	gets atomic.Int64
	puts atomic.Int64
}

// get returns a reset chunk, reusing a pooled one when available.
func (p *chunkPool) get() *Chunk {
	p.gets.Add(1)
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		if p.m != nil {
			p.m.ChunkPoolHits.Inc()
		}
		c.released = false
		return c
	}
	p.mu.Unlock()
	if p.m != nil {
		p.m.ChunkPoolMisses.Inc()
	}
	return &Chunk{src: p}
}

// put returns a chunk to the free list. Double puts and puts of static
// chunks are no-ops.
func (p *chunkPool) put(c *Chunk) {
	if c == nil || c.released || c.src != p {
		return
	}
	c.released = true
	c.reset()
	p.puts.Add(1)
	p.mu.Lock()
	if len(p.free) < maxPoolChunks {
		p.free = append(p.free, c)
	}
	p.mu.Unlock()
}

// outstanding is the number of chunks handed out and not returned —
// zero after a fully torn-down run, leaks otherwise.
func (p *chunkPool) outstanding() int64 {
	return p.gets.Load() - p.puts.Load()
}

// box renders c's live rows, in order, as rows of boxed values. The
// numbers and strings are copied into one slab each and every value
// points into its slab, so a chunk boxes in a handful of allocations,
// not one per cell. Nothing writes a slab afterwards.
func (c *Chunk) box() []catalog.Row {
	w, n := len(c.cols), len(c.sel)
	var numCols, strCols int
	for _, v := range c.cols {
		switch v.k {
		case kInt, kFloat:
			numCols++
		case kString:
			strCols++
		}
	}
	nums := make([]uint64, 0, n*numCols)
	strs := make([]string, 0, n*strCols)
	vals := make([]catalog.Value, n*w)
	for j, v := range c.cols {
		for i, r := range c.sel {
			var x catalog.Value
			switch v.k {
			case kInt:
				nums = append(nums, uint64(v.I[r]))
				x = boxAt(intType, unsafe.Pointer(&nums[len(nums)-1]))
			case kFloat:
				nums = append(nums, math.Float64bits(v.F[r]))
				x = boxAt(floatType, unsafe.Pointer(&nums[len(nums)-1]))
			case kString:
				strs = append(strs, v.S[r])
				x = boxAt(stringType, unsafe.Pointer(&strs[len(strs)-1]))
			default:
				x = v.V[r]
			}
			vals[i*w+j] = x
		}
	}
	rows := make([]catalog.Row, n)
	for i := range rows {
		rows[i] = vals[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

// eface is the runtime's layout of an interface{} value: a type word and
// a pointer to the value (for int64, float64 and string, which are not
// pointer-shaped).
type eface struct{ typ, data unsafe.Pointer }

func typeWord[T any]() unsafe.Pointer {
	var v any = *new(T)
	return (*eface)(unsafe.Pointer(&v)).typ
}

var intType, floatType, stringType = typeWord[int64](), typeWord[float64](), typeWord[string]()

// boxAt is the interface holding the value of type typ at p — what
// boxing copies the value into a fresh allocation to make — for a p
// nothing writes again.
func boxAt(typ, p unsafe.Pointer) catalog.Value {
	var v catalog.Value
	*(*eface)(unsafe.Pointer(&v)) = eface{typ: typ, data: p}
	return v
}

// arg evaluates b on row r as a scalar-function argument. A number is
// boxed in place, from a cell pushed on the chunk's stack, instead of
// copied to the heap: the next row reuses the cell, which is why a
// ScalarFunc may use its arguments only during the call.
func (c *Chunk) arg(b *bound, r int32) (catalog.Value, error) {
	var typ unsafe.Pointer
	var bits uint64
	switch b.k {
	case kInt:
		x, err := b.int(c, r)
		if err != nil {
			return nil, err
		}
		typ, bits = intType, uint64(x)
	case kFloat:
		x, err := b.float(c, r)
		if err != nil {
			return nil, err
		}
		typ, bits = floatType, math.Float64bits(x)
	default:
		return b.value(c, r)
	}
	c.cells = append(c.cells, bits)
	return boxAt(typ, unsafe.Pointer(&c.cells[len(c.cells)-1])), nil
}

// keepArg returns a function's result v, copied out when it is one of
// the arguments arg boxed in place at cells[from:] (a function that
// returns its argument), so it outlives the row.
func (c *Chunk) keepArg(v catalog.Value, from int) catalog.Value {
	if from == len(c.cells) {
		return v
	}
	p := uintptr((*eface)(unsafe.Pointer(&v)).data)
	if p < uintptr(unsafe.Pointer(&c.cells[from])) || p > uintptr(unsafe.Pointer(&c.cells[len(c.cells)-1])) {
		return v
	}
	switch x := v.(type) {
	case int64:
		return x
	case float64:
		return x
	}
	return v
}

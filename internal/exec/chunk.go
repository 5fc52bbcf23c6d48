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
	// per-row scalar-function results, virtual-table cells, arithmetic
	// over them.
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
	// dst is cols as a page decoder takes them, nil where the plan reads
	// nothing: set by the scan filling the chunk.
	dst []*catalog.Vector
	// params are the values of the $N of the run evaluating expressions
	// over the chunk, set by each operator before it evaluates.
	params []catalog.Value
	// args is the argument stack of the scalar-function calls the worker
	// owning the chunk evaluates over it: one slice, reused row by row.
	// cells holds the numbers among them, which are boxed in place.
	args  []catalog.Value
	cells []uint64
	// floats is the stack of the chunk-form calls evaluated over the
	// chunk: their arguments gathered as float64 columns, headed in vargs,
	// and their results. A selecting call heads its arguments in vargs
	// and iargs, one of the two set per argument. one is the selection of
	// a call made for a single row.
	floats []float64
	vargs  [][]float64
	iargs  [][]int64
	one    [1]int32

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
func (c *Chunk) selectAll() { c.sel = append(c.sel[:0], ascending(c.n)...) }

// ascendingRows holds 0, 1, 2, ..., shared by every chunk and never
// written once stored; ascending grows it when a chunk is longer (a
// chunk may pass the morsel size by up to one page's rows).
var ascendingRows atomic.Pointer[[]int32]

// ascending returns 0, 1, ..., n-1, read-only.
func ascending(n int) []int32 {
	p := ascendingRows.Load()
	if p != nil && len(*p) >= n {
		return (*p)[:n]
	}
	size := max(n, 4096)
	if p != nil {
		size = max(size, 2*len(*p))
	}
	s := make([]int32, size)
	for i := range s {
		s[i] = int32(i)
	}
	ascendingRows.Store(&s)
	return s[:n]
}

// bytes is the chunk's exact vector footprint: n cells of every column's
// width, plus the selection and record ids, plus the codes and
// dictionary entries of the dictionary-coded columns.
func (c *Chunk) bytes() int64 {
	per, coded := int64(4), int64(0)
	for _, v := range c.cols {
		if v != nil {
			per += v.k.width()
			coded += 4*int64(len(v.Codes)) + 16*int64(len(v.Dict))
		}
	}
	if len(c.rids) > 0 {
		per += 16
	}
	return int64(c.n)*per + coded
}

// reset clears the chunk for reuse, keeping every vector's capacity.
func (c *Chunk) reset() {
	c.n, c.used, c.charged, c.params = 0, 0, 0, nil
	c.sel, c.cols, c.rids, c.args, c.cells = c.sel[:0], c.cols[:0], c.rids[:0], c.args[:0], c.cells[:0]
	c.floats, c.vargs, c.iargs = c.floats[:0], c.vargs[:0], c.iargs[:0]
}

// pushFloats returns n cells from the top of the chunk's float stack. The
// caller pops them, and anything pushed above them, by truncating floats
// to the length it found.
func (c *Chunk) pushFloats(n int) []float64 {
	base := len(c.floats)
	c.floats = slices.Grow(c.floats, n)[:base+n]
	return c.floats[base : base+n : base+n]
}

// maxPoolChunks bounds the free list; beyond it returned chunks are
// dropped for the GC. A pipeline keeps at most a couple of chunks per
// worker in flight, so 32 covers every configuration without pinning
// unbounded vectors.
const maxPoolChunks = 32

// chunkPool is a run's free list of chunks. It is part of the run state
// later runs recycle (see runCtx), so its chunks keep their vectors'
// capacity from run to run. It meters hits and misses onto the
// executor's obs registry and keeps a get/put balance, reset for each
// run, so tests can assert no chunk leaks across cancellation and
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

// box renders c's live rows, in order, as rows of boxed values. Every
// cell's value is copied into one slab of string headers and every
// value points into it: a string as itself, a number as its bits in the
// length word of a header whose pointer word stays nil, the word the
// collector scans. So a chunk boxes in three allocations (slab, values,
// rows), not one per cell, and a point read's one row in one. Nothing
// writes the slab afterwards.
func (c *Chunk) box() []catalog.Row {
	w, n := len(c.cols), len(c.sel)
	inSlab := 0
	for _, v := range c.cols {
		switch v.k {
		case kInt, kFloat, kString:
			inSlab++
		}
	}
	var rows []catalog.Row
	var vals []catalog.Value
	var slab []string
	if n == 1 && w <= maxOneRowCols {
		one := new(oneRow)
		rows, vals, slab = one.row[:], one.vals[:w], one.slab[:inSlab]
	} else {
		rows, vals, slab = make([]catalog.Row, n), make([]catalog.Value, n*w), make([]string, n*inSlab)
	}
	k := 0
	for j, v := range c.cols {
		for i, r := range c.sel {
			var x catalog.Value
			switch v.k {
			case kInt:
				x = boxWord(&slab[k], intType, uint64(v.I[r]))
				k++
			case kFloat:
				x = boxWord(&slab[k], floatType, math.Float64bits(v.F[r]))
				k++
			case kString:
				slab[k] = v.S[r]
				x = boxAt(stringType, unsafe.Pointer(&slab[k]))
				k++
			default:
				x = v.V[r]
			}
			vals[i*w+j] = x
		}
	}
	for i := range rows {
		rows[i] = vals[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

// oneRow is what box allocates for a chunk of one row and at most
// maxOneRowCols columns: the row, its values and their slab together.
type oneRow struct {
	row  [1]catalog.Row
	vals [maxOneRowCols]catalog.Value
	slab [maxOneRowCols]string
}

const maxOneRowCols = 4

// boxWord is the value of type typ (int64 or float64) whose bits are
// bits, held in the length word of the string header at h.
func boxWord(h *string, typ unsafe.Pointer, bits uint64) catalog.Value {
	words := (*[2]uint64)(unsafe.Pointer(h))
	words[1] = bits
	return boxAt(typ, unsafe.Pointer(&words[1]))
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

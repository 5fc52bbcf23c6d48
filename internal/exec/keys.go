package exec

import (
	"encoding/binary"
	"fmt"
	"math"

	"aidb/internal/catalog"
)

// Join, GROUP BY and DISTINCT number each row's key: a keyMap gives every
// distinct key an id, in first-seen order, by a strategy fixed per plan
// from the key expressions' kinds. A single key column hashes its typed
// value (an int64, a float64's bits, a string); a composite or boxed key
// hashes one byte encoding of its parts. Probing allocates nothing; only
// a new byte-encoded key is copied into the map. A single string key is
// looked up in a small memo first: grouping columns usually repeat a few
// values row after row, and comparing a short string costs less than
// hashing it, and a single string column that arrives dictionary-coded
// (see catalog.Vector) is looked up once per dictionary entry a chunk
// uses, not once per row.

// keyMode is how a keyMap hashes.
type keyMode uint8

const (
	// keyNone matches nothing: a join of a string column with a number.
	keyNone keyMode = iota
	keyInt
	keyFloat
	keyString
	keyBytes
)

// groupKeyMode is the strategy for grouping or deduplicating on keys:
// rows are one group when every key is the same value of the same type.
func groupKeyMode(keys []bound) keyMode {
	if len(keys) == 1 {
		switch keys[0].k {
		case kInt:
			return keyInt
		case kFloat:
			return keyFloat
		case kString:
			return keyString
		}
	}
	return keyBytes
}

// joinKeyMode is the strategy for an equi-join of keys of kinds a and b:
// pairs match exactly when = holds of them. Two integer keys compare as
// int64, so values above 2^53 never collide; a float on either side
// compares both as float64, as compare promotes them.
func joinKeyMode(a, b kind) keyMode {
	switch {
	case a == kAny || b == kAny:
		return keyBytes
	case a == kInt && b == kInt:
		return keyInt
	case a.numeric() && b.numeric():
		return keyFloat
	case a == kString && b == kString:
		return keyString
	}
	return keyNone
}

// keyMap numbers distinct keys.
type keyMap struct {
	mode keyMode
	// join makes keys match as = does: -0 equals 0, an integer equals
	// the float it converts to, and NULL equals nothing.
	join bool
	ints map[int64]int32
	bits map[uint64]int32
	strs map[string]int32
	n    int32 // ids handed out
	buf  []byte
	// memo caches keys of strs with their ids, in keyString mode: direct
	// mapped by memoSlot, an entry replaced by the next key to land on it.
	// It holds only keys strs has, so a probe without add never inserts.
	// A keyMap is used by one goroutine at a time, so it needs no lock.
	memo *[memoSize]memoEntry
	// byCode is, in keyString mode, scratch for a chunk whose key column
	// is dictionary-coded: per entry of the column's Dict, its key's id,
	// or unseen.
	byCode []int32
}

// unseen marks a dictionary entry whose key's id is not yet looked up.
const unseen = -2

const memoSize = 64

type memoEntry struct {
	key string
	id  int32
	set bool
}

// memoSlot hashes s's length and first and last bytes to a memo entry.
func memoSlot(s string) int {
	h := uint32(len(s))
	if len(s) > 0 {
		h = h<<16 | uint32(s[0])<<8 | uint32(s[len(s)-1])
	}
	return int(h * 0x9E3779B1 >> 26) // Fibonacci hashing: the top log2(memoSize) bits
}

func newKeyMap(mode keyMode, join bool) *keyMap {
	m := &keyMap{mode: mode, join: join, ints: map[int64]int32{}, bits: map[uint64]int32{}, strs: map[string]int32{}}
	if mode == keyString {
		m.memo = new([memoSize]memoEntry)
	}
	return m
}

// findString is find on strs, through the memo.
func (m *keyMap) findString(s string, add bool) int32 {
	e := &m.memo[memoSlot(s)]
	if e.set && e.key == s {
		return e.id
	}
	id := find(m.strs, s, add, &m.n)
	if id >= 0 {
		*e = memoEntry{key: s, id: id, set: true}
	}
	return id
}

// find returns k's id in m, giving a new key the next id when add is set
// and -1 otherwise.
func find[K comparable](m map[K]int32, k K, add bool, n *int32) int32 {
	if id, ok := m[k]; ok {
		return id
	}
	if !add {
		return -1
	}
	id := *n
	*n++
	m[k] = id
	return id
}

// ids appends to out the key id of each row of sel, in order — the key
// being keys evaluated on the row — and returns it. With add, keys not
// seen before get new ids; without, they get -1, as does a row whose
// key can match nothing.
func (m *keyMap) ids(c *Chunk, sel []int32, keys []bound, add bool, out []int32) ([]int32, error) {
	out = out[:0]
	k := &keys[0]
	if m.mode == keyString && k.col >= 0 {
		if v := &c.cols[k.col].Vector; v.Coded() {
			return m.codeIDs(v, sel, add, out), nil
		}
	}
	for _, r := range sel {
		id := int32(-1)
		switch m.mode {
		case keyInt:
			x, err := k.int(c, r)
			if err != nil {
				return nil, err
			}
			id = find(m.ints, x, add, &m.n)
		case keyFloat:
			x, err := k.float(c, r)
			if err != nil {
				return nil, err
			}
			if m.join && x == 0 {
				x = 0 // -0 too
			}
			id = find(m.bits, math.Float64bits(x), add, &m.n)
		case keyString:
			id = m.findString(k.str(c, r), add)
		case keyBytes:
			m.buf = m.buf[:0]
			ok := true
			for i := 0; i < len(keys) && ok; i++ {
				var err error
				if m.buf, ok, err = m.appendKey(m.buf, &keys[i], c, r); err != nil {
					return nil, err
				}
			}
			if !ok {
				break
			}
			if got, found := m.strs[string(m.buf)]; found {
				id = got
			} else if add {
				id = m.n
				m.n++
				m.strs[string(m.buf)] = id
			}
		}
		out = append(out, id)
	}
	return out, nil
}

// codeIDs is ids for a single string key column v that is
// dictionary-coded: the id of each entry is looked up the first time a
// row of sel has it, so an entry no row has is never added.
func (m *keyMap) codeIDs(v *catalog.Vector, sel []int32, add bool, out []int32) []int32 {
	byCode := extend(m.byCode[:0], len(v.Dict))
	for i := range byCode {
		byCode[i] = unseen
	}
	m.byCode = byCode
	for _, r := range sel {
		code := v.Codes[r]
		id := byCode[code]
		if id == unseen {
			id = m.findString(v.Dict[code], add)
			byCode[code] = id
		}
		out = append(out, id)
	}
	return out
}

// appendKey appends one key part's encoding to b: a type tag, then the
// value — eight bytes for a number, a length-prefixed string — so parts
// cannot run into each other. ok is false for a join key that matches
// nothing (NULL).
func (m *keyMap) appendKey(b []byte, k *bound, c *Chunk, r int32) (_ []byte, ok bool, err error) {
	switch k.k {
	case kInt:
		x, err := k.int(c, r)
		return m.appendInt(b, x), true, err
	case kFloat:
		x, err := k.float(c, r)
		return m.appendFloat(b, x), true, err
	case kString:
		return appendString(b, k.str(c, r)), true, nil
	}
	v, err := k.value(c, r)
	switch x := v.(type) {
	case int64:
		return m.appendInt(b, x), true, err
	case float64:
		return m.appendFloat(b, x), true, err
	case string:
		return appendString(b, x), true, err
	case nil:
		return append(b, 'n'), !m.join, err
	default:
		return fmt.Appendf(append(b, 'x'), "%T|%v|", v, v), true, err
	}
}

// appendInt encodes an integer; in a join, one that converts to a
// float64 exactly is encoded as that float, so it meets its float self.
func (m *keyMap) appendInt(b []byte, x int64) []byte {
	if f := float64(x); m.join && f >= math.MinInt64 && f < math.MaxInt64 && int64(f) == x {
		return m.appendFloat(b, f)
	}
	return binary.LittleEndian.AppendUint64(append(b, 'i'), uint64(x))
}

func (m *keyMap) appendFloat(b []byte, x float64) []byte {
	if m.join && x == 0 {
		x = 0 // -0 too
	}
	return binary.LittleEndian.AppendUint64(append(b, 'f'), math.Float64bits(x))
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(append(b, 's'), uint64(len(s))), s...)
}

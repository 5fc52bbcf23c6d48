// Package index implements an in-memory B+tree over int64 keys. It is the
// traditional index baseline that the learned indexes in
// internal/learnedidx are measured against (experiment E9), and it backs
// the secondary indexes a catalog table keeps.
package index

import (
	"errors"
	"slices"
	"sort"
)

// DefaultOrder is the fan-out used when BTree.Order is zero.
const DefaultOrder = 64

// ErrNotFound is returned by Get for missing keys.
var ErrNotFound = errors.New("index: key not found")

// BTree is a B+tree of (key, value) pairs, ordered by key and then by
// value: a key may hold many values, and each pair is stored once. With
// unique keys it maps each key to its value; keyed by a column value with
// packed record ids as values, it is a secondary index.
type BTree struct {
	// Order is the maximum number of keys per node (default DefaultOrder).
	Order int

	root *node
	size int
}

type node struct {
	leaf bool
	keys []int64
	// values are a leaf's entries' values and an internal node's
	// separators' values: entry or separator i is (keys[i], values[i]).
	// Separators are pairs, so a run of equal keys may span leaves.
	values   []uint64
	children []*node // internal nodes: len(keys)+1 children
	next     *node   // leaf chain for range scans
}

// less reports whether pair (k1, v1) orders before (k2, v2).
func less(k1 int64, v1 uint64, k2 int64, v2 uint64) bool {
	return k1 < k2 || k1 == k2 && v1 < v2
}

// child returns the position, in internal node n, of the child whose
// pairs range over (k, v): the number of separators at or below it.
func (n *node) child(k int64, v uint64) int {
	return sort.Search(len(n.keys), func(i int) bool { return less(k, v, n.keys[i], n.values[i]) })
}

// lowerBound returns the position of leaf n's first pair at or after (k, v).
func (n *node) lowerBound(k int64, v uint64) int {
	return sort.Search(len(n.keys), func(i int) bool { return !less(n.keys[i], n.values[i], k, v) })
}

// NewBTree creates an empty tree with the given order (0 = DefaultOrder).
func NewBTree(order int) *BTree {
	if order == 0 {
		order = DefaultOrder
	}
	if order < 3 {
		order = 3
	}
	return &BTree{Order: order, root: &node{leaf: true}}
}

// Len reports the number of stored pairs.
func (t *BTree) Len() int { return t.size }

// Height reports the tree height (1 for a lone leaf).
func (t *BTree) Height() int {
	h, n := 1, t.root
	for !n.leaf {
		n = n.children[0]
		h++
	}
	return h
}

// NodeCount counts all nodes, a proxy for index memory footprint.
func (t *BTree) NodeCount() int {
	var walk func(n *node) int
	walk = func(n *node) int {
		c := 1
		for _, ch := range n.children {
			c += walk(ch)
		}
		return c
	}
	return walk(t.root)
}

// SizeBytes approximates the tree's memory footprint.
func (t *BTree) SizeBytes() int {
	var walk func(n *node) int
	walk = func(n *node) int {
		s := 48 + 8*len(n.keys) + 8*len(n.values) + 8*len(n.children)
		for _, ch := range n.children {
			s += walk(ch)
		}
		return s
	}
	return walk(t.root)
}

// seek returns the leaf and position of the first pair at or after
// (k, v), or a nil leaf when there is none. The leaf whose range holds
// (k, v) may end before it; the pair is then the next leaf's first.
func (t *BTree) seek(k int64, v uint64) (*node, int) {
	n := t.root
	for !n.leaf {
		n = n.children[n.child(k, v)]
	}
	i := n.lowerBound(k, v)
	for n != nil && i == len(n.keys) {
		n, i = n.next, 0
	}
	return n, i
}

// Get returns the least value stored under key.
func (t *BTree) Get(key int64) (uint64, error) {
	if n, i := t.seek(key, 0); n != nil && n.keys[i] == key {
		return n.values[i], nil
	}
	return 0, ErrNotFound
}

// Put stores the pair (key, value); a pair already stored is left as it is.
func (t *BTree) Put(key int64, value uint64) {
	if len(t.root.keys) >= t.Order {
		r := &node{children: []*node{t.root}}
		t.splitChild(r, 0)
		t.root = r
	}
	n := t.root
	for !n.leaf {
		i := n.child(key, value)
		if len(n.children[i].keys) >= t.Order {
			t.splitChild(n, i)
			if !less(key, value, n.keys[i], n.values[i]) {
				i++
			}
		}
		n = n.children[i]
	}
	i := n.lowerBound(key, value)
	if i < len(n.keys) && n.keys[i] == key && n.values[i] == value {
		return
	}
	n.keys = slices.Insert(n.keys, i, key)
	n.values = slices.Insert(n.values, i, value)
	t.size++
}

// splitChild splits parent.children[i], which must be full.
func (t *BTree) splitChild(parent *node, i int) {
	child := parent.children[i]
	mid := len(child.keys) / 2
	var right *node
	var upKey int64
	var upValue uint64
	if child.leaf {
		right = &node{
			leaf:   true,
			keys:   append([]int64(nil), child.keys[mid:]...),
			values: append([]uint64(nil), child.values[mid:]...),
			next:   child.next,
		}
		child.keys = child.keys[:mid]
		child.values = child.values[:mid]
		child.next = right
		upKey, upValue = right.keys[0], right.values[0]
	} else {
		moved := child.children[mid+1:]
		right = &node{
			keys:     append([]int64(nil), child.keys[mid+1:]...),
			values:   append([]uint64(nil), child.values[mid+1:]...),
			children: append([]*node(nil), moved...),
		}
		// The left half's array must not keep the moved subtrees alive
		// once Delete unlinks them from the right half.
		clear(moved)
		upKey, upValue = child.keys[mid], child.values[mid]
		child.keys = child.keys[:mid]
		child.values = child.values[:mid]
		child.children = child.children[:mid+1]
	}
	parent.keys = slices.Insert(parent.keys, i, upKey)
	parent.values = slices.Insert(parent.values, i, upValue)
	parent.children = slices.Insert(parent.children, i+1, right)
}

// Delete removes the pair (key, value), reporting whether it was
// present. Underflowed nodes are tolerated (lazy deletion), matching
// common in-memory B+tree implementations, but a leaf left empty is
// unlinked — and with it any ancestor left without children — so a tree
// whose keys come and go (ascending inserts, oldest deleted) does not
// keep a shell per dead key range.
func (t *BTree) Delete(key int64, value uint64) bool {
	// path[d] is the internal node at depth d, at[d] the child taken.
	var path []*node
	var at []int
	n := t.root
	for !n.leaf {
		i := n.child(key, value)
		path, at = append(path, n), append(at, i)
		n = n.children[i]
	}
	i := n.lowerBound(key, value)
	if i >= len(n.keys) || n.keys[i] != key || n.values[i] != value {
		return false
	}
	n.keys = slices.Delete(n.keys, i, i+1)
	n.values = slices.Delete(n.values, i, i+1)
	t.size--
	if len(n.keys) > 0 || len(path) == 0 {
		return true
	}
	// Out of the leaf chain: the leaf before n is the rightmost one under
	// the nearest left sibling on the path.
	for d := len(path) - 1; d >= 0; d-- {
		if at[d] > 0 {
			prev := path[d].children[at[d]-1]
			for !prev.leaf {
				prev = prev.children[len(prev.children)-1]
			}
			prev.next = n.next
			break
		}
	}
	n.next = nil // a dead leaf must not hold on to the ones after it
	// Out of the parent, with the separator that bounded it.
	for d := len(path) - 1; d >= 0; d-- {
		p, i := path[d], at[d]
		p.children = slices.Delete(p.children, i, i+1)
		if len(p.keys) > 0 {
			k := max(i-1, 0)
			p.keys = slices.Delete(p.keys, k, k+1)
			p.values = slices.Delete(p.values, k, k+1)
		}
		if len(p.children) > 0 {
			return true
		}
	}
	t.root = &node{leaf: true}
	return true
}

// Range calls fn for every pair whose key lies in [lo, hi], in (key,
// value) order; returning false stops the scan.
func (t *BTree) Range(lo, hi int64, fn func(key int64, value uint64) bool) {
	for n, i := t.seek(lo, 0); n != nil; n, i = n.next, 0 {
		for ; i < len(n.keys); i++ {
			if n.keys[i] > hi || !fn(n.keys[i], n.values[i]) {
				return
			}
		}
	}
}

// BulkLoad builds a tree from sorted unique keys more efficiently than
// repeated Put calls. It panics if keys are unsorted or duplicated.
func BulkLoad(order int, keys []int64, values []uint64) *BTree {
	t := NewBTree(order)
	for i, k := range keys {
		if i > 0 && keys[i-1] >= k {
			panic("index: BulkLoad requires strictly ascending keys")
		}
		t.Put(k, values[i])
	}
	return t
}

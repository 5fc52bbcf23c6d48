// Package index implements an in-memory B+tree over int64 keys. It is the
// traditional index baseline that the learned indexes in
// internal/learnedidx are measured against (experiment E9), and it backs
// secondary indexes recommended by the index advisor.
package index

import (
	"errors"
	"sort"
)

// DefaultOrder is the fan-out used when BTree.Order is zero.
const DefaultOrder = 64

// ErrNotFound is returned by Get for missing keys.
var ErrNotFound = errors.New("index: key not found")

// BTree is a B+tree mapping int64 keys to uint64 values (typically packed
// record ids or row offsets). Duplicate keys overwrite.
type BTree struct {
	// Order is the maximum number of keys per node (default DefaultOrder).
	Order int

	root *node
	size int
}

type node struct {
	leaf     bool
	keys     []int64
	children []*node  // internal nodes: len(keys)+1 children
	values   []uint64 // leaf nodes
	next     *node    // leaf chain for range scans
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

// Len reports the number of stored keys.
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

// Get returns the value stored under key.
func (t *BTree) Get(key int64) (uint64, error) {
	n := t.root
	for !n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool { return key < n.keys[i] })
		n = n.children[i]
	}
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
	if i < len(n.keys) && n.keys[i] == key {
		return n.values[i], nil
	}
	return 0, ErrNotFound
}

// Put inserts or overwrites key.
func (t *BTree) Put(key int64, value uint64) {
	r := t.root
	if len(r.keys) >= t.Order {
		newRoot := &node{children: []*node{r}}
		t.splitChild(newRoot, 0)
		t.root = newRoot
	}
	t.insertNonFull(t.root, key, value)
}

func (t *BTree) insertNonFull(n *node, key int64, value uint64) {
	for !n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool { return key < n.keys[i] })
		child := n.children[i]
		if len(child.keys) >= t.Order {
			t.splitChild(n, i)
			if key >= n.keys[i] {
				i++
			}
		}
		n = n.children[i]
	}
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
	if i < len(n.keys) && n.keys[i] == key {
		n.values[i] = value
		return
	}
	n.keys = append(n.keys, 0)
	n.values = append(n.values, 0)
	copy(n.keys[i+1:], n.keys[i:])
	copy(n.values[i+1:], n.values[i:])
	n.keys[i] = key
	n.values[i] = value
	t.size++
}

// splitChild splits parent.children[i], which must be full.
func (t *BTree) splitChild(parent *node, i int) {
	child := parent.children[i]
	mid := len(child.keys) / 2
	var right *node
	var upKey int64
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
		upKey = right.keys[0]
	} else {
		moved := child.children[mid+1:]
		right = &node{
			keys:     append([]int64(nil), child.keys[mid+1:]...),
			children: append([]*node(nil), moved...),
		}
		// The left half's array must not keep the moved subtrees alive
		// once Delete unlinks them from the right half.
		clear(moved)
		upKey = child.keys[mid]
		child.keys = child.keys[:mid]
		child.children = child.children[:mid+1]
	}
	parent.keys = append(parent.keys, 0)
	copy(parent.keys[i+1:], parent.keys[i:])
	parent.keys[i] = upKey
	parent.children = append(parent.children, nil)
	copy(parent.children[i+2:], parent.children[i+1:])
	parent.children[i+1] = right
}

// Delete removes key, reporting whether it was present. Underflowed
// nodes are tolerated (lazy deletion), matching common in-memory B+tree
// implementations, but a leaf left empty is unlinked — and with it any
// ancestor left without children — so a tree whose keys come and go
// (ascending inserts, oldest deleted) does not keep a shell per dead
// key range.
func (t *BTree) Delete(key int64) bool {
	// path[d] is the internal node at depth d, at[d] the child taken.
	var path []*node
	var at []int
	n := t.root
	for !n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool { return key < n.keys[i] })
		path, at = append(path, n), append(at, i)
		n = n.children[i]
	}
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
	if i >= len(n.keys) || n.keys[i] != key {
		return false
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.values = append(n.values[:i], n.values[i+1:]...)
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
		copy(p.children[i:], p.children[i+1:])
		p.children[len(p.children)-1] = nil
		p.children = p.children[:len(p.children)-1]
		if len(p.keys) > 0 {
			k := max(i-1, 0)
			p.keys = append(p.keys[:k], p.keys[k+1:]...)
		}
		if len(p.children) > 0 {
			return true
		}
	}
	t.root = &node{leaf: true}
	return true
}

// Range calls fn for every key in [lo, hi] in ascending order; returning
// false stops the scan.
func (t *BTree) Range(lo, hi int64, fn func(key int64, value uint64) bool) {
	n := t.root
	for !n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool { return lo < n.keys[i] })
		n = n.children[i]
	}
	for n != nil {
		for i, k := range n.keys {
			if k < lo {
				continue
			}
			if k > hi {
				return
			}
			if !fn(k, n.values[i]) {
				return
			}
		}
		n = n.next
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

package index

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"aidb/internal/ml"
)

func TestPutGet(t *testing.T) {
	bt := NewBTree(8)
	for i := int64(0); i < 1000; i++ {
		bt.Put(i*3, uint64(i))
	}
	if bt.Len() != 1000 {
		t.Fatalf("Len = %d", bt.Len())
	}
	for i := int64(0); i < 1000; i++ {
		v, err := bt.Get(i * 3)
		if err != nil || v != uint64(i) {
			t.Fatalf("Get(%d) = %d, %v", i*3, v, err)
		}
	}
	if _, err := bt.Get(1); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing key err = %v", err)
	}
}

// TestPutStoresEachPairOnce: a key holds many values, and putting a
// pair already stored changes nothing.
func TestPutStoresEachPairOnce(t *testing.T) {
	bt := NewBTree(0)
	bt.Put(5, 2)
	bt.Put(5, 1)
	bt.Put(5, 2)
	if bt.Len() != 2 {
		t.Errorf("Len = %d after putting (5,2) twice and (5,1), want 2", bt.Len())
	}
	if v, _ := bt.Get(5); v != 1 {
		t.Errorf("Get = %d, want the least value 1", v)
	}
}

func TestDelete(t *testing.T) {
	bt := NewBTree(4)
	for i := int64(0); i < 100; i++ {
		bt.Put(i, uint64(i))
	}
	if bt.Delete(50, 49) {
		t.Fatal("Delete(50, 49) = true: no such pair")
	}
	if !bt.Delete(50, 50) {
		t.Fatal("Delete(50, 50) = false")
	}
	if bt.Delete(50, 50) {
		t.Fatal("second Delete(50, 50) = true")
	}
	if _, err := bt.Get(50); !errors.Is(err, ErrNotFound) {
		t.Error("deleted key still present")
	}
	if bt.Len() != 99 {
		t.Errorf("Len = %d, want 99", bt.Len())
	}
	// Neighbours intact.
	if v, err := bt.Get(49); err != nil || v != 49 {
		t.Error("neighbour lost after delete")
	}
}

func TestRangeScan(t *testing.T) {
	bt := NewBTree(8)
	for i := int64(0); i < 500; i++ {
		bt.Put(i, uint64(i))
	}
	var got []int64
	bt.Range(100, 199, func(k int64, v uint64) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 100 {
		t.Fatalf("range returned %d keys, want 100", len(got))
	}
	if !sort.SliceIsSorted(got, func(a, b int) bool { return got[a] < got[b] }) {
		t.Error("range output not sorted")
	}
	if got[0] != 100 || got[99] != 199 {
		t.Errorf("range bounds wrong: %d..%d", got[0], got[99])
	}
}

func TestRangeEarlyStop(t *testing.T) {
	bt := NewBTree(8)
	for i := int64(0); i < 100; i++ {
		bt.Put(i, uint64(i))
	}
	count := 0
	bt.Range(0, 99, func(k int64, v uint64) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("visited %d keys after early stop", count)
	}
}

func TestHeightGrowsLogarithmically(t *testing.T) {
	bt := NewBTree(16)
	for i := int64(0); i < 10000; i++ {
		bt.Put(i, uint64(i))
	}
	if h := bt.Height(); h > 5 {
		t.Errorf("height = %d for 10k keys at order 16, want <= 5", h)
	}
	if bt.NodeCount() == 0 || bt.SizeBytes() == 0 {
		t.Error("size accounting broken")
	}
}

func TestBulkLoad(t *testing.T) {
	keys := make([]int64, 1000)
	vals := make([]uint64, 1000)
	for i := range keys {
		keys[i] = int64(i * 2)
		vals[i] = uint64(i)
	}
	bt := BulkLoad(32, keys, vals)
	if bt.Len() != 1000 {
		t.Fatalf("Len = %d", bt.Len())
	}
	v, err := bt.Get(1998)
	if err != nil || v != 999 {
		t.Errorf("Get(1998) = %d, %v", v, err)
	}
}

func TestBulkLoadPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unsorted keys")
		}
	}()
	BulkLoad(8, []int64{3, 1}, []uint64{0, 1})
}

// pair is one (key, value) entry of the sorted-slice model.
type pair struct {
	k int64
	v uint64
}

func (p pair) less(q pair) bool { return less(p.k, p.v, q.k, q.v) }

// pairsIn collects Range(lo, hi) as pairs.
func pairsIn(bt *BTree, lo, hi int64) []pair {
	var out []pair
	bt.Range(lo, hi, func(k int64, v uint64) bool {
		out = append(out, pair{k, v})
		return true
	})
	return out
}

// Property: random Put/Delete sequences over few keys with many values
// each match a sorted slice of distinct pairs — Len, Get's least value,
// and Range over the whole tree and over random bounds.
func TestBTreeMatchesMapProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := ml.NewRNG(seed)
		bt := NewBTree(4 + rng.Intn(12))
		var ref []pair // sorted, distinct
		for op := 0; op < 800; op++ {
			p := pair{int64(rng.Intn(40) - 20), uint64(rng.Intn(12))}
			i, found := slices.BinarySearchFunc(ref, p, func(a, b pair) int {
				if a.less(b) {
					return -1
				}
				if b.less(a) {
					return 1
				}
				return 0
			})
			if rng.Intn(3) < 2 {
				bt.Put(p.k, p.v)
				if !found {
					ref = slices.Insert(ref, i, p)
				}
			} else {
				if bt.Delete(p.k, p.v) != found {
					return false
				}
				if found {
					ref = slices.Delete(ref, i, i+1)
				}
			}
		}
		if bt.Len() != len(ref) || !slices.Equal(pairsIn(bt, math.MinInt64, math.MaxInt64), ref) {
			return false
		}
		for k := int64(-21); k <= 20; k++ {
			got, err := bt.Get(k)
			i := slices.IndexFunc(ref, func(p pair) bool { return p.k == k })
			if (i < 0) != errors.Is(err, ErrNotFound) || i >= 0 && got != ref[i].v {
				return false
			}
		}
		lo := int64(rng.Intn(44) - 22)
		hi := lo + int64(rng.Intn(10))
		var want []pair
		for _, p := range ref {
			if p.k >= lo && p.k <= hi {
				want = append(want, p)
			}
		}
		return slices.Equal(pairsIn(bt, lo, hi), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestEqualKeysSpanLeaves: a key holding more values than a leaf has
// room for spans leaves, with pairs as the separators between them.
// Range yields its values in order across them, and deleting one pair
// keeps its siblings.
func TestEqualKeysSpanLeaves(t *testing.T) {
	bt := NewBTree(8)
	bt.Put(6, 0)
	bt.Put(8, 0)
	const n = 40 // five full leaves' worth at order 8
	for _, v := range rand.New(rand.NewSource(7)).Perm(n) {
		bt.Put(7, uint64(v))
	}
	leaves := 0
	for n := bt.root; n != nil; n = n.children[0] {
		if n.leaf {
			for ; n != nil; n = n.next {
				leaves++
			}
			break
		}
	}
	if leaves < 3 {
		t.Fatalf("%d pairs under one key fill %d leaves, want >= 3", n, leaves)
	}
	var want []pair
	for v := range n {
		want = append(want, pair{7, uint64(v)})
	}
	if got := pairsIn(bt, 7, 7); !slices.Equal(got, want) {
		t.Fatalf("Range(7, 7) = %v, want values 0..%d in order", got, n-1)
	}
	if !bt.Delete(7, 20) || bt.Delete(7, 20) {
		t.Fatal("Delete(7, 20) must remove the pair once")
	}
	want = slices.Delete(want, 20, 21)
	if got := pairsIn(bt, 6, 8); len(got) != n+1 || got[0] != (pair{6, 0}) || got[n] != (pair{8, 0}) || !slices.Equal(got[1:n], want) {
		t.Fatalf("after Delete(7, 20), Range(6, 8) = %v", got)
	}
	if v, err := bt.Get(7); err != nil || v != 0 {
		t.Errorf("Get(7) = %d, %v; want the least value 0", v, err)
	}
	if bt.Len() != n+1 {
		t.Errorf("Len = %d, want %d", bt.Len(), n+1)
	}
}

func TestOrderClamped(t *testing.T) {
	bt := NewBTree(1) // below minimum, should clamp to 3
	for i := int64(0); i < 50; i++ {
		bt.Put(i, uint64(i))
	}
	for i := int64(0); i < 50; i++ {
		if _, err := bt.Get(i); err != nil {
			t.Fatalf("Get(%d) failed with clamped order", i)
		}
	}
}

// TestDeleteUnlinksEmptyLeaves: keys that come and go in ascending order
// (insert at the top, delete the oldest) must not leave a node per dead
// key range behind, and the tree must stay correct throughout — point
// lookups, the leaf chain, and reuse after it has been emptied.
func TestDeleteUnlinksEmptyLeaves(t *testing.T) {
	bt := NewBTree(4)
	const live = 50
	for k := int64(0); k < 5000; k++ {
		bt.Put(k, uint64(k))
		if k >= live && !bt.Delete(k-live, uint64(k-live)) {
			t.Fatalf("key %d missing", k-live)
		}
	}
	if n := bt.NodeCount(); n > 4*live {
		t.Errorf("%d nodes hold %d keys: dead leaves are not unlinked", n, bt.Len())
	}
	// Unlinked is not enough: nothing may still point at a dead node, or
	// the collector keeps it (and, through next, every leaf after it).
	// The hiding place is the spare capacity of a children array.
	var walk func(n *node)
	walk = func(n *node) {
		for _, c := range n.children[len(n.children):cap(n.children)] {
			if c != nil {
				t.Fatal("an internal node's spare capacity still references a node")
			}
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(bt.root)
	var got []int64
	bt.Range(-1, 1<<40, func(k int64, v uint64) bool {
		if v != uint64(k) {
			t.Errorf("key %d holds %d", k, v)
		}
		got = append(got, k)
		return true
	})
	if len(got) != live || got[0] != 5000-live || got[live-1] != 4999 {
		t.Fatalf("range over the survivors = %v", got)
	}
	for _, k := range got {
		if !bt.Delete(k, uint64(k)) {
			t.Fatalf("key %d missing", k)
		}
	}
	if bt.Len() != 0 || bt.NodeCount() != 1 {
		t.Errorf("emptied tree has %d keys in %d nodes", bt.Len(), bt.NodeCount())
	}
	bt.Put(7, 70)
	if v, err := bt.Get(7); err != nil || v != 70 {
		t.Errorf("emptied tree does not take new keys: %v, %v", v, err)
	}
}

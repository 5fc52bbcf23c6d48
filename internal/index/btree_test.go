package index

import (
	"errors"
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

func TestOverwrite(t *testing.T) {
	bt := NewBTree(0)
	bt.Put(5, 1)
	bt.Put(5, 2)
	if bt.Len() != 1 {
		t.Errorf("Len = %d after overwrite, want 1", bt.Len())
	}
	v, _ := bt.Get(5)
	if v != 2 {
		t.Errorf("Get = %d, want 2", v)
	}
}

func TestDelete(t *testing.T) {
	bt := NewBTree(4)
	for i := int64(0); i < 100; i++ {
		bt.Put(i, uint64(i))
	}
	if !bt.Delete(50) {
		t.Fatal("Delete(50) = false")
	}
	if bt.Delete(50) {
		t.Fatal("second Delete(50) = true")
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

// Property: random insert/delete sequences match a reference map.
func TestBTreeMatchesMapProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := ml.NewRNG(seed)
		bt := NewBTree(4 + rng.Intn(12))
		ref := map[int64]uint64{}
		for op := 0; op < 500; op++ {
			k := int64(rng.Intn(200))
			switch rng.Intn(3) {
			case 0, 1:
				v := rng.Uint64()
				bt.Put(k, v)
				ref[k] = v
			case 2:
				got := bt.Delete(k)
				_, want := ref[k]
				if got != want {
					return false
				}
				delete(ref, k)
			}
		}
		if bt.Len() != len(ref) {
			return false
		}
		for k, want := range ref {
			got, err := bt.Get(k)
			if err != nil || got != want {
				return false
			}
		}
		// Full range scan returns exactly the reference keys in order.
		var keys []int64
		bt.Range(-1000, 1000, func(k int64, v uint64) bool {
			keys = append(keys, k)
			return true
		})
		if len(keys) != len(ref) {
			return false
		}
		for i := 1; i < len(keys); i++ {
			if keys[i-1] >= keys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
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
		if k >= live && !bt.Delete(k-live) {
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
		if !bt.Delete(k) {
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

package plancache

import (
	"fmt"
	"sync"
	"testing"

	"aidb/internal/obs"
	"aidb/internal/plan"
)

// fakeNode is a minimal plan.Node for cache tests.
type fakeNode struct{ id int }

func (f *fakeNode) Schema() []string      { return nil }
func (f *fakeNode) Children() []plan.Node { return nil }
func (f *fakeNode) Describe() string      { return fmt.Sprintf("fake(%d)", f.id) }

func entry(key string, id int) *Entry {
	return &Entry{Key: key, Fingerprint: key, Plan: &fakeNode{id: id}, PlanNs: 100}
}

func TestLookupHitMiss(t *testing.T) {
	c := New(16)
	if c.Lookup("text:q1") != nil {
		t.Fatal("lookup on empty cache should miss")
	}
	c.Put(entry("text:q1", 1))
	e := c.Lookup("text:q1")
	if e == nil {
		t.Fatal("lookup after put should hit")
	}
	if e.Plan.(*fakeNode).id != 1 {
		t.Fatalf("wrong plan returned: %v", e.Plan.Describe())
	}
	if e.Hits() != 1 {
		t.Fatalf("entry hits = %d, want 1", e.Hits())
	}
}

func TestInvalidateDiscardsAllEntries(t *testing.T) {
	c := New(64)
	for i := 0; i < 10; i++ {
		c.Put(entry(fmt.Sprintf("text:q%d", i), i))
	}
	if c.Len() != 10 {
		t.Fatalf("len = %d, want 10", c.Len())
	}
	c.Invalidate()
	if c.Len() != 0 {
		t.Fatalf("len after invalidate = %d, want 0", c.Len())
	}
	for i := 0; i < 10; i++ {
		if c.Lookup(fmt.Sprintf("text:q%d", i)) != nil {
			t.Fatalf("entry q%d survived invalidation", i)
		}
	}
	// Re-inserting after invalidation works under the new generation.
	c.Put(entry("text:q0", 0))
	if c.Lookup("text:q0") == nil {
		t.Fatal("post-invalidation insert should be visible")
	}
}

func TestCapacityEviction(t *testing.T) {
	c := New(numShards) // one entry per shard
	for i := 0; i < 4*numShards; i++ {
		c.Put(entry(fmt.Sprintf("text:q%d", i), i))
	}
	if got := c.Len(); got > numShards {
		t.Fatalf("len = %d, want <= %d (bounded)", got, numShards)
	}
	if c.SizeBytes() <= 0 {
		t.Fatal("live entries should report positive size")
	}
}

func TestInstrumentedCounters(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(16)
	c.Instrument(reg)
	c.Put(entry("text:q", 1))
	c.Lookup("text:q")  // hit
	c.Lookup("text:zz") // miss
	c.Invalidate()
	s := c.Snapshot()
	if s.Hits != 1 || s.Misses != 1 || s.Invalidations != 1 || s.Inserts != 1 {
		t.Fatalf("snapshot = %+v, want 1 hit / 1 miss / 1 invalidation / 1 insert", s)
	}
	snap := reg.Snapshot()
	for _, name := range []string{"plancache.hits", "plancache.misses", "plancache.invalidations", "plancache.entries", "plancache.bytes"} {
		if _, ok := snap[name]; !ok {
			t.Errorf("metric %q not registered", name)
		}
	}
}

func TestConcurrentPutLookupInvalidate(t *testing.T) {
	c := New(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("text:q%d", i%20)
				switch i % 5 {
				case 0:
					c.Put(entry(key, i))
				case 4:
					if g == 0 && i%100 == 4 {
						c.Invalidate()
					}
				default:
					if e := c.Lookup(key); e != nil {
						_ = e.Plan.Describe()
						_ = e.Hits()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	c.Snapshot() // must not race with anything above
}

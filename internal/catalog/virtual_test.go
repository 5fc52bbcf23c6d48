package catalog

import (
	"errors"
	"testing"
)

func numsVirtual(name string, n int) *FuncTable {
	return &FuncTable{
		QName: name,
		Cols:  Schema{Columns: []Column{{Name: "i", Type: Int64}}},
		Est:   func() int { return n },
		Fetch: func() ([]Row, error) {
			rows := make([]Row, n)
			for i := range rows {
				rows[i] = Row{int64(i)}
			}
			return rows, nil
		},
	}
}

func TestRegisterVirtualRequiresNamespace(t *testing.T) {
	c := NewMem()
	if err := c.RegisterVirtual(numsVirtual("bare", 1)); err == nil {
		t.Fatal("unqualified virtual name was accepted")
	}
	if err := c.RegisterVirtual(&FuncTable{QName: "sys.empty"}); err == nil {
		t.Fatal("virtual table without columns was accepted")
	}
	if err := c.RegisterVirtual(numsVirtual("sys.nums", 3)); err != nil {
		t.Fatal(err)
	}
}

func TestVirtualLookupAndReplace(t *testing.T) {
	c := NewMem()
	if _, err := c.Virtual("sys.nums"); err == nil {
		t.Fatal("lookup on empty namespace succeeded")
	}
	if err := c.RegisterVirtual(numsVirtual("sys.nums", 3)); err != nil {
		t.Fatal(err)
	}
	vt, err := c.Virtual("sys.nums")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := vt.Fetch()
	if err != nil || len(rows) != 3 || vt.Est() != 3 {
		t.Fatalf("rows=%v err=%v est=%d", rows, err, vt.Est())
	}
	// Re-registration replaces the provider in place.
	if err := c.RegisterVirtual(numsVirtual("sys.nums", 5)); err != nil {
		t.Fatal(err)
	}
	vt, _ = c.Virtual("sys.nums")
	if vt.Est() != 5 {
		t.Fatalf("replacement not visible: est=%d", vt.Est())
	}
}

func TestVirtualNamesSortedAndDisjointFromHeap(t *testing.T) {
	c := NewMem()
	for _, n := range []string{"system.b", "system.a", "other.z"} {
		if err := c.RegisterVirtual(numsVirtual(n, 1)); err != nil {
			t.Fatal(err)
		}
	}
	got := c.VirtualNames()
	want := []string{"other.z", "system.a", "system.b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("VirtualNames() = %v, want %v", got, want)
		}
	}
	// The heap-table namespace does not see virtual tables and vice
	// versa.
	if _, err := c.Table("system.a"); err == nil {
		t.Fatal("virtual table leaked into heap lookup")
	}
	if _, err := c.CreateTable("t", Schema{Columns: []Column{{Name: "x", Type: Int64}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Virtual("t"); err == nil {
		t.Fatal("heap table leaked into virtual lookup")
	}
}

func TestFuncTableNilEst(t *testing.T) {
	vt := &FuncTable{QName: "sys.x", Cols: Schema{Columns: []Column{{Name: "i", Type: Int64}}},
		Fetch: func() ([]Row, error) { return nil, errors.New("nope") }}
	if err := NewMem().RegisterVirtual(vt); err != nil {
		t.Fatal(err)
	}
	if vt.Est() != 0 {
		t.Fatal("nil Est should report 0")
	}
	if _, err := vt.Fetch(); err == nil {
		t.Fatal("fetch error swallowed")
	}
}

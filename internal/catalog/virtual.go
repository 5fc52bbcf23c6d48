package catalog

import (
	"fmt"
	"sort"
	"strings"
)

// FuncTable is a virtual table: a read-only table whose rows are
// computed on demand from live system state instead of stored in heap
// pages. Virtual tables live in a dotted namespace (e.g.
// "system.statements") so they can never shadow a heap table, and they
// are scanned with snapshot semantics: Fetch returns a point-in-time copy
// taken when the scan opens, so a query over "system.metrics" sees one
// consistent view even while counters keep moving underneath it.
type FuncTable struct {
	// QName is the qualified table name, e.g. "system.statements".
	QName string
	Cols  Schema
	// Fetch materializes the snapshot rows. The returned rows are owned
	// by the caller and must not alias mutable provider state.
	Fetch func() ([]Row, error)
	// Est cheaply reports the approximate current row count for the
	// planner's cost model; it may be stale. RegisterVirtual makes a nil
	// Est report 0.
	Est func() int
}

// RegisterVirtual adds a virtual table to the catalog. The name must be
// qualified with a namespace ("ns.table") so virtual tables and heap
// tables can never collide; re-registering a name replaces the previous
// provider (system tables are rebuilt when a DB reconfigures).
func (c *Catalog) RegisterVirtual(vt *FuncTable) error {
	name := vt.QName
	if !strings.Contains(name, ".") {
		return fmt.Errorf("catalog: virtual table %q needs a qualified ns.name", name)
	}
	if len(vt.Cols.Columns) == 0 {
		return fmt.Errorf("catalog: virtual table %q needs at least one column", name)
	}
	if vt.Est == nil {
		vt.Est = func() int { return 0 }
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.virtual == nil {
		c.virtual = make(map[string]*FuncTable)
	}
	c.virtual[name] = vt
	return nil
}

// Virtual looks up a virtual table by qualified name.
func (c *Catalog) Virtual(name string) (*FuncTable, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	vt, ok := c.virtual[name]
	if !ok {
		return nil, fmt.Errorf("catalog: virtual table %q does not exist", name)
	}
	return vt, nil
}

// VirtualNames lists registered virtual table names in sorted order.
func (c *Catalog) VirtualNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.virtual))
	for n := range c.virtual {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

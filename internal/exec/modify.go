package exec

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"aidb/internal/catalog"
	"aidb/internal/plan"
	"aidb/internal/storage"
)

// modifyOp is the sink of an UPDATE or DELETE plan. It drains its input
// — chunks of every table column, with each row's record id — and
// computes every new row first; only when the input is exhausted and
// nothing failed does it touch the table. An error in a WHERE or SET
// expression, a value that does not fit its column, a cancellation or a
// blown memory budget therefore leaves the table exactly as it was. It
// emits no rows.
type modifyOp struct {
	rc   *runCtx
	node *plan.ModifyNode
	// set holds the bound SET expressions, one per node.Set entry.
	set  []bound
	prof *OpProfile
	in   BatchOperator
	done bool
}

type rowChange struct {
	rid      storage.RecordID
	old, new catalog.Row // new is nil for DELETE
}

func (m *modifyOp) Next(ctx context.Context) (*Chunk, bool, error) {
	if m.done {
		return nil, false, nil
	}
	m.done = true
	if m.prof != nil {
		start := time.Now()
		defer func() { m.prof.wallNs.Add(time.Since(start).Nanoseconds()) }()
	}
	changes, err := m.collect(ctx)
	if err != nil {
		return nil, false, err
	}
	if m.prof != nil {
		m.prof.actualRows.Add(int64(len(changes)))
	}
	return nil, false, m.apply(changes)
}

// collect drains the input, boxing each row read and the row to write
// in its place. They are kept until apply, charged to the memory budget.
func (m *modifyOp) collect(ctx context.Context) ([]rowChange, error) {
	cols := m.node.Table.Schema.Columns
	var changes []rowChange
	for {
		c, ok, err := m.in.Next(ctx)
		if err != nil || !ok {
			return changes, err
		}
		rows := c.box()
		c.params = m.rc.params
		for i, r := range c.sel {
			ch := rowChange{rid: c.rids[r], old: rows[i]}
			if m.node.Set != nil {
				ch.new = slices.Clone(ch.old)
				for si, a := range m.node.Set {
					v, err := m.set[si].value(c, r)
					if err == nil {
						v, err = catalog.Coerce(v, cols[a.Column].Type)
					}
					if err != nil {
						m.rc.recycle(c)
						return nil, fmt.Errorf("exec: UPDATE %s SET %s: %w", m.node.Table.Name, cols[a.Column].Name, err)
					}
					ch.new[a.Column] = v
				}
			}
			changes = append(changes, ch)
		}
		m.rc.recycle(c)
		per := 24 + 16*int64(len(cols))
		if m.node.Set != nil {
			per *= 2
		}
		if err := m.rc.charge(int64(len(rows)) * per); err != nil {
			return nil, err
		}
	}
}

// apply makes the collected changes; the table changes its indexes
// with its heap. A row another statement removed or replaced since it
// was read no longer matches anything and is skipped.
func (m *modifyOp) apply(changes []rowChange) error {
	t := m.node.Table
	for _, ch := range changes {
		if err := t.DeleteIf(ch.rid, ch.old); err != nil {
			if errors.Is(err, storage.ErrRecordDeleted) {
				continue
			}
			return fmt.Errorf("exec: %s %s: %w", m.node.Kind(), t.Name, err)
		}
		if ch.new == nil {
			continue
		}
		if _, err := t.Insert(ch.new); err != nil {
			return fmt.Errorf("exec: UPDATE %s: %w", t.Name, err)
		}
	}
	return nil
}

func (m *modifyOp) Close() { m.in.Close() }

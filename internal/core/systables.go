package core

import (
	"sort"

	"aidb/internal/catalog"
	"aidb/internal/storage"
)

// registerSystemTables wires the system.* virtual-table namespace over
// this database's live observability stores. Every table snapshots its
// source when a scan opens, then flows through the normal exec
// pipeline, so filters, aggregates, joins, EXPLAIN ANALYZE,
// cancellation and memory budgets all apply unchanged — SQL is the
// introspection interface, not a side channel.
func (db *DB) registerSystemTables() {
	cat := db.engine.Cat
	intCol := func(n string) catalog.Column { return catalog.Column{Name: n, Type: catalog.Int64} }
	fltCol := func(n string) catalog.Column { return catalog.Column{Name: n, Type: catalog.Float64} }
	txtCol := func(n string) catalog.Column { return catalog.Column{Name: n, Type: catalog.String} }
	register := func(t *catalog.FuncTable) {
		// Names are literals in this file; registration cannot fail.
		if err := cat.RegisterVirtual(t); err != nil {
			panic(err)
		}
	}

	register(&catalog.FuncTable{
		QName: "system.statements",
		Cols: catalog.Schema{Columns: []catalog.Column{
			txtCol("fingerprint"), txtCol("query"),
			intCol("calls"), intCol("errors"), intCol("cancels"), intCol("sheds"),
			intCol("rows"), intCol("total_ns"), intCol("min_ns"), intCol("max_ns"),
			intCol("p50_ns"), intCol("p95_ns"), intCol("p99_ns"),
			intCol("chunks"), intCol("peak_bytes"), intCol("chaos_fires"),
			intCol("first_seen_ns"), intCol("last_seen_ns"),
		}},
		Est: func() int { return db.engine.Stmts().Len() },
		Fetch: func() ([]catalog.Row, error) {
			snap := db.engine.Stmts().Snapshot()
			rows := make([]catalog.Row, len(snap))
			for i, s := range snap {
				rows[i] = catalog.Row{
					s.Fingerprint, s.Query,
					int64(s.Calls), int64(s.Errors), int64(s.Cancels), int64(s.Sheds),
					s.Rows, s.TotalNs, s.MinNs, s.MaxNs,
					s.P50Ns, s.P95Ns, s.P99Ns,
					s.Chunks, s.PeakBytes, s.ChaosFires,
					s.FirstSeenNs, s.LastSeenNs,
				}
			}
			return rows, nil
		},
	})

	register(&catalog.FuncTable{
		QName: "system.metrics",
		Cols: catalog.Schema{Columns: []catalog.Column{
			txtCol("name"), fltCol("value"),
		}},
		Fetch: func() ([]catalog.Row, error) {
			snap := db.reg.Snapshot()
			names := make([]string, 0, len(snap))
			for n := range snap {
				names = append(names, n)
			}
			sort.Strings(names)
			rows := make([]catalog.Row, len(names))
			for i, n := range names {
				rows[i] = catalog.Row{n, snap[n]}
			}
			return rows, nil
		},
	})

	register(&catalog.FuncTable{
		QName: "system.tables",
		Cols: catalog.Schema{Columns: []catalog.Column{
			txtCol("name"), intCol("columns"), intCol("rows"),
			intCol("pages"), intCol("bytes"), intCol("analyzed"),
		}},
		Est: func() int { return len(cat.Tables()) },
		Fetch: func() ([]catalog.Row, error) {
			var rows []catalog.Row
			for _, name := range cat.Tables() {
				t, err := cat.Table(name)
				if err != nil {
					// Dropped between listing and lookup; skip.
					continue
				}
				pages := int64(len(t.PageIDs()))
				analyzed := int64(0)
				if t.Stats != nil {
					analyzed = 1
				}
				rows = append(rows, catalog.Row{
					name, int64(len(t.Schema.Columns)), int64(t.NumRows()),
					pages, pages * storage.PageSize, analyzed,
				})
			}
			return rows, nil
		},
	})

	register(&catalog.FuncTable{
		QName: "system.alerts",
		Cols: catalog.Schema{Columns: []catalog.Column{
			intCol("seq"), intCol("window"), txtCol("metric"), txtCol("kind"),
			fltCol("value"), fltCol("score"), txtCol("detail"),
		}},
		Est: func() int { return db.alerts.Len() },
		Fetch: func() ([]catalog.Row, error) {
			alerts := db.alerts.Alerts()
			rows := make([]catalog.Row, len(alerts))
			for i, a := range alerts {
				rows[i] = catalog.Row{
					int64(a.Seq), int64(a.Window), a.Metric, a.Kind,
					a.Value, a.Score, a.Detail,
				}
			}
			return rows, nil
		},
	})

	register(&catalog.FuncTable{
		QName: "system.plan_cache",
		Cols: catalog.Schema{Columns: []catalog.Column{
			txtCol("cache_key"), txtCol("fingerprint"),
			intCol("num_params"), intCol("hits"),
			intCol("plan_ns"), intCol("bytes"),
		}},
		Est: func() int { return db.plans.Len() },
		Fetch: func() ([]catalog.Row, error) {
			entries := db.plans.Entries()
			sort.Slice(entries, func(a, b int) bool { return entries[a].Key < entries[b].Key })
			rows := make([]catalog.Row, len(entries))
			for i, e := range entries {
				rows[i] = catalog.Row{
					e.Key, e.Fingerprint,
					int64(e.NumParams), int64(e.Hits()),
					e.PlanNs, e.Bytes,
				}
			}
			return rows, nil
		},
	})

	register(&catalog.FuncTable{
		QName: "system.plan_cache_stats",
		Cols: catalog.Schema{Columns: []catalog.Column{
			intCol("hits"), intCol("misses"), intCol("invalidations"),
			intCol("evictions"), intCol("inserts"),
			intCol("entries"), intCol("bytes"),
		}},
		Est: func() int { return 1 },
		Fetch: func() ([]catalog.Row, error) {
			s := db.plans.Snapshot()
			return []catalog.Row{{
				int64(s.Hits), int64(s.Misses), int64(s.Invalidations),
				int64(s.Evictions), int64(s.Inserts),
				int64(s.Entries), s.Bytes,
			}}, nil
		},
	})

	register(&catalog.FuncTable{
		QName: "system.settings",
		Cols: catalog.Schema{Columns: []catalog.Column{
			txtCol("name"), intCol("value"),
		}},
		Est: func() int { return 5 },
		Fetch: func() ([]catalog.Row, error) {
			running := int64(0)
			if db.series.Running() {
				running = 1
			}
			return []catalog.Row{
				{"max_concurrent", int64(db.MaxConcurrent())},
				{"mem_budget_bytes", db.MemBudget()},
				{"parallelism", int64(db.Parallelism())},
				{"telemetry_running", running},
				{"timeout_ns", db.Timeout().Nanoseconds()},
			}, nil
		},
	})
}

// SystemTables lists the registered system.* table names.
func (db *DB) SystemTables() []string { return db.engine.Cat.VirtualNames() }

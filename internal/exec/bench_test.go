package exec

import (
	"fmt"
	"testing"
	"time"

	"aidb/internal/catalog"
	"aidb/internal/obs"
	"aidb/internal/plan"
	"aidb/internal/sql"
)

// Engine micro-benchmarks: scan/filter, hash join and aggregation
// throughput of the volcano executor over heap tables.

func benchCatalog(b testing.TB, rows int) *catalog.Catalog {
	b.Helper()
	c := catalog.NewMem()
	users, err := c.CreateTable("users", catalog.Schema{Columns: []catalog.Column{
		{Name: "id", Type: catalog.Int64},
		{Name: "age", Type: catalog.Int64},
	}})
	if err != nil {
		b.Fatal(err)
	}
	orders, err := c.CreateTable("orders", catalog.Schema{Columns: []catalog.Column{
		{Name: "uid", Type: catalog.Int64},
		{Name: "amount", Type: catalog.Float64},
	}})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := users.Insert(catalog.Row{int64(i), int64(i % 80)}); err != nil {
			b.Fatal(err)
		}
		if _, err := orders.Insert(catalog.Row{int64(i % (rows / 10)), float64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// wideCatalog is the analytic fixture: a five-column table in which
// three columns cost an allocation or two to decode (id, city, score)
// and two do not (age, churned), and an orders table with two rows per
// wide row — the shape of the load harness's users and orders.
func wideCatalog(b testing.TB, rows int) *catalog.Catalog {
	b.Helper()
	c := catalog.NewMem()
	wide, err := c.CreateTable("wide", catalog.Schema{Columns: []catalog.Column{
		{Name: "id", Type: catalog.Int64},
		{Name: "age", Type: catalog.Int64},
		{Name: "city", Type: catalog.String},
		{Name: "score", Type: catalog.Float64},
		{Name: "churned", Type: catalog.Int64},
	}})
	if err != nil {
		b.Fatal(err)
	}
	orders, err := c.CreateTable("orders", catalog.Schema{Columns: []catalog.Column{
		{Name: "id", Type: catalog.Int64},
		{Name: "wide_id", Type: catalog.Int64},
		{Name: "amount", Type: catalog.Float64},
	}})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := wide.Insert(catalog.Row{int64(i), int64(18 + i%62), fmt.Sprintf("city%d", i%16), float64(i%1000) / 10, int64(i % 2)}); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			if _, err := orders.Insert(catalog.Row{int64(2*i + j), int64((i*7 + j) % rows), float64((i*13+j)%5000) / 10}); err != nil {
				b.Fatal(err)
			}
		}
	}
	return c
}

func benchQuery(b *testing.B, c *catalog.Catalog, q string) {
	b.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.Build(c, stmt.(*sql.SelectStmt))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(nil).Run(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanFilter(b *testing.B) {
	c := benchCatalog(b, 20000)
	benchQuery(b, c, "SELECT id FROM users WHERE age > 40")
}

func BenchmarkHashJoin(b *testing.B) {
	c := benchCatalog(b, 10000)
	benchQuery(b, c, "SELECT users.id FROM orders JOIN users ON orders.uid = users.id")
}

func BenchmarkGroupByAggregate(b *testing.B) {
	c := benchCatalog(b, 20000)
	benchQuery(b, c, "SELECT age, COUNT(*), AVG(id) FROM users GROUP BY age")
}

func BenchmarkSortLimit(b *testing.B) {
	c := benchCatalog(b, 20000)
	benchQuery(b, c, "SELECT id FROM users ORDER BY age DESC LIMIT 100")
}

// BenchmarkExec measures the executor hot path with observability off
// (the zero Metrics value, the default without a registry) and on,
// guarding the contract that disabled metrics cost only nil checks.
func BenchmarkExec(b *testing.B) {
	c := benchCatalog(b, 20000)
	stmt, err := sql.Parse("SELECT id FROM users WHERE age > 40")
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.Build(c, stmt.(*sql.SelectStmt))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("obs-off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := New(nil).Run(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("obs-on", func(b *testing.B) {
		b.ReportAllocs()
		m := NewMetrics(obs.NewRegistry())
		for i := 0; i < b.N; i++ {
			ex := New(nil)
			ex.Obs = m
			if _, err := ex.Run(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	// obs-on with the telemetry sampler ticking at 1ms — three orders
	// of magnitude faster than the production 1s default — to bound the
	// sampler's interference with the query hot path (the <2% contract:
	// writers touch only their own atomics; the sampler never locks
	// them).
	b.Run("obs-on-sampled", func(b *testing.B) {
		b.ReportAllocs()
		reg := obs.NewRegistry()
		m := NewMetrics(reg)
		ts := obs.NewTimeSeries(reg, 64)
		ts.Start(time.Millisecond)
		defer ts.Stop()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ex := New(nil)
			ex.Obs = m
			if _, err := ex.Run(p); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Profiling dimension: profile-off is the default every normal query
	// takes (one nil check per operator — the <2% overhead contract that
	// TestProfileOffOverhead asserts); profile-on is the EXPLAIN ANALYZE
	// path with per-operator timing and cardinality capture.
	b.Run("profile-off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := New(nil).Run(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("profile-on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ex := New(nil)
			ex.Profile = NewQueryProfile(p, nil)
			if _, err := ex.Run(p); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Serial-vs-parallel dimension: the same plans at Parallelism=1 (the
	// pinned serial baseline) and Parallelism=0 (auto, NumCPU workers).
	// `make bench-smoke` runs these; the speedup is the ratio of the two
	// sub-benchmarks' ns/op.
	benchModes := func(b *testing.B, p plan.Node) {
		for _, mode := range []struct {
			name    string
			workers int
		}{{"serial", 1}, {"parallel", 0}} {
			b.Run(mode.name, func(b *testing.B) {
				b.ReportAllocs()
				ex := New(nil)
				ex.Parallelism = mode.workers
				for i := 0; i < b.N; i++ {
					if _, err := ex.Run(p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	big := benchCatalog(b, 100000)
	for _, bc := range []struct {
		name  string
		query string
	}{
		{"scan-filter-100k", "SELECT id FROM users WHERE age > 40"},
		{"join-100k", "SELECT users.id FROM orders JOIN users ON orders.uid = users.id"},
		{"agg-100k", "SELECT age, COUNT(*), AVG(id) FROM users GROUP BY age"},
	} {
		stmt, err := sql.Parse(bc.query)
		if err != nil {
			b.Fatal(err)
		}
		p, err := plan.Build(big, stmt.(*sql.SelectStmt))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) { benchModes(b, p) })
	}

	// The analytic shapes the planner's rewrite exists for, on plans that
	// went through it: a join whose filters belong below it, and a
	// filtered count that reads one column of five.
	wide := wideCatalog(b, 100000)
	for _, bc := range []struct {
		name  string
		query string
	}{
		{"join-filtered", "SELECT wide.id, orders.amount FROM wide JOIN orders ON wide.id = orders.wide_id WHERE orders.amount > 499 AND wide.age = 30 ORDER BY orders.amount DESC LIMIT 5"},
		{"wide-filter-count", "SELECT count(*) FROM wide WHERE age < 30"},
	} {
		p := plan.OptimizeFilters(mustPlan(b, wide, bc.query))
		plan.AnnotateBuildSides(p, plan.HistogramEstimator{})
		b.Run(bc.name, func(b *testing.B) { benchModes(b, p) })
	}
}

// BenchmarkBindPointFilter is what binding costs a statement that
// touches one row: bind the short range read's two-conjunct filter (the
// point_adhoc shape) and evaluate it once. Every execution of a plan
// pays the bind, so it has to stay small beside a single evaluation.
func BenchmarkBindPointFilter(b *testing.B) {
	stmt, err := sql.Parse("SELECT id, age, city FROM wide WHERE id > 4711 AND id < 4731")
	if err != nil {
		b.Fatal(err)
	}
	cond := stmt.(*sql.SelectStmt).Where
	scope := NewScope([]string{"wide.id", "wide.age", "wide.city", "wide.score", "wide.churned"})
	row := catalog.Row{int64(4720), int64(33), "city7", 12.5, int64(0)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ok, err := EvalBool(cond, scope, row, nil); err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}

func BenchmarkInsertThroughput(b *testing.B) {
	c := catalog.NewMem()
	t, err := c.CreateTable("t", catalog.Schema{Columns: []catalog.Column{
		{Name: "a", Type: catalog.Int64},
		{Name: "s", Type: catalog.String},
	}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := t.Insert(catalog.Row{int64(i), fmt.Sprintf("row-%d", i)}); err != nil {
			b.Fatal(err)
		}
	}
}

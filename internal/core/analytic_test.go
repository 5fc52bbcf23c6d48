package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"aidb/internal/catalog"
)

// analyticStatements are the load harness's five analytic_scan
// statements: a filtered count, a grouped aggregate, a selective
// projection, a filtered join under ORDER BY/LIMIT and a PREDICT count.
var analyticStatements = []string{
	"SELECT count(*) FROM users WHERE age < 30 AND score > 50",
	"SELECT city, count(*), avg(score) FROM users GROUP BY city",
	"SELECT id, score FROM users WHERE age = 7",
	"SELECT users.id, orders.amount FROM users JOIN orders ON users.id = orders.user_id WHERE orders.amount > 499 AND users.age = 30 ORDER BY orders.amount DESC LIMIT 5",
	"SELECT count(*) FROM users WHERE PREDICT(churn, age, score) = 1",
}

// analyticHash is splitmix64 of (column, id): analyticDB's cells.
func analyticHash(col, id uint64) uint64 {
	x := col<<56 ^ id + 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// analyticDB loads users (100k rows) and orders (200k rows) — together
// more heap pages than the 1 024-frame buffer pool holds — with an index
// on users.id and a churn model over users(age, score), as the load
// harness's analytic_scan does. Rows go straight into the heap; the
// index and the model are built through SQL.
func analyticDB(b testing.TB) *DB {
	b.Helper()
	const users, orders = 100_000, 200_000
	db := OpenSeeded(7)
	if _, err := db.ExecScript("CREATE TABLE users (id INT, age INT, city TEXT, score FLOAT, churned INT); " +
		"CREATE TABLE orders (id INT, user_id INT, amount FLOAT)"); err != nil {
		b.Fatal(err)
	}
	h := analyticHash
	cities := []string{"ams", "ber", "cph", "dub", "edi", "fra", "gva", "hel"}
	load := func(table string, n int, row func(id uint64) catalog.Row) {
		t, err := db.Catalog().Table(table)
		if err != nil {
			b.Fatal(err)
		}
		for id := uint64(0); id < uint64(n); id++ {
			if _, err := t.Insert(row(id)); err != nil {
				b.Fatal(err)
			}
		}
	}
	load("users", users, func(id uint64) catalog.Row {
		age, score := int64(h(1, id)%80), float64(h(3, id)%100000)/1000
		churned := int64(0)
		if (score < 40 && age >= 30) != (h(4, id)%10 == 0) {
			churned = 1
		}
		return catalog.Row{int64(id), age, cities[h(2, id)%8], score, churned}
	})
	load("orders", orders, func(id uint64) catalog.Row {
		return catalog.Row{int64(id), int64(h(5, id) % users), float64(h(6, id)%50000000) / 100000}
	})
	if _, err := db.ExecScript("CREATE INDEX users_id ON users (id); " +
		"CREATE MODEL churn PREDICT churned ON users FEATURES (age, score) WITH (kind = 'logistic', epochs = 20)"); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkAnalyticStatements times each analytic statement on its own,
// from one session on one worker, so each shape's cost is one
// sub-benchmark: `-bench 'AnalyticStatements/group_city'`.
func BenchmarkAnalyticStatements(b *testing.B) {
	db := analyticDB(b)
	db.SetParallelism(1)
	names := []string{"filter_count", "group_city", "rows_age", "join_top", "predict_count"}
	for i, stmt := range analyticStatements {
		b.Run(names[i], func(b *testing.B) {
			sess := db.NewSession()
			defer sess.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Exec(stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalyticSessions runs the five analytic statements round-robin
// from one session and from two concurrent ones, and reports per
// statement the layer counts that say whether concurrent scans share the
// machine or fight over it: buffer-pool evictions and misses (a heap
// scan reads past the pool, so it evicts nothing) and the scans that
// fanned out over morsel workers (auto parallelism takes only idle
// cores, so with two sessions on two cores scans run serially).
func BenchmarkAnalyticSessions(b *testing.B) {
	db := analyticDB(b)
	for _, sessions := range []int{1, 2} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			before := db.Metrics().Snapshot()
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for s := 0; s < sessions; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sess := db.NewSession()
					defer sess.Close()
					for i := next.Add(1) - 1; i < int64(b.N); i = next.Add(1) - 1 {
						if _, err := sess.Exec(analyticStatements[i%int64(len(analyticStatements))]); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			after := db.Metrics().Snapshot()
			for _, m := range []struct{ metric, unit string }{
				{"storage.bufferpool.evictions", "evictions/op"},
				{"storage.bufferpool.misses", "misses/op"},
				{"exec.parallel_ops", "parallel_ops/op"},
			} {
				b.ReportMetric((after[m.metric]-before[m.metric])/float64(b.N), m.unit)
			}
		})
	}
}

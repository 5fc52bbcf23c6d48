package core

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"aidb/internal/sql"
)

// loadInserts are the INSERT statements of an init script shaped like
// the load harness's analytic one: users and orders in 500-row
// INSERT ... VALUES statements, values written as the harness writes
// them.
func loadInserts(users, orders int) []string {
	h := func(col, id uint64) uint64 { // splitmix64 of (column, id)
		x := col<<56 ^ id + 0x9E3779B97F4A7C15
		x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
		x = (x ^ x>>27) * 0x94D049BB133111EB
		return x ^ x>>31
	}
	cities := []string{"ams", "ber", "cph", "dub", "edi", "fra", "gva", "hel"}
	var out []string
	load := func(table string, n int, row func(id uint64) string) {
		for lo := 0; lo < n; lo += 500 {
			var sb strings.Builder
			sb.WriteString("INSERT INTO " + table + " VALUES ")
			for id := lo; id < lo+500 && id < n; id++ {
				if id > lo {
					sb.WriteByte(',')
				}
				sb.WriteString(row(uint64(id)))
			}
			out = append(out, sb.String())
		}
	}
	load("users", users, func(id uint64) string {
		age, score := h(1, id)%80, float64(h(3, id)%100000)/1000
		churned := 0
		if (score < 40 && age >= 30) != (h(4, id)%10 == 0) {
			churned = 1
		}
		return fmt.Sprintf("(%d,%d,'%s',%s,%d)", id, age, cities[h(2, id)%8], strconv.FormatFloat(score, 'f', -1, 64), churned)
	})
	load("orders", orders, func(id uint64) string {
		return fmt.Sprintf("(%d,%d,%s)", id, h(5, id)%uint64(users), strconv.FormatFloat(float64(h(6, id)%50000000)/100000, 'f', -1, 64))
	})
	return out
}

const loadDDL = "CREATE TABLE users (id INT, age INT, city TEXT, score FLOAT, churned INT); " +
	"CREATE TABLE orders (id INT, user_id INT, amount FLOAT)"

// BenchmarkLoad times the four phases of loading the analytic tables
// (100k users, 200k orders) from an init script, each on its own, with
// its allocations: parsing the INSERT statements, running them, CREATE
// INDEX on users(id) and CREATE MODEL over users(age, score).
// `-benchtime 10x` is enough: one op is one whole load.
func BenchmarkLoad(b *testing.B) {
	inserts := loadInserts(100_000, 200_000)
	tables := func(b *testing.B) *DB {
		db := OpenSeeded(7)
		if _, err := db.ExecScript(loadDDL); err != nil {
			b.Fatal(err)
		}
		return db
	}
	// insert runs the INSERT statements one by one, as a script does,
	// with the timer on only while they run: each is parsed and prepared
	// untimed, then executed.
	insert := func(b *testing.B, db *DB, timed bool) {
		for i, q := range inserts {
			b.StopTimer()
			s, err := sql.Parse(q)
			if err != nil {
				b.Fatal(err)
			}
			prep, err := db.Engine().Prepare(fmt.Sprint("load", i), s)
			if err != nil {
				b.Fatal(err)
			}
			if timed {
				b.StartTimer()
			}
			if _, err := db.Engine().ExecutePrepared(context.Background(), prep, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
	exec := func(b *testing.B, db *DB, q string) {
		if _, err := db.Exec(q); err != nil {
			b.Fatal(err)
		}
	}
	phase := func(name string, op func(b *testing.B)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op(b)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
		})
	}
	phase("parse", func(b *testing.B) {
		for _, q := range inserts {
			if _, err := sql.Parse(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	phase("insert", func(b *testing.B) {
		b.StopTimer()
		insert(b, tables(b), true)
	})
	phase("create_index", func(b *testing.B) {
		b.StopTimer()
		db := tables(b)
		insert(b, db, false)
		exec(b, db, "CREATE INDEX users_id ON users (id)")
	})
	var loaded *DB
	models := 0 // names: b.Run runs the phase more than once
	phase("create_model", func(b *testing.B) {
		if loaded == nil {
			b.StopTimer()
			loaded = tables(b)
			insert(b, loaded, false)
		}
		models++
		exec(b, loaded, fmt.Sprintf("CREATE MODEL churn%d PREDICT churned ON users FEATURES (age, score) WITH (kind = 'logistic', epochs = 20)", models))
	})
}

// TestConcurrentBulkInsert: two sessions bulk-insert disjoint id ranges
// into an indexed table while two others read it — indexed point reads,
// which find a row whole or not at all, and count(*), which never goes
// down. At the end every id is in the heap exactly once and reached
// through the index exactly once.
func TestConcurrentBulkInsert(t *testing.T) {
	const perWriter, batch = 1500, 50
	db := OpenSeeded(7)
	if _, err := db.ExecScript("CREATE TABLE t (id INT, v INT, s TEXT); CREATE INDEX t_id ON t (id)"); err != nil {
		t.Fatal(err)
	}
	// Writers start once each reader has read once.
	var writers, readers, reading sync.WaitGroup
	done := make(chan struct{})
	reading.Add(2)
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			sess := db.NewSession()
			defer sess.Close()
			reading.Wait()
			for lo := w * perWriter; lo < (w+1)*perWriter; lo += batch {
				rows := make([]string, batch)
				for i := range rows {
					id := lo + i
					rows[i] = fmt.Sprintf("(%d, %d, 's%d')", id, 7*id, id)
				}
				if _, err := sess.Exec("INSERT INTO t VALUES " + strings.Join(rows, ", ")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	readers.Add(2)
	go func() {
		defer readers.Done()
		sess := db.NewSession()
		defer sess.Close()
		r := rand.New(rand.NewSource(1))
		ready := sync.OnceFunc(reading.Done)
		defer ready()
		for {
			select {
			case <-done:
				return
			default:
			}
			id := int64(r.Intn(2 * perWriter))
			res, err := sess.Exec(fmt.Sprintf("SELECT id, v, s FROM t WHERE id = %d", id))
			if err != nil {
				t.Error(err)
				return
			}
			if len(res.Rows) > 1 || len(res.Rows) == 1 && fmt.Sprint(res.Rows[0]) != fmt.Sprintf("[%d %d s%d]", id, 7*id, id) {
				t.Errorf("id %d reads %v", id, res.Rows)
				return
			}
			ready()
		}
	}()
	go func() {
		defer readers.Done()
		sess := db.NewSession()
		defer sess.Close()
		last := int64(0)
		ready := sync.OnceFunc(reading.Done)
		defer ready()
		for {
			select {
			case <-done:
				return
			default:
			}
			res, err := sess.Exec("SELECT count(*) FROM t")
			if err != nil {
				t.Error(err)
				return
			}
			n := res.Rows[0][0].(int64)
			if n < last || n > 2*perWriter {
				t.Errorf("count(*) = %d after %d", n, last)
				return
			}
			last = n
			ready()
		}
	}()
	writers.Wait()
	close(done)
	readers.Wait()

	if res, err := db.Exec(fmt.Sprintf("EXPLAIN SELECT id FROM t WHERE id BETWEEN 0 AND %d", 2*perWriter)); err != nil || !strings.Contains(res.Rows[0][0].(string), "IndexScan") {
		t.Fatalf("the id range read does not use the index: %v %v", res, err)
	}
	for _, q := range []string{"SELECT id FROM t", fmt.Sprintf("SELECT id FROM t WHERE id BETWEEN 0 AND %d", 2*perWriter)} {
		res, err := db.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]int, 2*perWriter)
		for _, row := range res.Rows {
			seen[row[0].(int64)]++
		}
		for id, n := range seen {
			if n != 1 {
				t.Errorf("%s: id %d read %d times", q, id, n)
			}
		}
	}
}

package aisql

import (
	"context"
	"fmt"
	"testing"

	"aidb/internal/catalog"
	"aidb/internal/obs"
	"aidb/internal/plancache"
)

// Engine-level wall-clock benchmarks: selective queries with and without
// a secondary index, and PREDICT-in-SQL throughput.

func benchEngine(b testing.TB, rows int, withIndex bool) *Engine {
	b.Helper()
	e := NewEngine()
	if _, err := e.Execute("CREATE TABLE items (id INT, qty INT, name TEXT)"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := e.Execute(fmt.Sprintf("INSERT INTO items VALUES (%d, %d, 'n')", i, i%10)); err != nil {
			b.Fatal(err)
		}
	}
	if withIndex {
		if _, err := e.Execute("CREATE INDEX idx_id ON items (id)"); err != nil {
			b.Fatal(err)
		}
	}
	return e
}

func BenchmarkSelectiveQueryFullScan(b *testing.B) {
	e := benchEngine(b, 20000, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Execute("SELECT name FROM items WHERE id = 12345"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectiveQueryIndexed(b *testing.B) {
	e := benchEngine(b, 20000, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Execute("SELECT name FROM items WHERE id = 12345"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRangeQueryIndexed(b *testing.B) {
	e := benchEngine(b, 20000, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Execute("SELECT COUNT(*) FROM items WHERE id BETWEEN 5000 AND 5100"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredictInSQL(b *testing.B) {
	e := NewEngine()
	e.Execute("CREATE TABLE c (age INT, spend FLOAT, label INT)")
	for i := 0; i < 1000; i++ {
		lbl := 0
		if i%3 == 0 {
			lbl = 1
		}
		e.Execute(fmt.Sprintf("INSERT INTO c VALUES (%d, %d.5, %d)", 20+i%60, i%100, lbl))
	}
	if _, err := e.Execute("CREATE MODEL m PREDICT label ON c WITH (kind = 'tree')"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Execute("SELECT COUNT(*) FROM c WHERE PREDICT(m, age, spend) = 1"); err != nil {
			b.Fatal(err)
		}
	}
}

// The prepared point statements of a key-value workload (the load
// harness's mixed_rw shapes) on a 20 000-row table with an index on the
// key: each is an index probe bound at execute, never a scan.

func benchPrepared(b *testing.B, q string) (*Engine, *Prepared) {
	b.Helper()
	e := benchEngine(b, 20000, true)
	e.Plans = plancache.New(0)
	return e, prepare(b, e, q)
}

func BenchmarkPreparedPointGet(b *testing.B) {
	e, get := benchPrepared(b, "SELECT id, qty, name FROM items WHERE id = $1")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExecutePrepared(ctx, get, []catalog.Value{int64(i*7919) % 20000}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPreparedUpdateByKey(b *testing.B) {
	e, upd := benchPrepared(b, "UPDATE items SET qty = $2 WHERE id = $1")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExecutePrepared(ctx, upd, []catalog.Value{int64(i*7919) % 20000, int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPreparedDeleteInsertByKey(b *testing.B) {
	e, del := benchPrepared(b, "DELETE FROM items WHERE id = $1")
	ins := prepare(b, e, "INSERT INTO items VALUES ($1, $2, $3)")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := int64(i*7919) % 20000
		if _, err := e.ExecutePrepared(ctx, del, []catalog.Value{id}); err != nil {
			b.Fatal(err)
		}
		if _, err := e.ExecutePrepared(ctx, ins, []catalog.Value{id, int64(i), "n"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineAdhocPoint is the load harness's point_adhoc point read
// at the engine: ad-hoc text, a plan cache, an instrumented engine with
// a tracer, as a served statement has. "distinct" sends a different key
// every time — one cache entry serves them all; "repeated" sends one
// text over and over, the only kind of ad-hoc statement that used to hit.
func BenchmarkEngineAdhocPoint(b *testing.B) {
	for _, mode := range []string{"distinct", "repeated"} {
		b.Run(mode, func(b *testing.B) {
			e := benchEngine(b, 20000, true)
			e.Plans = plancache.New(0)
			e.Instrument(obs.NewRegistry(), obs.NewTracer(16))
			texts := make([]string, 1024)
			for i := range texts {
				k := 12345
				if mode == "distinct" {
					k = (i * 7919) % 20000
				}
				texts[i] = fmt.Sprintf("SELECT id,qty,name FROM items WHERE id = %d", k)
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.ExecuteContext(ctx, texts[i%len(texts)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

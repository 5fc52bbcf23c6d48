package aisql

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"aidb/internal/catalog"
	"aidb/internal/exec"
	"aidb/internal/ml"
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

// predictEngine loads n rows into c (age INT, spend FLOAT, label INT),
// label 1 on about a third of them, and trains the model m of the given
// kind on them.
func predictEngine(b testing.TB, n int, kind string) *Engine {
	b.Helper()
	e := NewEngine()
	var sb strings.Builder
	sb.WriteString("CREATE TABLE c (age INT, spend FLOAT, label INT); INSERT INTO c VALUES ")
	for i := 0; i < n; i++ {
		age, spend := 20+i%60, i%100
		lbl := 0
		if age+spend > 110 {
			lbl = 1
		}
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d.5, %d)", age, spend, lbl)
	}
	sb.WriteString("; CREATE MODEL m PREDICT label ON c WITH (kind = '" + kind + "', epochs = 20)")
	if _, err := e.ExecuteScript(sb.String()); err != nil {
		b.Fatal(err)
	}
	return e
}

func BenchmarkPredictInSQL(b *testing.B) {
	for _, kind := range []string{"tree", "logistic"} {
		b.Run(kind, func(b *testing.B) {
			e := predictEngine(b, 1000, kind)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Execute("SELECT COUNT(*) FROM c WHERE PREDICT(m, age, spend) = 1"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPredictColumns times PREDICT's chunk form alone: one
// executor chunk (exec.DefaultMorselRows rows) of two feature columns,
// as the analytic PREDICT count hands it over, per model kind, and a
// logistic model over 100 000 rows.
func BenchmarkPredictColumns(b *testing.B) {
	run := func(name string, kind ModelKind, rows int) {
		b.Run(name, func(b *testing.B) {
			m := trainedModel(b, kind, 2)
			cols, out := featureColumns(ml.NewRNG(5), 2, rows), make([]float64, rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.PredictColumns(cols, out, false); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
		})
	}
	for _, kind := range []ModelKind{Logistic, Linear, Tree} {
		run([]string{"logistic", "linear", "tree"}[kind], kind, exec.DefaultMorselRows)
	}
	// 100 000 random rows, whose logits' signs a branch predictor cannot
	// learn as it learns one chunk's run repeated.
	run("logistic-100k", Logistic, 100000)
	// The selecting form of `PREDICT(...) = 1` over the same rows: no
	// prediction vector, the selection written as the sums finish.
	b.Run("logistic-100k-select", func(b *testing.B) {
		const rows = 100000
		m := trainedModel(b, Logistic, 2)
		cols, ints := featureColumns(ml.NewRNG(5), 2, rows), make([][]int64, 2)
		s := m.selector(2, 2, 1)
		all, sel, scratch := make([]int32, rows), make([]int32, rows), make([]float64, rows)
		for i := range all {
			all[i] = int32(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Select(cols, ints, append(sel[:0], all...), scratch)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
	})
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
// text over and over, the only kind of ad-hoc statement that used to hit;
// "range" is point_adhoc's other shape, 20 keys wide, one entry again.
func BenchmarkEngineAdhocPoint(b *testing.B) {
	for _, mode := range []string{"distinct", "repeated", "range"} {
		b.Run(mode, func(b *testing.B) {
			e := benchEngine(b, 20000, true)
			e.Plans = plancache.New(0)
			e.Instrument(obs.NewRegistry(), obs.NewTracer(16))
			texts := make([]string, 1024)
			for i := range texts {
				k := 12345
				if mode != "repeated" {
					k = (i * 7919) % 20000
				}
				texts[i] = fmt.Sprintf("SELECT id,qty,name FROM items WHERE id = %d", k)
				if mode == "range" {
					texts[i] = fmt.Sprintf("SELECT id,qty,name FROM items WHERE id > %d AND id < %d", k, k+20)
				}
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

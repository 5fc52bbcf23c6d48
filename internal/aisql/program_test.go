package aisql

import (
	"context"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"aidb/internal/catalog"
	"aidb/internal/obs"
	"aidb/internal/plancache"
)

// TestCachedProgramConcurrentRuns: eight sessions run four cached
// shapes at once — an index point read, an index range, a heap filter on
// PREDICT under a GROUP BY, and a self-join whose build keys restrict
// its probe's pages — with literals of mixed kinds,
// so each entry's one program serves runs of its kinds while runs of
// other kinds compile their own, at Parallelism 1 and 4 and under a
// memory limit, with EXPLAIN ANALYZE of the same statements among them.
// Every answer must be the one a serial engine without a plan cache
// gives, and every EXPLAIN ANALYZE must report its own run's rows: a run
// that read another's profile, parameters or chunks shows here.
func TestCachedProgramConcurrentRuns(t *testing.T) {
	e := diffEngine(t, true)
	e.Instrument(obs.NewRegistry(), nil)
	if _, err := e.Execute("CREATE MODEL m PREDICT v ON t FEATURES (k) WITH (kind = 'linear')"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	tableRows := res.Rows[0][0].(int64)
	var texts []string
	for _, c := range []struct {
		template string
		fills    [][]any
	}{
		{"SELECT k, v, s FROM t WHERE k = %v", [][]any{{7}, {-3}, {12.5}, {"'x'"}, {9223372036854775807}, {7.0}}},
		{"SELECT k, v FROM t WHERE k > %v AND k < %v", [][]any{{-5, 5}, {0.5, 9.5}, {10, 20}, {-10, 2.0}}},
		{"SELECT v, COUNT(*) FROM t WHERE PREDICT(m, k) > %v GROUP BY v", [][]any{{5}, {7.5}, {-100}, {11}}},
		// The build side's keys, which restrict the probe's pages, change
		// with the literals; 7.5 leaves the build side empty.
		{"SELECT a.k, b.s FROM t a JOIN t b ON a.k = b.k WHERE a.v = %v AND b.v < %v", [][]any{{3, 10}, {5, 23}, {7.5, 5}, {11, 0}}},
	} {
		for _, fill := range c.fills {
			texts = append(texts, fmt.Sprintf(c.template, fill...))
		}
	}
	// The reference: each text parsed as written, planned without the
	// cache and run on a serial executor.
	// An index scan reads the answer's rows (the filter above it drops
	// none), or, for a bound with no int64 value, the whole heap.
	want, indexRows := map[string]string{}, map[string]int64{}
	for _, text := range texts {
		_, rows, err := rawLiteralPlan(t, e, text)
		want[text], indexRows[text] = outcome(rows, err), int64(len(rows))
		if strings.Trim(strings.ReplaceAll(paramKinds(t, text), "int64", ""), ",") != "" {
			indexRows[text] = tableRows
		}
	}
	e.Plans = plancache.New(0)
	e.MemLimit = 4 << 20
	for _, par := range []int{1, 4} {
		e.Parallelism = par
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 3*len(texts); i++ {
					text := texts[(g*5+i)%len(texts)]
					if i%4 == 3 {
						explainRows(t, e, text, tableRows, indexRows[text], want[text] == "error")
						continue
					}
					res, err := e.Execute(text)
					var rows []catalog.Row
					if err == nil {
						rows = res.Rows
					}
					if got := outcome(rows, err); got != want[text] {
						t.Errorf("parallelism %d: %s\n%s", par, text, outcomeDiff(got, want[text]))
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// explainRows runs EXPLAIN ANALYZE of text and checks the rows its scan
// reports — every row of the table for a heap scan, indexRows for an
// index scan — or that the statement fails, as it should.
func explainRows(t *testing.T, e *Engine, text string, tableRows, indexRows int64, fails bool) {
	res, err := e.Execute("EXPLAIN ANALYZE " + text)
	if err != nil || fails {
		if (err != nil) != fails {
			t.Errorf("EXPLAIN ANALYZE %s: error %v, want one: %v", text, err, fails)
		}
		return
	}
	for _, row := range res.Rows {
		op := strings.TrimSpace(row[0].(string))
		actual := row[2].(int64)
		switch {
		case strings.HasPrefix(op, "Scan "):
			if actual != tableRows {
				t.Errorf("EXPLAIN ANALYZE %s: %s reports %d rows, want the table's %d", text, op, actual, tableRows)
			}
		case strings.HasPrefix(op, "IndexScan "):
			if actual != indexRows {
				t.Errorf("EXPLAIN ANALYZE %s: %s reports %d rows, want %d", text, op, actual, indexRows)
			}
		}
	}
}

// Allocation ceilings of a cached point read on an instrumented engine,
// whose entry keeps its compiled program and whose runs recycle their
// chunks and streams, run by the engine's one executor: measured 3 for
// an ad-hoc read and 4 for a prepared get (11 and 6 while every
// statement lexed into a fresh token slice and key, a span tree took
// three allocations and a row boxed in three; 40 and 38 when every run
// compiled the plan and grew fresh chunks). What is left is the trace
// span, the boxed row and its Result, plus the test's own argument
// slice and literal for the get. Each ceiling is one above, for a
// literal key of 256 or more, which the ad-hoc read boxes. A breach
// means per-run compilation or allocation crept back into the front
// end or the run.
const (
	adhocPointAllocCeiling    = 4
	preparedPointAllocCeiling = 5
)

func TestCachedPointReadAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation changes allocation counts")
	}
	e := benchEngine(t, 2000, true)
	e.Plans = plancache.New(0)
	e.Instrument(obs.NewRegistry(), obs.NewTracer(16))
	get := prepare(t, e, "SELECT id, qty, name FROM items WHERE id = $1")
	ctx := context.Background()
	texts := make([]string, 64)
	for i := range texts {
		texts[i] = fmt.Sprintf("SELECT id,qty,name FROM items WHERE id = %d", (i*7919)%2000)
	}
	// A collection empties the sync.Pools a run draws on, and refilling
	// them allocates; count with the collector off.
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	i := 0
	adhoc := func() {
		i++
		if _, err := e.ExecuteContext(ctx, texts[i%len(texts)]); err != nil {
			t.Fatal(err)
		}
	}
	prepared := func() {
		i++
		if _, err := e.ExecutePrepared(ctx, get, []catalog.Value{int64(i*7919) % 2000}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name    string
		run     func()
		ceiling float64
	}{{"ad-hoc point read", adhoc, adhocPointAllocCeiling}, {"prepared point get", prepared, preparedPointAllocCeiling}} {
		for range 10 {
			c.run()
		}
		allocs := testing.AllocsPerRun(200, c.run)
		t.Logf("%s: %.0f allocs/op (ceiling %.0f)", c.name, allocs, c.ceiling)
		if allocs > c.ceiling {
			t.Errorf("%s: %.0f allocs/op exceeds the ceiling %.0f", c.name, allocs, c.ceiling)
		}
	}
}

package experiments

import (
	"fmt"
	"runtime"
	"time"

	"aidb/internal/catalog"
	"aidb/internal/exec"
	"aidb/internal/ml"
	"aidb/internal/obs"
	"aidb/internal/plan"
	"aidb/internal/sql"
)

func init() {
	register("E26", runE26MorselParallelism)
}

// e26Ops are the three data-parallel operator pipelines the morsel
// executor parallelizes: scan+filter, partitioned hash join, and
// grouped aggregation with partial-state merging. Values are integer
// so SUM/AVG are exact in float64 and results compare byte-for-byte
// across parallelism settings.
var e26Ops = []struct {
	name  string
	query string
}{
	{"scan-filter", "SELECT id FROM users WHERE age > 40"},
	{"hash-join", "SELECT users.id, orders.amount FROM orders JOIN users ON orders.uid = users.id"},
	{"group-agg", "SELECT age, COUNT(*), SUM(id), MIN(id), MAX(id), AVG(id) FROM users GROUP BY age"},
}

// e26Catalog builds a users/orders pair big enough to span dozens of
// heap pages, so page-morsel scans genuinely partition.
func e26Catalog(seed uint64, rows int) (*catalog.Catalog, error) {
	rng := ml.NewRNG(seed)
	c := catalog.NewMem()
	users, err := c.CreateTable("users", catalog.Schema{Columns: []catalog.Column{
		{Name: "id", Type: catalog.Int64},
		{Name: "age", Type: catalog.Int64},
	}})
	if err != nil {
		return nil, err
	}
	orders, err := c.CreateTable("orders", catalog.Schema{Columns: []catalog.Column{
		{Name: "uid", Type: catalog.Int64},
		{Name: "amount", Type: catalog.Int64},
	}})
	if err != nil {
		return nil, err
	}
	for i := 0; i < rows; i++ {
		if _, err := users.Insert(catalog.Row{int64(i), int64(rng.Intn(80))}); err != nil {
			return nil, err
		}
		if _, err := orders.Insert(catalog.Row{int64(rng.Intn(rows / 10)), int64(rng.Intn(1000))}); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func e26Plan(c *catalog.Catalog, query string) (plan.Node, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	return plan.Build(c, stmt.(*sql.SelectStmt))
}

// e26Run executes p once under the given morsel configuration and
// returns the rows plus the number of morsels the run dispatched.
func e26Run(p plan.Node, workers, morselRows, scanPages int, reg *obs.Registry) ([]catalog.Row, uint64, error) {
	ex := exec.New(nil)
	ex.Parallelism = workers
	ex.MorselSize = morselRows
	ex.ScanMorselPages = scanPages
	ex.Obs = exec.NewMetrics(reg)
	before := reg.Snapshot()["exec.morsels"]
	res, err := ex.Run(p)
	if err != nil {
		return nil, 0, err
	}
	after := reg.Snapshot()["exec.morsels"]
	return res.Rows, uint64(after - before), nil
}

func rowsEqual(a, b []catalog.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// runE26MorselParallelism validates the morsel-driven parallel executor:
// every operator pipeline, at every worker count and morsel granularity,
// must return exactly the serial baseline's rows in the serial order —
// the executor's determinism contract — while actually fanning work out
// into multiple morsels. Wall-clock comparison is deliberately excluded
// from the table (runners are deterministic for a fixed seed; timings
// are not): measured speedups land in the exec.speedup.* histograms, and
// BenchmarkExec's serial/parallel sub-benchmarks time the same plans.
func runE26MorselParallelism(seed uint64) *Table {
	t := &Table{
		ID:     "E26",
		Title:  "Morsel-driven parallel execution: serial-identical results at every granularity",
		Claim:  "Partitioned parallel scans, hash joins and aggregations return exactly the serial plan's rows, in the serial order, at every worker count and morsel size (§2.2 query execution at scale; morsel-driven parallelism)",
		Header: []string{"operator", "workers", "morsel rows", "scan pages", "rows out", "morsels", "match"},
	}
	const tableRows = 6000
	c, err := e26Catalog(seed, tableRows)
	if err != nil {
		t.Note = "catalog setup failed: " + err.Error()
		return t
	}
	reg := obs.NewRegistry()
	m := exec.NewMetrics(reg)
	// Morsel granularity sweep: fine (max dispatch overhead), default,
	// coarse (least parallelism that still splits this table).
	grains := []struct{ rows, pages int }{{256, 1}, {exec.DefaultMorselRows, exec.DefaultScanMorselPages}, {4096, 16}}
	speedupClass := map[string]string{"scan-filter": "scan", "hash-join": "join", "group-agg": "agg"}

	t.Holds = true
	for _, op := range e26Ops {
		p, err := e26Plan(c, op.query)
		if err != nil {
			t.Note = op.name + " plan failed: " + err.Error()
			t.Holds = false
			return t
		}
		serialStart := time.Now()
		serialRows, serialMorsels, err := e26Run(p, 1, exec.DefaultMorselRows, exec.DefaultScanMorselPages, reg)
		serialNs := time.Since(serialStart)
		if err != nil {
			t.Note = op.name + " serial run failed: " + err.Error()
			t.Holds = false
			return t
		}
		t.Rows = append(t.Rows, []string{
			op.name, "1 (serial)", itoa(exec.DefaultMorselRows), itoa(exec.DefaultScanMorselPages),
			itoa(len(serialRows)), itoa(int(serialMorsels)), "baseline",
		})
		for _, workers := range []int{2, 4} {
			for _, g := range grains {
				start := time.Now()
				rows, morsels, err := e26Run(p, workers, g.rows, g.pages, reg)
				elapsed := time.Since(start)
				if err != nil {
					t.Note = fmt.Sprintf("%s workers=%d failed: %v", op.name, workers, err)
					t.Holds = false
					return t
				}
				match := rowsEqual(rows, serialRows)
				if !match || morsels < 2 {
					t.Holds = false
				}
				if elapsed > 0 {
					m.ObserveSpeedup(speedupClass[op.name], float64(serialNs)/float64(elapsed))
				}
				matchS := "yes"
				if !match {
					matchS = "NO"
				}
				t.Rows = append(t.Rows, []string{
					op.name, itoa(workers), itoa(g.rows), itoa(g.pages),
					itoa(len(rows)), itoa(int(morsels)), matchS,
				})
			}
		}
	}
	t.Note = fmt.Sprintf(
		"results are row-for-row identical to serial at every worker count and morsel grain; wall-clock speedups feed exec.speedup.* histograms (BenchmarkExec times serial vs parallel) — this host has %d CPU(s), and with one CPU auto parallelism degenerates to the serial path by design",
		runtime.NumCPU())
	return t
}

package experiments

import (
	"fmt"

	"aidb/internal/core"
	"aidb/internal/idxadvisor"
	"aidb/internal/ml"
)

func init() {
	register("E32", runE32SystemCatalog)
}

// e32Workload drives a deterministic mixed SELECT workload — point
// filters, a BETWEEN, a join, and an aggregate — through the database so
// the slow-query log and the statement-statistics store both observe the
// same executions. Returns the number of statements run.
func e32Workload(db *core.DB, rng *ml.RNG) (int, error) {
	type shape struct {
		tmpl  string
		args  int
		calls int
	}
	shapes := []shape{
		{"SELECT id FROM users WHERE age > %d", 1, 12},
		{"SELECT score FROM users WHERE score BETWEEN %d AND %d", 2, 8},
		{"SELECT u.id, o.amount FROM users u JOIN orders o ON u.id = o.user_id WHERE o.amount > %d", 1, 6},
		{"SELECT count(*) FROM orders WHERE amount < %d", 1, 4},
	}
	total := 0
	for _, s := range shapes {
		for i := 0; i < s.calls; i++ {
			var q string
			if s.args == 2 {
				lo := rng.Intn(40)
				q = fmt.Sprintf(s.tmpl, lo, lo+rng.Intn(40))
			} else {
				q = fmt.Sprintf(s.tmpl, rng.Intn(80))
			}
			if _, err := db.Exec(q); err != nil {
				return total, err
			}
			total++
		}
	}
	return total, nil
}

// e32DB builds a seeded database with a two-table schema and enough rows
// that the workload's predicates select varying fractions.
func e32DB(seed uint64) (*core.DB, *ml.RNG, error) {
	db := core.OpenSeeded(seed)
	rng := ml.NewRNG(seed + 1)
	if _, err := db.Exec("CREATE TABLE users (id INT, age INT, score INT)"); err != nil {
		return nil, nil, err
	}
	if _, err := db.Exec("CREATE TABLE orders (id INT, user_id INT, amount INT)"); err != nil {
		return nil, nil, err
	}
	ins := "INSERT INTO users VALUES "
	for i := 0; i < 300; i++ {
		if i > 0 {
			ins += ", "
		}
		ins += fmt.Sprintf("(%d, %d, %d)", i, rng.Intn(90), rng.Intn(100))
	}
	if _, err := db.Exec(ins); err != nil {
		return nil, nil, err
	}
	ins = "INSERT INTO orders VALUES "
	for i := 0; i < 500; i++ {
		if i > 0 {
			ins += ", "
		}
		ins += fmt.Sprintf("(%d, %d, %d)", i, rng.Intn(300), rng.Intn(160))
	}
	if _, err := db.Exec(ins); err != nil {
		return nil, nil, err
	}
	return db, rng, nil
}

// candKey renders a candidate list compactly for the table.
func e32Top(cands []idxadvisor.Candidate, k int) string {
	s := ""
	for i, c := range idxadvisor.TopCandidates(cands, k) {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s.%s:%.0f", c.Table, c.Column, c.Weight)
	}
	if s == "" {
		return "(none)"
	}
	return s
}

func e32Same(a, b []idxadvisor.Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runE32SystemCatalog validates that the index advisor mining its
// workload *through the engine* — plain SELECTs over system.statements
// and system.slow_queries — reproduces exactly the candidate set of the
// legacy wiring that reads the slow-query log store directly. The
// virtual-catalog path adds no privileged pointers: what SQL can see is
// enough to close the monitor→advise loop.
func runE32SystemCatalog(seed uint64) *Table {
	t := &Table{
		ID:     "E32",
		Title:  "self-observation: index advisor fed by SQL over the system catalog",
		Claim:  "mining the workload via SELECTs over system.statements / system.slow_queries yields the same index candidates as reading the slow-log store directly",
		Header: []string{"source", "records", "candidates", "top candidates (table.column:weight)"},
	}
	fail := func(err error) *Table {
		t.Note = err.Error()
		return t
	}
	db, rng, err := e32DB(seed)
	if err != nil {
		return fail(err)
	}
	ran, err := e32Workload(db, rng)
	if err != nil {
		return fail(err)
	}

	// Direct wiring: the caller holds the *obs.SlowQueryLog pointer.
	direct := idxadvisor.Candidates(idxadvisor.FromSlowLog(db.SlowLog().Entries()))

	// SQL wiring: the advisor only gets a "run this query" handle.
	stmtRecs, err := idxadvisor.StatementsViaSQL(db.Engine())
	if err != nil {
		return fail(err)
	}
	viaStmts := idxadvisor.Candidates(stmtRecs)
	slowRecs, err := idxadvisor.SlowQueriesViaSQL(db.Engine())
	if err != nil {
		return fail(err)
	}
	viaSlow := idxadvisor.Candidates(slowRecs)

	t.Rows = [][]string{
		{"slowlog store (direct)", itoa(len(db.SlowLog().Entries())), itoa(len(direct)), e32Top(direct, 3)},
		{"SQL: system.statements", itoa(len(stmtRecs)), itoa(len(viaStmts)), e32Top(viaStmts, 3)},
		{"SQL: system.slow_queries", itoa(len(slowRecs)), itoa(len(viaSlow)), e32Top(viaSlow, 3)},
	}
	t.Holds = len(direct) >= 4 && e32Same(direct, viaStmts) && e32Same(direct, viaSlow)
	if t.Holds {
		t.Note = fmt.Sprintf("%d statements executed; all three sources agree on %d candidates", ran, len(direct))
	} else {
		t.Note = "candidate sets diverge between direct and SQL-mined workload sources"
	}
	return t
}

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
// filters, a BETWEEN, a join, and an aggregate — through the database,
// returning the texts it executed.
func e32Workload(db *core.DB, rng *ml.RNG) ([]string, error) {
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
	var ran []string
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
				return ran, err
			}
			ran = append(ran, q)
		}
	}
	return ran, nil
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
// workload *through the engine* — a plain SELECT over system.statements,
// which keeps one text per statement with its call count — reproduces
// exactly the candidate set of every text the workload executed. The
// virtual-catalog path adds no privileged pointers: what SQL can see is
// enough to close the monitor→advise loop.
func runE32SystemCatalog(seed uint64) *Table {
	t := &Table{
		ID:     "E32",
		Title:  "self-observation: index advisor fed by SQL over the system catalog",
		Claim:  "mining the workload via a SELECT over system.statements yields the same index candidates as the texts the workload executed",
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

	// Reference: every text the workload executed, one call each.
	executed := make([]idxadvisor.StatementRecord, len(ran))
	for i, q := range ran {
		executed[i] = idxadvisor.StatementRecord{Query: q, Calls: 1}
	}
	reference := idxadvisor.Candidates(executed)

	// SQL wiring: the advisor only gets a "run this query" handle.
	stmtRecs, err := idxadvisor.StatementsViaSQL(db.Engine())
	if err != nil {
		return fail(err)
	}
	viaStmts := idxadvisor.Candidates(stmtRecs)

	t.Rows = [][]string{
		{"executed texts (reference)", itoa(len(executed)), itoa(len(reference)), e32Top(reference, 3)},
		{"SQL: system.statements", itoa(len(stmtRecs)), itoa(len(viaStmts)), e32Top(viaStmts, 3)},
	}
	t.Holds = len(reference) >= 4 && e32Same(reference, viaStmts)
	if t.Holds {
		t.Note = fmt.Sprintf("%d statements executed; both sources agree on %d candidates", len(ran), len(reference))
	} else {
		t.Note = "candidate sets diverge between the executed texts and the SQL-mined workload"
	}
	return t
}

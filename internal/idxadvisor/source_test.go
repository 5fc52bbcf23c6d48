package idxadvisor

import (
	"errors"
	"testing"

	"aidb/internal/catalog"
)

func TestCandidatesMiningAndWeights(t *testing.T) {
	recs := []StatementRecord{
		{Query: "SELECT id FROM users WHERE age > 10", Calls: 5},
		{Query: "SELECT id FROM users WHERE age > 99 AND score BETWEEN 1 AND 2", Calls: 2},
		{Query: "SELECT u.id FROM users u JOIN orders o ON u.id = o.user_id WHERE o.amount IN (1, 2)", Calls: 3},
		{Query: "SELECT calls FROM system.statements WHERE calls > 0", Calls: 9}, // virtual: no candidates
		{Query: "INSERT INTO users VALUES (1, 2, 3)", Calls: 7},                  // not a SELECT
		{Query: "SELECT nope FROM", Calls: 7},                                    // does not parse
		{Query: "SELECT id FROM users WHERE age > 1", Calls: 0},                  // zero weight
	}
	cands := Candidates(recs)
	want := map[[2]string]float64{
		{"users", "age"}:      7,
		{"users", "score"}:    2,
		{"users", "id"}:       3,
		{"orders", "user_id"}: 3,
		{"orders", "amount"}:  3,
	}
	if len(cands) != len(want) {
		t.Fatalf("got %d candidates %+v, want %d", len(cands), cands, len(want))
	}
	for _, c := range cands {
		if want[[2]string{c.Table, c.Column}] != c.Weight {
			t.Errorf("candidate %s.%s weight %.0f, want %.0f", c.Table, c.Column, c.Weight, want[[2]string{c.Table, c.Column}])
		}
	}
	// Sorted by weight descending; users.age (7) leads.
	if cands[0].Table != "users" || cands[0].Column != "age" {
		t.Fatalf("top candidate = %+v", cands[0])
	}
	if top := TopCandidates(cands, 2); len(top) != 2 {
		t.Fatalf("TopCandidates kept %d", len(top))
	}
}

type scriptedQuerier struct {
	rows []catalog.Row
	err  error
	got  string
}

func (s *scriptedQuerier) QueryRows(q string) ([]catalog.Row, error) {
	s.got = q
	return s.rows, s.err
}

func TestStatementsViaSQL(t *testing.T) {
	q := &scriptedQuerier{rows: []catalog.Row{
		// query, calls, errors, cancels, sheds, total_ns
		{"SELECT a FROM t WHERE b < 1", int64(10), int64(1), int64(2), int64(3), int64(5000)},
		{"SELECT a FROM t WHERE c < 1", int64(4), int64(2), int64(1), int64(1), int64(900)}, // ok = 0: dropped
	}}
	recs, err := StatementsViaSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Calls != 4 || recs[0].TotalNs != 5000 {
		t.Fatalf("recs = %+v", recs)
	}
	if q.got == "" || q.got[:6] != "SELECT" {
		t.Fatalf("querier saw %q", q.got)
	}

	q.err = errors.New("engine down")
	if _, err := StatementsViaSQL(q); err == nil {
		t.Fatal("engine error swallowed")
	}
	q.err = nil
	q.rows = []catalog.Row{{"short row"}}
	if _, err := StatementsViaSQL(q); err == nil {
		t.Fatal("malformed row accepted")
	}
}

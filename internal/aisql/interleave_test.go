package aisql

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"aidb/internal/catalog"
	"aidb/internal/plancache"
	"aidb/internal/storage"
)

// Differential test for DML interleaved with reads (ROADMAP item 6b). Two
// engines load the same tables — one runs every executor serially, the
// other at Parallelism 4 — and a seeded generator drives both through the
// same INSERT, UPDATE and DELETE statements, ad hoc and prepared, some of
// them failing on purpose. Deletes and inserts churn the heap, so record
// ids and heap slots are reused (PR 17) and secondary-index entries come
// and go with them. After every statement the two engines must hold the
// same heap, row for row and record id for record id, and the same index
// entries, each pointing at a heap row with its value; then joins, GROUP
// BY, DISTINCT, ORDER BY … LIMIT and PREDICT counts run on both, each once
// straight after a plan-cache invalidation and once as a cache hit, and
// all four answers must agree.

// interleaveEngine loads users and orders with an index on each join
// key and trains the model the PREDICT counts call.
func interleaveEngine(t *testing.T, parallelism int) *Engine {
	t.Helper()
	e := NewEngine()
	e.Plans = plancache.New(0)
	e.Parallelism = parallelism
	var sb strings.Builder
	sb.WriteString("CREATE TABLE users (id INT, age INT, city TEXT, score FLOAT, churned INT); INSERT INTO users VALUES ")
	for i := 0; i < 300; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		age, score := 18+(i*29)%60, float64((i*61)%200)/2
		churned := 0
		if age < 40 && score < 50 {
			churned = 1
		}
		fmt.Fprintf(&sb, "(%d, %d, 'c%d', %.1f, %d)", i, age, i%7, score, churned)
	}
	sb.WriteString("; CREATE TABLE orders (id INT, user_id INT, amount FLOAT); INSERT INTO orders VALUES ")
	for i := 0; i < 900; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %.2f)", i, (i*13)%320, float64((i*37)%1000)/4)
	}
	sb.WriteString("; CREATE MODEL churn PREDICT churned ON users FEATURES (age, score) WITH (kind = 'logistic', epochs = 20)")
	sb.WriteString("; CREATE INDEX users_id ON users (id); CREATE INDEX orders_user ON orders (user_id)")
	if _, err := e.ExecuteScript(sb.String()); err != nil {
		t.Fatal(err)
	}
	return e
}

// indexImage renders every entry of every secondary index as "table.col
// value rid", sorted, and checks each entry against the heap: the record
// it names must be live and hold the entry's value, and every live row
// must have exactly one entry.
func indexImage(t *testing.T, e *Engine) string {
	t.Helper()
	e.mu.RLock()
	defer e.mu.RUnlock()
	var lines []string
	for name, si := range e.indexes {
		tab, err := e.Cat.Table(si.table)
		if err != nil {
			t.Fatal(err)
		}
		entries := map[storage.RecordID]int64{}
		si.mu.RLock()
		si.tree.Range(math.MinInt64, math.MaxInt64, func(k int64, v uint64) bool {
			rid := storage.RecordID{Page: storage.PageID(v >> 16), Slot: int(v & 0xFFFF)}
			if _, dup := entries[rid]; dup {
				t.Errorf("%s: two entries for record %v", name, rid)
			}
			entries[rid] = k >> dupBits
			lines = append(lines, fmt.Sprintf("%s %d %v", name, k>>dupBits, rid))
			return true
		})
		si.mu.RUnlock()
		live := 0
		if err := tab.Scan(func(rid storage.RecordID, r catalog.Row) bool {
			live++
			if v, ok := entries[rid]; !ok || v != r[si.column].(int64) {
				t.Errorf("%s: heap row %v %v has index entry %d (present %v)", name, rid, r, v, ok)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if live != len(entries) {
			t.Errorf("%s: %d index entries for %d live rows", name, len(entries), live)
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// dmlGen emits one DML statement as text with $N holes and its values.
type dmlGen struct {
	r      *rand.Rand
	nextID int64
}

func (g *dmlGen) next() (text string, params []catalog.Value) {
	arg := func(v catalog.Value) string {
		params = append(params, v)
		return fmt.Sprintf("$%d", len(params))
	}
	switch p := g.r.Intn(20); {
	case p < 3: // index range delete: frees slots on a few pages
		lo := int64(g.r.Intn(340))
		return "DELETE FROM users WHERE id BETWEEN " + arg(lo) + " AND " + arg(lo+int64(g.r.Intn(12))), params
	case p < 5: // heap delete over a non-indexed column
		return "DELETE FROM orders WHERE amount < " + arg(float64(g.r.Intn(60))) + " AND user_id > " + arg(int64(g.r.Intn(300))), params
	case p < 7:
		return "UPDATE users SET age = age + 1, score = score / 2 WHERE city = " + arg(fmt.Sprintf("c%d", g.r.Intn(7))) + " AND age < " + arg(int64(30+g.r.Intn(40))), params
	case p < 9: // moves rows between index keys
		id := int64(g.r.Intn(320))
		return "UPDATE users SET id = id + " + arg(int64(1000+g.r.Intn(50))) + " WHERE id = " + arg(id), params
	case p < 10:
		lo := int64(g.r.Intn(320))
		return "UPDATE orders SET amount = amount + 7.5, user_id = user_id + 1 WHERE user_id BETWEEN " + arg(lo) + " AND " + arg(lo+3), params
	case p < 11: // fails on some row: the statement must change nothing
		return "UPDATE users SET churned = 100 / (age - " + arg(int64(18+g.r.Intn(60))) + ")", params
	case p < 12: // a value that does not fit the column
		return "UPDATE orders SET user_id = 'x' WHERE id < " + arg(int64(g.r.Intn(900))), params
	case p < 16: // churn: new rows land in the slots deletes freed
		var rows []string
		for n := 1 + g.r.Intn(6); n > 0; n-- {
			id := g.nextID
			g.nextID++
			if g.r.Intn(2) == 0 {
				id = int64(g.r.Intn(320)) // reuse an id that may have been deleted
			}
			age := 18 + g.r.Intn(60)
			rows = append(rows, fmt.Sprintf("(%s, %s, %s, %s, %s)", arg(id), arg(int64(age)),
				arg(fmt.Sprintf("c%d", g.r.Intn(7))), arg(float64(g.r.Intn(200))/2), arg(int64(g.r.Intn(2)))))
		}
		return "INSERT INTO users VALUES " + strings.Join(rows, ", "), params
	default:
		var rows []string
		for n := 1 + g.r.Intn(8); n > 0; n-- {
			rows = append(rows, fmt.Sprintf("(%s, %s, %s)", arg(int64(900+g.r.Intn(500))), arg(int64(g.r.Intn(330))), arg(float64(g.r.Intn(1000))/4)))
		}
		return "INSERT INTO orders VALUES " + strings.Join(rows, ", "), params
	}
}

// literal spells a $N statement with its values in place.
func literal(text string, params []catalog.Value) string {
	for i := len(params); i >= 1; i-- {
		var lit string
		switch v := params[i-1].(type) {
		case string:
			lit = "'" + v + "'"
		case float64:
			lit = fmt.Sprintf("%.2f", v)
		default:
			lit = fmt.Sprint(v)
		}
		text = strings.ReplaceAll(text, fmt.Sprintf("$%d", i), lit)
	}
	return text
}

// interleaveQueries are the reads run after every statement; a true
// ordered flag compares answers as sequences.
func interleaveQueries(r *rand.Rand) []struct {
	text    string
	ordered bool
} {
	return []struct {
		text    string
		ordered bool
	}{
		{fmt.Sprintf("SELECT u.id, u.city, o.amount FROM users u JOIN orders o ON u.id = o.user_id WHERE o.amount > %d AND u.age < %d", r.Intn(200), 20+r.Intn(60)), false},
		{"SELECT u.city, COUNT(*), SUM(o.amount), MAX(o.id) FROM users u JOIN orders o ON u.id = o.user_id GROUP BY u.city", false},
		{fmt.Sprintf("SELECT city, COUNT(*), SUM(score), MIN(age), MAX(age), AVG(score) FROM users WHERE age > %d GROUP BY city", 18+r.Intn(50)), false},
		{fmt.Sprintf("SELECT DISTINCT city FROM users WHERE id < %d", r.Intn(400)), false},
		{fmt.Sprintf("SELECT DISTINCT user_id FROM orders WHERE amount > %d", r.Intn(250)), false},
		{fmt.Sprintf("SELECT id, score FROM users WHERE age >= %d ORDER BY score DESC, id LIMIT %d", 18+r.Intn(60), 1+r.Intn(9)), true},
		{"SELECT o.id, o.amount FROM orders o JOIN users u ON o.user_id = u.id ORDER BY o.amount, o.id LIMIT 6", true},
		{"SELECT COUNT(*) FROM users WHERE PREDICT(churn, age, score) = 1", false},
		{fmt.Sprintf("SELECT id, age, city FROM users WHERE id BETWEEN %d AND %d", r.Intn(300), 300+r.Intn(800)), false},
		{fmt.Sprintf("SELECT COUNT(*), SUM(amount) FROM orders WHERE user_id = %d", r.Intn(320)), false},
	}
}

func TestInterleavedDMLDifferential(t *testing.T) {
	engines := [2]*Engine{interleaveEngine(t, 1), interleaveEngine(t, 4)}
	g := &dmlGen{r: rand.New(rand.NewSource(20210623)), nextID: 5000}
	ctx := context.Background()
	// everLive is every record id some users row has had; a fresh row
	// landing on one that was free just before is a reused slot.
	everLive := map[string]bool{}
	rids := func(image string) map[string]bool {
		out := map[string]bool{}
		for _, l := range strings.Split(image, "\n") {
			if rid, _, ok := strings.Cut(l, " "); ok {
				out[rid] = true
			}
		}
		return out
	}
	failed, changed, reused := 0, 0, 0
	const steps = 160
	for step := 0; step < steps; step++ {
		text, params := g.next()
		before := heapImage(t, engines[0], "users") + heapImage(t, engines[0], "orders")
		usersBefore := rids(heapImage(t, engines[0], "users"))
		var errs [2]bool
		for i, e := range engines {
			var err error
			if step%2 == 0 {
				_, err = e.Execute(literal(text, params))
			} else {
				var prep *Prepared
				if prep, err = e.PrepareText("PREPARE p AS " + text); err == nil {
					_, err = e.ExecutePrepared(ctx, prep, params)
				}
			}
			errs[i] = err != nil
		}
		if errs[0] != errs[1] {
			t.Fatalf("step %d: %s %v: serial failed %v, parallel failed %v", step, text, params, errs[0], errs[1])
		}
		for _, table := range []string{"users", "orders"} {
			if a, b := heapImage(t, engines[0], table), heapImage(t, engines[1], table); a != b {
				t.Fatalf("step %d: %s %v: %s heaps differ, serial vs parallel\n%s", step, text, params, table, outcomeDiff(b, a))
			}
		}
		if a, b := indexImage(t, engines[0]), indexImage(t, engines[1]); a != b {
			t.Fatalf("step %d: %s %v: indexes differ, serial vs parallel\n%s", step, text, params, outcomeDiff(b, a))
		}
		after := heapImage(t, engines[0], "users") + heapImage(t, engines[0], "orders")
		switch {
		case errs[0]:
			failed++
			if after != before {
				t.Fatalf("step %d: failed %s %v changed a table", step, text, params)
			}
		case after != before:
			changed++
		}
		for rid := range rids(heapImage(t, engines[0], "users")) {
			if everLive[rid] && !usersBefore[rid] {
				reused++
			}
			everLive[rid] = true
		}

		for _, q := range interleaveQueries(g.r) {
			render := outcome
			if q.ordered {
				render = sequence
			}
			want, first := "", true
			for i, e := range engines {
				e.Plans.Invalidate()
				for _, turn := range []string{"first run", "cache hit"} {
					res, err := e.Execute(q.text)
					var rows []catalog.Row
					if err == nil {
						rows = res.Rows
					}
					got := render(rows, err)
					if first {
						if err != nil {
							t.Fatalf("step %d: %s: %v", step, q.text, err)
						}
						want, first = got, false
					}
					if got != want {
						t.Fatalf("step %d after %s %v: engine %d, %s: %s\n%s", step, text, params, i, turn, q.text, outcomeDiff(got, want))
					}
				}
			}
		}
	}
	// The generator must reach what the test is for.
	t.Logf("%d statements: %d failed, %d changed a table, %d rows landed in a reused record id", steps, failed, changed, reused)
	if failed < 5 || changed < steps/2 || reused < 10 {
		t.Errorf("weak coverage over %d statements: %d failed, %d changed a table, %d rows landed in a reused record id", steps, failed, changed, reused)
	}
}

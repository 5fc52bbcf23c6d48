package aisql

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"aidb/internal/catalog"
	"aidb/internal/exec"
	"aidb/internal/obs"
)

// joinEngine loads p (k INT, r INT, f FLOAT), 3 000 rows with k rising
// with the row, r shuffled and f = k/2, and b (k INT, w INT, g FLOAT),
// 300 rows whose keys spread over and past p's while w rises with the
// row, so a filter on w picks keys from a band of p's pages; both hold
// the int64 extremes. test.nulls is a virtual table whose k is NULL in
// some rows.
func joinEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	var sb strings.Builder
	sb.WriteString("CREATE TABLE p (k INT, r INT, f FLOAT); INSERT INTO p VALUES ")
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&sb, "(%d, %d, %v), ", i, i*7919%3000, float64(i)/2)
	}
	fmt.Fprintf(&sb, "(%d, 1, -1.5), (%d, 2, 0.5)", int64(math.MinInt64), int64(math.MaxInt64))
	sb.WriteString("; CREATE TABLE b (k INT, w INT, g FLOAT); INSERT INTO b VALUES ")
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&sb, "(%d, %d, %d.0), ", i*37%3600-100, i/30, i*37%3600-100)
	}
	fmt.Fprintf(&sb, "(%d, 0, 1.0), (%d, 0, 2.0)", int64(math.MaxInt64), int64(math.MinInt64)+1)
	if _, err := e.ExecuteScript(sb.String()); err != nil {
		t.Fatal(err)
	}
	err := e.Cat.RegisterVirtual(&catalog.FuncTable{
		QName: "test.nulls",
		Cols:  catalog.Schema{Columns: []catalog.Column{{Name: "k", Type: catalog.Int64}, {Name: "tag", Type: catalog.Int64}}},
		Est:   func() int { return 5 },
		Fetch: func() ([]catalog.Row, error) {
			return []catalog.Row{{nil, int64(1)}, {int64(5), int64(2)}, {int64(7), int64(3)}, {nil, int64(4)}, {int64(math.MaxInt64), int64(5)}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// joinEq is = between two join keys: NULL equals nothing, two INTs
// compare as int64, anything else as float64.
func joinEq(a, b catalog.Value) bool {
	x, xi := a.(int64)
	y, yi := b.(int64)
	if xi && yi {
		return x == y
	}
	f, ok1 := asFloat(a)
	g, ok2 := asFloat(b)
	return ok1 && ok2 && f == g
}

func asFloat(v catalog.Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

// joinCase is a join of tables l and r on column lk of l = column rk of
// r, filtered by keep and projected by out, written as text with $N for
// the arguments each run binds — or, when fails is set, a statement
// that must fail whatever it binds.
type joinCase struct {
	text   string
	l, r   string
	lk, rk int
	keep   func(l, r catalog.Row, args []catalog.Value) bool
	out    func(l, r catalog.Row) catalog.Row
	args   [][]catalog.Value
	fails  bool
}

// want is c's answer for args, over tables' rows by name.
func (c joinCase) want(tables map[string][]catalog.Row, args []catalog.Value) string {
	if c.fails {
		return outcome(nil, errors.New("fails"))
	}
	var out []catalog.Row
	for _, l := range tables[c.l] {
		for _, r := range tables[c.r] {
			if joinEq(l[c.lk], r[c.rk]) && c.keep(l, r, args) {
				out = append(out, c.out(l, r))
			}
		}
	}
	return outcome(out, nil)
}

var joinCases = []joinCase{
	{
		text: "SELECT p.k, p.r, b.w FROM p JOIN b ON p.k = b.k WHERE b.w < $1",
		l:    "p", r: "b", lk: 0, rk: 0,
		keep: func(l, r catalog.Row, a []catalog.Value) bool { return r[1].(int64) < a[0].(int64) },
		out:  func(l, r catalog.Row) catalog.Row { return catalog.Row{l[0], l[1], r[1]} },
		// 0 keeps no b row: an empty build side.
		args: [][]catalog.Value{{int64(1)}, {int64(0)}, {int64(4)}, {int64(11)}},
	},
	{
		text: "SELECT p.k, b.w FROM b JOIN p ON b.k = p.r WHERE b.w = $1 AND p.k > $2",
		l:    "b", r: "p", lk: 0, rk: 1,
		keep: func(l, r catalog.Row, a []catalog.Value) bool {
			return l[1].(int64) == a[0].(int64) && r[0].(int64) > a[1].(int64)
		},
		out:  func(l, r catalog.Row) catalog.Row { return catalog.Row{r[0], l[1]} },
		args: [][]catalog.Value{{int64(2), int64(100)}, {int64(0), int64(-1)}, {int64(9), int64(2900)}},
	},
	{
		text: "SELECT p.k, b.w FROM p JOIN b ON p.f = b.g WHERE b.w < $1",
		l:    "p", r: "b", lk: 2, rk: 2,
		keep: func(l, r catalog.Row, a []catalog.Value) bool { return r[1].(int64) < a[0].(int64) },
		out:  func(l, r catalog.Row) catalog.Row { return catalog.Row{l[0], r[1]} },
		args: [][]catalog.Value{{int64(3)}, {int64(0)}},
	},
	{
		text: "SELECT p.k, b.w FROM p JOIN b ON p.k = b.g WHERE b.w < $1",
		l:    "p", r: "b", lk: 0, rk: 2,
		keep: func(l, r catalog.Row, a []catalog.Value) bool { return r[1].(int64) < a[0].(int64) },
		out:  func(l, r catalog.Row) catalog.Row { return catalog.Row{l[0], r[1]} },
		args: [][]catalog.Value{{int64(2)}, {int64(0)}},
	},
	{
		// The probe's filter fails on the row with r = 5, so no page may
		// be left out, even with no build row (w < 0) to match.
		text:  "SELECT p.k, b.w FROM p JOIN b ON p.k = b.k WHERE b.w < $1 AND p.k / (p.r - 5) > 0",
		args:  [][]catalog.Value{{int64(0)}, {int64(1)}},
		fails: true,
	},
	{
		text: "SELECT p.k, n.tag FROM p JOIN test.nulls n ON p.k = n.k WHERE p.r < $1",
		l:    "p", r: "test.nulls", lk: 0, rk: 0,
		keep: func(l, r catalog.Row, a []catalog.Value) bool { return l[1].(int64) < a[0].(int64) },
		out:  func(l, r catalog.Row) catalog.Row { return catalog.Row{l[0], r[1]} },
		args: [][]catalog.Value{{int64(3000)}, {int64(0)}},
	},
}

// TestJoinKeyPruningMatchesNestedLoop: joins whose build keys prune the
// probe's pages return what a nested loop over the tables' rows returns,
// ad hoc (a plan-cache miss, then hits with other literals) and
// prepared, at Parallelism 1 and 4 — with INT keys clustered and
// shuffled, an empty build side, FLOAT and mixed INT/FLOAT keys (which
// prune nothing), a virtual table's NULL keys, and a probe filter that
// fails on a row (which prunes nothing either).
func TestJoinKeyPruningMatchesNestedLoop(t *testing.T) {
	e := joinEngine(t)
	reg := obs.NewRegistry()
	e.Instrument(reg, nil)
	ctx := context.Background()
	tables := map[string][]catalog.Row{}
	for _, name := range []string{"p", "b", "test.nulls"} {
		res, err := e.Execute("SELECT * FROM " + name)
		if err != nil {
			t.Fatal(err)
		}
		tables[name] = res.Rows
	}
	for _, par := range []int{1, 4} {
		e.Parallelism = par
		for _, c := range joinCases {
			prep := prepare(t, e, c.text)
			for _, args := range c.args {
				want := c.want(tables, args)
				text := literal(c.text, args)
				rows := func(res *exec.Result, err error) []catalog.Row {
					if err != nil {
						return nil
					}
					return res.Rows
				}
				res, err := e.Execute(text)
				if got := outcome(rows(res, err), err); got != want {
					t.Errorf("parallelism %d: %s: error %v\n%s", par, text, err, outcomeDiff(got, want))
				}
				res, err = e.ExecutePrepared(ctx, prep, args)
				if got := outcome(rows(res, err), err); got != want {
					t.Errorf("parallelism %d: prepared %s %v: error %v\n%s", par, c.text, args, err, outcomeDiff(got, want))
				}
			}
		}
	}
	if reg.Counter("exec.pages_pruned").Value() == 0 {
		t.Error("no join pruned a page of its probe: the test checks nothing")
	}
}

// TestJoinPruningSeesCommittedProbeRows runs a join whose build keys
// prune its probe while another goroutine inserts matching rows into
// the probe table: each join counts at least the matching rows committed
// before it started and at most those committed when it ended.
func TestJoinPruningSeesCommittedProbeRows(t *testing.T) {
	e := joinEngine(t)
	reg := obs.NewRegistry()
	e.Instrument(reg, nil)
	// b's rows with w = 0 have keys in p's first pages only; the writer
	// appends p rows with one of those keys, to p's last page.
	res, err := e.Execute("SELECT COUNT(*) FROM p JOIN b ON p.k = b.k WHERE b.w = 0")
	if err != nil {
		t.Fatal(err)
	}
	base := res.Rows[0][0].(int64)
	var committed atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if _, err := e.Execute(fmt.Sprintf("INSERT INTO p VALUES (%d, %d, 0.5)", 37*(i%30)-100, 5000+i)); err != nil {
				t.Error(err)
				return
			}
			committed.Add(1)
		}
	}()
	for _, par := range []int{1, 2} {
		e.Parallelism = par
		for i := 0; i < 40; i++ {
			before := committed.Load()
			res, err := e.Execute("SELECT COUNT(*) FROM p JOIN b ON p.k = b.k WHERE b.w = 0")
			after := committed.Load()
			if err != nil {
				t.Fatal(err)
			}
			// Every inserted row matches exactly one b row with w = 0.
			if got := res.Rows[0][0].(int64) - base; got < before || got > after+1 {
				t.Fatalf("parallelism %d: the join counted %d inserted rows, want between %d and %d", par, got, before, after+1)
			}
		}
	}
	close(done)
	wg.Wait()
	if reg.Counter("exec.pages_pruned").Value() == 0 {
		t.Error("no join pruned a page of its probe: the test checks nothing")
	}
}

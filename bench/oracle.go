package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"aidb/internal/aisql"
	"aidb/internal/catalog"
)

// oracle holds the expected answers. Point, range and account answers
// come from the generator's formula for the key; analytic answers from
// a naive evaluation over the generated rows, done once at set-up.
type oracle struct {
	d dataset

	filterCount  int64
	groups       map[string]groupAgg
	rowsAge      int
	joinAmounts  []float64         // the join's top amounts, highest first
	joinPairs    map[joinPair]bool // every (user, amount) the join's filter lets through
	predictCount int64
	accountsSum  int64
}

type groupAgg struct {
	count int64
	sum   float64
}

type joinPair struct {
	user   int
	amount float64
}

func newOracle(d dataset, w *workload) (*oracle, error) {
	o := &oracle{d: d}
	for _, sh := range w.analytic {
		switch sh {
		case shFilterCount:
			for id := 0; id < d.sc.users; id++ {
				if d.userAge(id) < 30 && d.userScore(id) > 50 {
					o.filterCount++
				}
			}
		case shGroupCity:
			o.groups = map[string]groupAgg{}
			for id := 0; id < d.sc.users; id++ {
				g := o.groups[d.userCity(id)]
				g.count++
				g.sum += d.userScore(id)
				o.groups[d.userCity(id)] = g
			}
		case shRowsAge:
			for id := 0; id < d.sc.users; id++ {
				if d.userAge(id) == 7 {
					o.rowsAge++
				}
			}
		case shJoinTop:
			o.joinPairs = map[joinPair]bool{}
			for id := 0; id < d.sc.orders; id++ {
				amt, u := d.orderAmount(id), d.orderUser(id)
				if amt > 499 && d.userAge(u) == 30 {
					o.joinPairs[joinPair{u, amt}] = true
					o.joinAmounts = append(o.joinAmounts, amt)
				}
			}
			sort.Sort(sort.Reverse(sort.Float64Slice(o.joinAmounts)))
			if len(o.joinAmounts) > 5 {
				o.joinAmounts = o.joinAmounts[:5]
			}
		case shPredictCount:
			n, err := naivePredictCount(d)
			if err != nil {
				return nil, err
			}
			o.predictCount = n
		}
	}
	if w.tables&tAccounts != 0 {
		for id := 0; id < d.sc.accounts; id++ {
			o.accountsSum += d.accountBalance(id)
		}
	}
	return o, nil
}

// naivePredictCount trains the model the init script trains, on the
// same rows in the same order (training is deterministic), and applies
// it one row at a time: the server's answer has to match a path that
// shares neither its executor nor its batching.
func naivePredictCount(d dataset) (int64, error) {
	t, err := catalog.NewMem().CreateTable("users", catalog.Schema{Columns: []catalog.Column{
		{Name: "age", Type: catalog.Int64}, {Name: "score", Type: catalog.Float64}, {Name: "churned", Type: catalog.Int64},
	}})
	if err != nil {
		return 0, err
	}
	for id := 0; id < d.sc.users; id++ {
		if _, err := t.Insert(catalog.Row{d.userAge(id), d.userScore(id), d.userChurned(id)}); err != nil {
			return 0, err
		}
	}
	m, err := aisql.TrainModel("churn", aisql.Logistic, t, []string{"age", "score"}, "churned", map[string]string{"epochs": "20"})
	if err != nil {
		return 0, err
	}
	var n int64
	for id := 0; id < d.sc.users; id++ {
		p, err := m.Predict([]float64{float64(d.userAge(id)), d.userScore(id)})
		if err != nil {
			return 0, err
		}
		if p == 1 {
			n++
		}
	}
	return n, nil
}

// check compares one reply with the expected answer. A server ERR is
// not its business: the caller classifies those first.
func (o *oracle) check(st *stmt, rep *reply) error {
	switch st.shape {
	case shPoint:
		if st.key >= o.d.sc.users {
			return wantRows(rep, 0)
		}
		if err := wantRows(rep, 1); err != nil {
			return err
		}
		return o.checkUser(rep.rows[0], st.key)
	case shRange:
		seen := map[int]bool{}
		for _, row := range rep.rows {
			id, err := strconv.Atoi(cell(row, 0))
			if err != nil || id <= st.key || id >= st.key+rangeWidth || seen[id] {
				return fmt.Errorf("range (%d,%d): unexpected row %v", st.key, st.key+rangeWidth, row)
			}
			seen[id] = true
			if err := o.checkUser(row, id); err != nil {
				return err
			}
		}
		want := min(st.key+rangeWidth, o.d.sc.users) - st.key - 1
		return wantRows(rep, max(want, 0))
	case shFilterCount:
		return wantInt(rep, o.filterCount)
	case shPredictCount:
		return wantInt(rep, o.predictCount)
	case shGroupCity:
		seen := map[string]bool{}
		for _, row := range rep.rows {
			city := cell(row, 0)
			g, ok := o.groups[city]
			if !ok || seen[city] || cell(row, 1) != strconv.FormatInt(g.count, 10) || !floatEq(cell(row, 2), g.sum/float64(g.count)) {
				return fmt.Errorf("group_city: unexpected row %v", row)
			}
			seen[city] = true
		}
		return wantRows(rep, len(o.groups))
	case shRowsAge:
		seen := map[int]bool{}
		for _, row := range rep.rows {
			id, err := strconv.Atoi(cell(row, 0))
			if err != nil || id < 0 || id >= o.d.sc.users || seen[id] || o.d.userAge(id) != 7 || !floatEq(cell(row, 1), o.d.userScore(id)) {
				return fmt.Errorf("rows_age: unexpected row %v", row)
			}
			seen[id] = true
		}
		return wantRows(rep, o.rowsAge)
	case shJoinTop:
		if err := wantRows(rep, len(o.joinAmounts)); err != nil {
			return err
		}
		for i, row := range rep.rows {
			u, err := strconv.Atoi(cell(row, 0))
			if err != nil || !floatEq(cell(row, 1), o.joinAmounts[i]) || !o.joinPairs[joinPair{u, o.joinAmounts[i]}] {
				return fmt.Errorf("join_top: row %d is %v, want amount %v", i, row, o.joinAmounts[i])
			}
		}
		return nil
	case shGet:
		if err := wantRows(rep, 1); err != nil {
			return err
		}
		row := rep.rows[0]
		if cell(row, 0) != strconv.Itoa(st.key) || cell(row, 1) != o.d.accountOwner(st.key) || cell(row, 2) != strconv.FormatInt(st.val, 10) {
			return fmt.Errorf("get(%d): got %v, want balance %d", st.key, row, st.val)
		}
		return nil
	case shUpdate, shInsert, shDelete:
		if !rep.ok {
			return fmt.Errorf("%s: want OK, got %d rows", shapeNames[st.shape], len(rep.rows))
		}
		return nil
	}
	return fmt.Errorf("no oracle for shape %d", st.shape)
}

func (o *oracle) checkUser(row []string, id int) error {
	if cell(row, 0) != strconv.Itoa(id) || cell(row, 1) != strconv.FormatInt(o.d.userAge(id), 10) || cell(row, 2) != o.d.userCity(id) {
		return fmt.Errorf("user %d: got %v, want [%d %d %s]", id, row, id, o.d.userAge(id), o.d.userCity(id))
	}
	return nil
}

// checkLedger compares mixed_rw's closing count(*), sum(balance) with
// what the connections' own ledgers add up to.
func (o *oracle) checkLedger(rep *reply, streams []*stream) error {
	count, sum := int64(o.d.sc.accounts), o.accountsSum
	for _, s := range streams {
		count += s.deltaCount
		sum += s.deltaSum
	}
	if err := wantRows(rep, 1); err != nil {
		return err
	}
	row := rep.rows[0]
	if cell(row, 0) != strconv.FormatInt(count, 10) || !floatEq(cell(row, 1), float64(sum)) {
		return fmt.Errorf("ledger: server has count %s sum %s, clients expect %d and %d", cell(row, 0), cell(row, 1), count, sum)
	}
	return nil
}

func cell(row []string, i int) string {
	if i < len(row) {
		return row[i]
	}
	return ""
}

func wantRows(rep *reply, n int) error {
	if rep.ok || len(rep.rows) != n {
		return fmt.Errorf("got %d rows (OK=%v), want %d", len(rep.rows), rep.ok, n)
	}
	return nil
}

func wantInt(rep *reply, n int64) error {
	if err := wantRows(rep, 1); err != nil {
		return err
	}
	if cell(rep.rows[0], 0) != strconv.FormatInt(n, 10) {
		return fmt.Errorf("got %v, want %d", rep.rows[0], n)
	}
	return nil
}

// floatEq compares a printed float with the naive evaluation. Sums are
// taken in another order by the parallel executor, so equality is to
// nine digits.
func floatEq(s string, want float64) bool {
	got, err := strconv.ParseFloat(s, 64)
	return err == nil && math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

package experiments

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"aidb/internal/core"
)

func init() {
	register("E33", runE33PlanCache)
}

// e33Shapes is the repeated workload: a fixed set of ad-hoc statement
// texts, plus one prepared statement; each has one plan, shared across
// sessions under its normalized text. The three-way
// join makes planning (parse, build, optimize, index selection, build
// sides) the dominant per-statement cost, which is exactly the regime
// the plan cache targets.
var e33Shapes = []string{
	"SELECT u.id, o.amount FROM users u JOIN orders o ON u.id = o.user_id WHERE o.amount > 40",
	"SELECT count(*) FROM users WHERE age > 30 AND age < 70",
	"SELECT u.city, o.amount FROM users u JOIN orders o ON u.id = o.user_id WHERE u.age > 25 ORDER BY o.amount DESC LIMIT 5",
	"SELECT id FROM users WHERE city = 'c2'",
}

const e33Prepared = "PREPARE hot AS SELECT count(*) FROM orders WHERE amount > $1"

// e33DB builds a seeded database; cacheOn=false detaches the plan
// cache from the engine, so every statement pays parse+plan again (the
// baseline the cache is measured against).
func e33DB(seed uint64, cacheOn bool) (*core.DB, error) {
	db := core.OpenSeeded(seed)
	if !cacheOn {
		db.Engine().Plans = nil
	}
	script := "CREATE TABLE users (id INT, age INT, city TEXT)"
	if _, err := db.Exec(script); err != nil {
		return nil, err
	}
	if _, err := db.Exec("CREATE TABLE orders (id INT, user_id INT, amount INT)"); err != nil {
		return nil, err
	}
	ins := "INSERT INTO users VALUES "
	for i := 0; i < 200; i++ {
		if i > 0 {
			ins += ", "
		}
		ins += fmt.Sprintf("(%d, %d, 'c%d')", i, i%80, i%5)
	}
	if _, err := db.Exec(ins); err != nil {
		return nil, err
	}
	ins = "INSERT INTO orders VALUES "
	for i := 0; i < 300; i++ {
		if i > 0 {
			ins += ", "
		}
		ins += fmt.Sprintf("(%d, %d, %d)", i, i%8, i%90)
	}
	if _, err := db.Exec(ins); err != nil {
		return nil, err
	}
	return db, nil
}

// e33Drive runs the repeated workload through `sessions` concurrent
// core.Sessions (each prepares its own handle, then loops EXECUTE plus
// the ad-hoc shapes) and reports total statements, wall time, and the
// p95 per-statement latency.
func e33Drive(db *core.DB, sessions, rounds int) (total int, wall time.Duration, p95 time.Duration, err error) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		lats []time.Duration
	)
	errCh := make(chan error, sessions)
	start := time.Now()
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sess := db.NewSession()
			defer sess.Close()
			var mine []time.Duration
			run := func(q string) bool {
				t0 := time.Now()
				_, e := sess.Exec(q)
				mine = append(mine, time.Since(t0))
				if e != nil {
					errCh <- fmt.Errorf("session %d: %s: %w", s, q, e)
					return false
				}
				return true
			}
			if !run(e33Prepared) {
				return
			}
			for r := 0; r < rounds; r++ {
				if !run(fmt.Sprintf("EXECUTE hot (%d)", 20+(r%3))) {
					return
				}
				for _, q := range e33Shapes {
					if !run(q) {
						return
					}
				}
			}
			mu.Lock()
			lats = append(lats, mine...)
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	wall = time.Since(start)
	close(errCh)
	for e := range errCh {
		return 0, 0, 0, e
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	p95 = lats[len(lats)*95/100]
	return len(lats), wall, p95, nil
}

// runE33PlanCache validates the prepared-statement/plan-cache claim:
// with the cache attached, concurrent sessions replaying a repeated
// workload stop invoking the parser and planner (sql.parses and
// plan.builds stay at the warm-up floor while plancache.hits absorbs
// the traffic), results stay row-for-row identical to the uncached
// engine, and repeated-statement throughput rises. The pass/fail shape
// is counter-based — timing columns are informational, so the verdict
// is stable on noisy CI hosts.
func runE33PlanCache(seed uint64) *Table {
	t := &Table{
		ID:     "E33",
		Title:  "prepared statements + shared plan cache under concurrent sessions",
		Claim:  "repeated statements are served from the fingerprinted plan cache without re-invoking the parser/planner, row-identical to the uncached engine, across 1/4/16 concurrent sessions",
		Header: []string{"sessions", "cache", "stmts", "parses", "plan_builds", "cache_hits", "qps", "p95_us", "plan_ns_saved"},
	}
	fail := func(err error) *Table {
		t.Note = err.Error()
		return t
	}

	// Row-identity first: every workload shape must return the same rows
	// on a cached engine (warm, second execution) and an uncached one.
	onDB, err := e33DB(seed, true)
	if err != nil {
		return fail(err)
	}
	offDB, err := e33DB(seed, false)
	if err != nil {
		return fail(err)
	}
	for _, q := range e33Shapes {
		if _, err := onDB.Exec(q); err != nil { // warm the cache
			return fail(err)
		}
		rOn, err := onDB.Exec(q) // served from cache
		if err != nil {
			return fail(err)
		}
		rOff, err := offDB.Exec(q)
		if err != nil {
			return fail(err)
		}
		if core.Format(rOn) != core.Format(rOff) {
			return fail(fmt.Errorf("cache served different rows for %q", q))
		}
	}

	counter := func(db *core.DB, name string) float64 { return db.Metrics().Snapshot()[name] }
	ok := true
	const rounds = 20
	for _, sessions := range []int{1, 4, 16} {
		for _, cacheOn := range []bool{false, true} {
			db, err := e33DB(seed, cacheOn)
			if err != nil {
				return fail(err)
			}
			// Counter floor after data load, before the measured workload.
			parses0 := counter(db, "sql.parses")
			builds0 := counter(db, "plan.builds")
			hits0 := counter(db, "plancache.hits")
			total, wall, p95, err := e33Drive(db, sessions, rounds)
			if err != nil {
				return fail(err)
			}
			parses := counter(db, "sql.parses") - parses0
			builds := counter(db, "plan.builds") - builds0
			hits := counter(db, "plancache.hits") - hits0
			var saved int64
			if cacheOn {
				for _, e := range db.PlanCache().Entries() {
					saved += e.PlanNs * int64(e.Hits())
				}
			}
			label := "off"
			if cacheOn {
				label = "on"
			}
			t.Rows = append(t.Rows, []string{
				itoa(sessions), label, itoa(total),
				f0(parses), f0(builds), f0(hits),
				f0(float64(total) / wall.Seconds()),
				f0(float64(p95.Microseconds())),
				fmt.Sprintf("%d", saved),
			})
			adhoc := float64(sessions * rounds * len(e33Shapes))
			if cacheOn {
				// Concurrent sessions may race the first miss on a shape, so
				// allow a small multiple of the distinct-statement count — but
				// the parser/planner must stay orders of magnitude below the
				// statement count, and the cache must absorb the bulk.
				distinct := float64(len(e33Shapes) + 1)
				if parses > distinct*float64(sessions) || builds > distinct*float64(sessions) || hits < 0.8*adhoc {
					ok = false
				}
			} else {
				// Without the cache every ad-hoc statement re-parses.
				if parses < adhoc || hits != 0 {
					ok = false
				}
			}
		}
	}
	t.Holds = ok
	if ok {
		t.Note = "cache-on parse/plan counts stay at the warm-up floor while plancache.hits absorbs the repeated traffic; results row-identical"
	} else {
		t.Note = "parser/planner still invoked on the repeated hot path (or results diverged)"
	}
	return t
}

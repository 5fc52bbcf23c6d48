package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"aidb/internal/aisql"
	"aidb/internal/catalog"
	"aidb/internal/core"
	"aidb/internal/exec"
	"aidb/internal/ml"
	"aidb/internal/plan"
	"aidb/internal/plancache"
	"aidb/internal/serve"
	"aidb/internal/sql"
	"aidb/internal/storage"
)

// The traced run measures layers from outside: it loads the workload's
// data into an in-process database and replays a fixed number of
// statements of connection 0's stream, from one goroutine, through each
// layer's public entry point in turn, with a span around every call.
// The program cannot be asked to nest spans of one execution yet, so a
// span's parent is the layer that would have called it, and a layer's
// self time is its span minus its children's spans of the same
// statement. Each pass that executes statements starts from a freshly
// loaded database, so every layer sees the same plan-cache and table
// states for statement i.

// span is one timed call. Stmt is the statement's index in the replayed
// stream, -1 for calls that belong to no statement.
type span struct {
	Name   string `json:"name"`
	Stmt   int    `json:"stmt"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
	byKey map[string][]float64 // span name -> duration in ns, indexed by statement
}

// timed runs f inside a span and returns its duration in ns.
func (t *tracer) timed(name string, stmt int, parent string, n int, f func()) float64 {
	start := time.Since(t.t0)
	f()
	end := time.Since(t.t0)
	t.spans = append(t.spans, span{name, stmt, parent, int64(start), int64(end)})
	if stmt >= 0 {
		if t.byKey[name] == nil {
			t.byKey[name] = make([]float64, n)
		}
		t.byKey[name][stmt] = float64(end - start)
	}
	return float64(end - start)
}

// medianOf is the median duration of a span name over the statements
// sel picks (nil: all that have the span), in ns; 0 when none has it.
func (t *tracer) medianOf(name string, sel func(i int) bool) float64 {
	var vals []float64
	for i, v := range t.byKey[name] {
		if v > 0 && (sel == nil || sel(i)) {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0
	}
	return median(vals)
}

// replay is the fixed statement list of a traced run.
type replay struct {
	w     *workload
	d     dataset
	o     *oracle
	stmts []stmt
	init  string
}

func (rp *replay) newDB() (*core.DB, error) {
	// aidb-serve's defaults: seed 42, parallelism 0.
	db := core.OpenSeeded(42)
	db.SetMaxConcurrent(rp.w.maxConcurrent)
	db.SetTimeout(rp.w.timeout)
	if _, err := db.ExecScript(rp.init); err != nil {
		return nil, fmt.Errorf("in-process init: %w", err)
	}
	return db, nil
}

// checkRows holds an in-process result to the same oracle as the wire.
func (rp *replay) checkRows(st *stmt, res *exec.Result) error {
	var rep reply
	if err := readReply(bufio.NewReader(strings.NewReader(core.Format(res)+".\n")), &rep); err != nil {
		return err
	}
	return rp.o.check(st, &rep)
}

// execArgs are the EXECUTE bindings of a mixed_rw statement.
func execArgs(st *stmt) []catalog.Value {
	switch st.shape {
	case shGet, shDelete:
		return []catalog.Value{int64(st.key)}
	case shUpdate:
		return []catalog.Value{int64(st.key), st.val}
	case shInsert:
		return []catalog.Value{int64(st.key), "n0", st.val}
	}
	return nil
}

var prepNames = map[shapeID]string{shGet: "get", shUpdate: "upd", shInsert: "ins", shDelete: "del"}

// traceWorkload runs the traced replay and returns its per-layer
// metrics and its spans.
func traceWorkload(cfg *runConfig) ([]metric, []span, error) {
	d := dataset{seed: cfg.seed, sc: cfg.sc}
	o, err := newOracle(d, cfg.w)
	if err != nil {
		return nil, nil, err
	}
	var script bytes.Buffer
	if err := d.writeInit(&script, cfg.w.tables); err != nil {
		return nil, nil, err
	}
	rp := &replay{w: cfg.w, d: d, o: o, init: script.String()}
	n := cfg.w.traceStmts
	if cfg.quick {
		n = max(n/10, len(cfg.w.analytic))
	}
	st := newStream(cfg.w, d, 0)
	for i := 0; i < n; i++ {
		rp.stmts = append(rp.stmts, st.next())
	}
	tr := &tracer{t0: time.Now(), byKey: map[string][]float64{}}
	counts, err := rp.tcpPass(tr)
	if err != nil {
		return nil, nil, fmt.Errorf("tcp pass: %w", err)
	}
	if cfg.w.tables&tAccounts == 0 {
		// HTTP requests are stateless, so EXECUTE has nothing to run.
		if err := rp.httpPass(tr); err != nil {
			return nil, nil, fmt.Errorf("http pass: %w", err)
		}
	}
	if err := rp.sessionPass(tr); err != nil {
		return nil, nil, fmt.Errorf("session pass: %w", err)
	}
	extra, err := rp.enginePasses(tr)
	if err != nil {
		return nil, nil, fmt.Errorf("engine pass: %w", err)
	}
	return append(append(rp.spanMetrics(tr), extra...), counts...), tr.spans, nil
}

// tcpPass replays over serve.Listen and a loopback socket, and reads
// the database's own counters around the pass. With one connection and
// a fixed statement list these counts repeat exactly.
func (rp *replay) tcpPass(tr *tracer) ([]metric, error) {
	db, err := rp.newDB()
	if err != nil {
		return nil, err
	}
	defer db.Close()
	srv, err := serve.Listen(db, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	c, err := dial(srv.Addr())
	if err != nil {
		return nil, err
	}
	defer c.close()
	if rp.w.tables&tAccounts != 0 {
		for _, p := range prepares {
			if err := c.mustOK(p); err != nil {
				return nil, err
			}
		}
	}
	before := db.Metrics().Snapshot()
	var rep reply
	for i := range rp.stmts {
		st := &rp.stmts[i]
		var err error
		tr.timed("serve.tcp.roundtrip", i, "", len(rp.stmts), func() { err = ask(c, rp.o, st, &rep) })
		if err != nil {
			return nil, err
		}
	}
	after := db.Metrics().Snapshot()
	delta := func(name string) float64 { return after[name] - before[name] }
	stmts := delta("serve.statements")
	return []metric{
		{name: "trace.statements", value: stmts, unit: "count"},
		{name: "trace.sql.parses_per_stmt", value: delta("sql.parses") / stmts, unit: "count"},
		{name: "trace.plan.builds_per_stmt", value: delta("plan.builds") / stmts, unit: "count"},
		{name: "trace.plancache.hit_ratio", value: delta("plancache.hits") / max(delta("plancache.hits")+delta("plancache.misses"), 1), unit: "ratio"},
		{name: "trace.exec.rows_scanned_per_stmt", value: delta("exec.rows_scanned") / stmts, unit: "count"},
	}, nil
}

func (rp *replay) httpPass(tr *tracer) error {
	db, err := rp.newDB()
	if err != nil {
		return err
	}
	defer db.Close()
	ln, err := serve.ListenHTTP(db, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	url := "http://" + ln.Addr().String() + "/query"
	for i := range rp.stmts {
		var err error
		var status int
		tr.timed("serve.http.roundtrip", i, "", len(rp.stmts), func() {
			var resp *http.Response
			if resp, err = client.Post(url, "text/plain", strings.NewReader(rp.stmts[i].text)); err != nil {
				return
			}
			status = resp.StatusCode
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		})
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("%s: status %d: %v", rp.stmts[i].text, status, err)
		}
	}
	return nil
}

func (rp *replay) sessionPass(tr *tracer) error {
	db, err := rp.newDB()
	if err != nil {
		return err
	}
	defer db.Close()
	sess := db.NewSession()
	defer sess.Close()
	ctx := context.Background()
	if rp.w.tables&tAccounts != 0 {
		for _, p := range prepares {
			if _, err := sess.ExecContext(ctx, p); err != nil {
				return err
			}
		}
	}
	for i := range rp.stmts {
		st := &rp.stmts[i]
		var res *exec.Result
		var err error
		tr.timed("core.session", i, "serve.tcp.roundtrip", len(rp.stmts), func() { res, err = sess.ExecContext(ctx, st.text) })
		if err == nil {
			err = rp.checkRows(st, res)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", st.text, err)
		}
	}
	return nil
}

// enginePasses replays through aisql.Engine (with the plan-cache probe,
// the admission gate and core.Format timed beside it), then through the
// engine's parts one by one on the same database: parser, planner,
// plan-cache insert, executor, page decode and model inference.
func (rp *replay) enginePasses(tr *tracer) ([]metric, error) {
	db, err := rp.newDB()
	if err != nil {
		return nil, err
	}
	defer db.Close()
	eng, ctx, n := db.Engine(), context.Background(), len(rp.stmts)

	// What a session would hold: the prepared handles, and for the
	// prepared SELECT its AST and plan-cache key.
	preps := map[string]*aisql.Prepared{}
	var getSel *sql.SelectStmt
	if rp.w.tables&tAccounts != 0 {
		for _, p := range prepares {
			parsed, err := sql.Parse(p)
			if err != nil {
				return nil, err
			}
			ps := parsed.(*sql.PrepareStmt)
			if preps[ps.Name], err = eng.Prepare(ps.Name, ps.Stmt); err != nil {
				return nil, err
			}
			if sel, ok := ps.Stmt.(*sql.SelectStmt); ok {
				getSel = sel
			}
		}
	}
	cacheKey := func(st *stmt) string {
		switch {
		case st.shape == shGet:
			return "stmt:" + sql.Deparse(getSel)
		case prepNames[st.shape] != "":
			return "" // DML has no plan
		}
		return "text:" + st.text
	}

	missed := make([]bool, n)
	for i := range rp.stmts {
		st := &rp.stmts[i]
		if key := cacheKey(st); key != "" {
			tr.timed("plancache.lookup", i, "aisql.engine", n, func() { missed[i] = db.PlanCache().Lookup(key) == nil })
		}
		var res *exec.Result
		var err error
		tr.timed("aisql.engine", i, "core.session", n, func() {
			if name := prepNames[st.shape]; name != "" {
				res, err = eng.ExecutePrepared(ctx, preps[name], execArgs(st))
			} else {
				res, err = eng.ExecuteContext(ctx, st.text)
			}
		})
		if err == nil {
			err = rp.checkRows(st, res)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", st.text, err)
		}
		tr.timed("core.format", i, "serve.tcp.roundtrip", n, func() { core.Format(res) })
		tr.timed("governance.admit", i, "core.session", n, func() {
			if release, err := db.AdmissionGate().Admit(ctx); err == nil {
				release()
			}
		})
	}

	// Parts. The plan to execute is the one the engine cached; a text
	// the cache has evicted since is run once more to bring it back.
	scratch := plancache.New(0)
	plans := make([]plan.Node, n)
	for i := range rp.stmts {
		st := &rp.stmts[i]
		var parsed sql.Statement
		var err error
		tr.timed("sql.parse", i, "aisql.engine", n, func() { parsed, err = sql.Parse(st.text) })
		if err != nil {
			return nil, err
		}
		key := cacheKey(st)
		if key == "" {
			continue
		}
		sel, _ := parsed.(*sql.SelectStmt)
		if st.shape == shGet {
			sel = getSel
		}
		// PREDICT's model name parses as a column until the engine
		// rewrites it, which it does not export; that shape is planned
		// by the engine only.
		if st.shape != shPredictCount {
			var p plan.Node
			tr.timed("plan.build", i, "aisql.engine", n, func() {
				if p, err = plan.Build(db.Catalog(), sel); err == nil {
					p = plan.OptimizeFilters(p)
					plan.AnnotateBuildSides(p, plan.HistogramEstimator{})
				}
			})
			if err != nil {
				return nil, fmt.Errorf("plan.Build %s: %w", st.text, err)
			}
			ent := &plancache.Entry{Key: key, Fingerprint: plan.Fingerprint(p), Plan: p}
			tr.timed("plancache.put", i, "aisql.engine", n, func() { scratch.Put(ent) })
		}
		ent := db.PlanCache().Lookup(key)
		if ent == nil {
			if _, err := eng.ExecuteContext(ctx, st.text); err != nil {
				return nil, err
			}
			if ent = db.PlanCache().Lookup(key); ent == nil {
				return nil, fmt.Errorf("no cached plan for %s", st.text)
			}
		}
		plans[i] = ent.Plan
	}

	funcs := exec.FuncRegistry{"PREDICT": func(args []catalog.Value) (catalog.Value, error) {
		m, err := eng.Model(args[0].(string))
		if err != nil {
			return nil, err
		}
		return m.Predict([]float64{float64(args[1].(int64)), args[2].(float64)})
	}}
	var ms0, ms1 runtime.MemStats
	var scanned, runNs float64
	runs := 0
	runtime.ReadMemStats(&ms0)
	for i, p := range plans {
		if p == nil {
			continue
		}
		ex := exec.New(funcs)
		ex.Parallelism = db.Parallelism()
		ex.Params = execArgs(&rp.stmts[i])
		var err error
		runNs += tr.timed("exec.run", i, "aisql.engine", n, func() { _, err = ex.RunContext(ctx, p) })
		if err != nil {
			return nil, fmt.Errorf("exec %s: %w", rp.stmts[i].text, err)
		}
		scanned += float64(ex.Stats.RowsScanned.Load())
		runs++
	}
	runtime.ReadMemStats(&ms1)
	out := []metric{
		{name: "exec.ns_per_row_scanned", value: runNs / max(scanned, 1), unit: "ns"},
		{name: "exec.allocs_per_stmt", value: float64(ms1.Mallocs-ms0.Mallocs) / float64(max(runs, 1)), unit: "count"},
		{name: "exec.bytes_per_stmt", value: float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(max(runs, 1)), unit: "B"},
	}

	// Page decode alone: every table of the workload, three times.
	const reps = 3
	var scanNs []float64
	for _, name := range db.Catalog().Tables() {
		t, err := db.Catalog().Table(name)
		if err != nil {
			return nil, err
		}
		for r := 0; r < reps; r++ {
			rows := 0
			ns := tr.timed("catalog.scan", -1, "exec.run", 0, func() {
				err = t.ScanPages(t.PageIDs(), func(storage.RecordID, catalog.Row) bool { rows++; return true })
			})
			if err != nil {
				return nil, err
			}
			scanNs = append(scanNs, ns/float64(max(rows, 1)))
		}
	}
	out = append(out, metric{name: "catalog.scan_ns_per_row", value: median(scanNs), unit: "ns"})

	// Inference alone: one batched call over every user row.
	predictNs := 0.0
	if rp.w.tables&tModel != 0 {
		m, err := eng.Model("churn")
		if err != nil {
			return nil, err
		}
		var perRow []float64
		for r := 0; r < reps; r++ {
			x := ml.NewMatrix(rp.d.sc.users, 2) // PredictBatch scales it in place
			for id := 0; id < rp.d.sc.users; id++ {
				x.Set(id, 0, float64(rp.d.userAge(id)))
				x.Set(id, 1, rp.d.userScore(id))
			}
			ns := tr.timed("ml.predict", -1, "exec.run", 0, func() { _, err = m.PredictBatch(x) })
			if err != nil {
				return nil, err
			}
			perRow = append(perRow, ns/float64(rp.d.sc.users))
		}
		predictNs = median(perRow)
	}
	out = append(out, metric{name: "ml.predict_ns_per_row", value: predictNs, unit: "ns"})

	// Self time of the engine, per statement, then the median: what is
	// left of its span after the parts it ran for that statement (the
	// parser, planner and cache insert only on a plan-cache miss).
	var self []float64
	for i, p := range plans {
		if p == nil {
			continue
		}
		s := tr.byKey["aisql.engine"][i] - tr.byKey["plancache.lookup"][i] - tr.byKey["exec.run"][i]
		if missed[i] && rp.stmts[i].shape != shGet {
			s -= tr.byKey["sql.parse"][i]
			if b := tr.byKey["plan.build"]; b != nil {
				s -= b[i] + tr.byKey["plancache.put"][i]
			}
		}
		self = append(self, s)
	}
	engineSelf := 0.0
	if len(self) > 0 {
		engineSelf = median(self) / 1e3
	}
	return append(out, metric{name: "aisql.engine_self_us", value: engineSelf, unit: "us", n: len(self)}), nil
}

// spanMetrics reports each span name's median and the self times of
// the wire and the session.
func (rp *replay) spanMetrics(tr *tracer) []metric {
	n := len(rp.stmts)
	shape := func(sh shapeID) func(int) bool { return func(i int) bool { return rp.stmts[i].shape == sh } }
	us := func(name, span string, sel func(int) bool) metric {
		return metric{name: name, value: tr.medianOf(span, sel) / 1e3, unit: "us"}
	}
	ns := func(name, span string) metric { return metric{name: name, value: tr.medianOf(span, nil), unit: "ns"} }
	diff := func(a string, subtract ...string) float64 {
		var vals []float64
		for i := 0; i < n; i++ {
			v := tr.byKey[a][i]
			for _, s := range subtract {
				v -= tr.byKey[s][i]
			}
			vals = append(vals, v)
		}
		return median(vals) / 1e3
	}
	return []metric{
		us("serve.tcp.roundtrip_us", "serve.tcp.roundtrip", nil),
		us("serve.http.roundtrip_us", "serve.http.roundtrip", nil),
		us("core.session_us", "core.session", nil),
		ns("governance.admit_ns", "governance.admit"),
		us("aisql.engine_us", "aisql.engine", nil),
		us("aisql.insert_us", "aisql.engine", shape(shInsert)),
		us("aisql.update_us", "aisql.engine", shape(shUpdate)),
		us("aisql.delete_us", "aisql.engine", shape(shDelete)),
		us("aisql.predict_us", "aisql.engine", shape(shPredictCount)),
		us("sql.parse_us", "sql.parse", nil),
		ns("plancache.lookup_ns", "plancache.lookup"),
		ns("plancache.put_ns", "plancache.put"),
		us("plan.build_us", "plan.build", nil),
		us("exec.run_us", "exec.run", nil),
		us("core.format_us", "core.format", nil),
		{name: "serve.wire_self_us", value: diff("serve.tcp.roundtrip", "core.session", "core.format"), unit: "us", n: n},
		{name: "core.session_self_us", value: diff("core.session", "aisql.engine"), unit: "us", n: n},
	}
}

// writeTrace writes the spans of this invocation's traced runs, keyed
// by workload.
func writeTrace(spans map[string][]span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace.json"), b, 0o644)
}

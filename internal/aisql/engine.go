package aisql

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"aidb/internal/cardest"
	"aidb/internal/catalog"
	"aidb/internal/chaos"
	"aidb/internal/exec"
	"aidb/internal/governance"
	"aidb/internal/obs"
	"aidb/internal/plan"
	"aidb/internal/plancache"
	"aidb/internal/sql"
	"aidb/internal/storage"
)

// Engine executes SQL and AISQL statements against a catalog. It is the
// end-to-end database handle: parser -> planner -> executor, with the
// model registry wired into the executor's scalar-function table so
// PREDICT(model, features...) works inside any query.
type Engine struct {
	Cat *catalog.Catalog

	// Chaos, when set, is handed to every executor this engine creates,
	// enabling fault injection at the exec.* sites. Nil disables it.
	Chaos *chaos.Injector

	// Parallelism is handed to every executor this engine creates (see
	// exec.Executor.Parallelism: 0 = auto/NumCPU, 1 = serial). Set it
	// between queries, not concurrently with them.
	Parallelism int

	// Feedback, when set, receives one (estimated, actual) cardinality
	// observation per profiled operator after every EXPLAIN ANALYZE —
	// the estimation-error channel learned estimators retrain from. Nil
	// disables feedback collection.
	Feedback *cardest.FeedbackLog

	// MemLimit, when positive, caps the bytes any single query may
	// materialize: each query gets a fresh governance.MemBudget of this
	// size and aborts with governance.ErrMemBudget on overrun. Zero
	// disables per-query budgets. Set it between queries.
	MemLimit int64

	// Plans, when set, caches compiled SELECT plans so repeated
	// statements skip parse/plan/optimize entirely: ad-hoc statements
	// are keyed by raw text (hit = no parser call), prepared statements
	// by canonical deparse (hit = shared plan across sessions). Nil
	// disables caching; invalidation on DDL/ANALYZE routes through it.
	Plans *plancache.Cache

	mu      sync.RWMutex
	models  map[string]*Model
	indexes map[string]*secondaryIndex

	// Observability plane, wired by Instrument. All fields are nil-safe
	// when the engine is uninstrumented.
	tracer      *obs.Tracer
	execObs     exec.Metrics
	govObs      governance.Metrics
	stmts       *obs.Counter
	parseErrors *obs.Counter
	parses      *obs.Counter
	planBuilds  *obs.Counter
	slowlog     *obs.SlowQueryLog
	stmtstats   *obs.StatementStats
}

// Instrument wires the engine — and every executor it creates — to the
// observability registry and tracer, and attaches a slow-query log
// (capture-everything by default; raise its Threshold to filter). Either
// argument may be nil to disable that half; call before serving queries.
func (e *Engine) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	e.tracer = tr
	e.execObs = exec.NewMetrics(reg)
	e.govObs = governance.NewMetrics(reg)
	e.stmts = reg.Counter("sql.statements")
	e.parseErrors = reg.Counter("sql.parse_errors")
	// sql.parses and plan.builds count pipeline-stage invocations, not
	// statements: a plan-cache hit increments neither, which is how the
	// cache's "no parser, no planner on the hot path" claim is asserted.
	e.parses = reg.Counter("sql.parses")
	e.planBuilds = reg.Counter("plan.builds")
	e.slowlog = obs.NewSlowQueryLog(0, 0)
	e.stmtstats = obs.NewStatementStats(0)
}

// SlowLog returns the engine's slow-query log (nil when the engine is
// uninstrumented).
func (e *Engine) SlowLog() *obs.SlowQueryLog { return e.slowlog }

// Stmts returns the engine's per-fingerprint statement statistics store
// (nil when the engine is uninstrumented). It is the source behind
// system.statements and the /statements endpoint.
func (e *Engine) Stmts() *obs.StatementStats { return e.stmtstats }

// RecordShed folds one admission-gate rejection into the statement
// store under the synthetic "(admission)" fingerprint. Gate sheds
// happen before parsing, so no plan fingerprint exists for them; the
// synthetic entry keeps shed load visible in system.statements. No-op
// when uninstrumented.
func (e *Engine) RecordShed(query string) {
	if query == "" {
		query = "(admission)"
	}
	e.stmtstats.Record(obs.StmtObservation{
		Fingerprint: "(admission)",
		Query:       query,
		Outcome:     obs.StmtShed,
	})
}

// QueryRows executes one SQL statement and returns just its rows — the
// narrow closing-the-loop interface components like the index advisor
// and SQL KPI rules use to read system.* tables through the engine
// instead of holding private store pointers.
func (e *Engine) QueryRows(query string) ([]catalog.Row, error) {
	res, err := e.Execute(query)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// NewEngine creates an engine over an in-memory catalog.
func NewEngine() *Engine {
	return &Engine{Cat: catalog.NewMem(), models: map[string]*Model{}}
}

// NewEngineWith uses an existing catalog.
func NewEngineWith(cat *catalog.Catalog) *Engine {
	return &Engine{Cat: cat, models: map[string]*Model{}}
}

// RetrainModel refits a registered model on the current contents of its
// training table — the paper's §2.3 in-database-training challenge of
// "updating a model when the data is dynamically updated". The model is
// swapped atomically; concurrent PREDICT calls see either the old or the
// new version, never a partially trained one.
func (e *Engine) RetrainModel(name string) error {
	old, err := e.Model(name)
	if err != nil {
		return err
	}
	t, err := e.Cat.Table(old.Table)
	if err != nil {
		return err
	}
	fresh, err := TrainModel(old.Name, old.Kind, t, old.Features, old.Label, nil)
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.models[name] = fresh
	e.mu.Unlock()
	return nil
}

// Model returns a registered model.
func (e *Engine) Model(name string) (*Model, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	m, ok := e.models[name]
	if !ok {
		return nil, fmt.Errorf("aisql: model %q does not exist", name)
	}
	return m, nil
}

// Models lists registered model names in sorted order.
func (e *Engine) Models() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.models))
	for n := range e.models {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// funcs builds the scalar-function registry, including PREDICT and
// PREDICT_PROBA. The first argument of each is the model name (a column
// reference lexically, so it arrives as a string via special handling in
// Execute; here it is matched as a string value).
func (e *Engine) funcs() exec.FuncRegistry {
	predict := func(proba bool) exec.ScalarFunc {
		return func(args []catalog.Value) (catalog.Value, error) {
			if len(args) < 2 {
				return nil, fmt.Errorf("aisql: PREDICT needs a model and at least one feature")
			}
			name, ok := args[0].(string)
			if !ok {
				return nil, fmt.Errorf("aisql: PREDICT's first argument must be a model name")
			}
			m, err := e.Model(name)
			if err != nil {
				return nil, err
			}
			f := make([]float64, len(args)-1)
			for i, a := range args[1:] {
				v, err := toF64(a)
				if err != nil {
					return nil, fmt.Errorf("aisql: PREDICT feature %d: %w", i, err)
				}
				f[i] = v
			}
			if proba {
				return m.PredictProba(f)
			}
			v, err := m.Predict(f)
			if err != nil {
				return nil, err
			}
			return v, nil
		}
	}
	return exec.FuncRegistry{
		"PREDICT":       predict(false),
		"PREDICT_PROBA": predict(true),
	}
}

// Execute parses and runs one statement without a cancellation context
// (equivalent to ExecuteContext with context.Background()).
func (e *Engine) Execute(query string) (*exec.Result, error) {
	return e.ExecuteContext(context.Background(), query)
}

// ExecuteContext parses and runs one statement, returning a result set
// (possibly empty for DDL/DML). ctx cancellation or deadline expiry
// aborts execution cooperatively — SELECTs stop within about one morsel
// per worker and return no partial result. Each call is one root span
// on the engine's tracer: parse -> plan -> optimize -> exec — unless
// the plan cache recognizes the raw statement text, in which case the
// parser and planner never run and the span goes straight to exec.
func (e *Engine) ExecuteContext(ctx context.Context, query string) (*exec.Result, error) {
	sp := e.tracer.Start("query")
	defer sp.Finish()
	if e.Plans != nil {
		if ent := e.Plans.Lookup("text:" + query); ent != nil && ent.NumParams == 0 {
			e.stmts.Inc()
			sp.SetTag("stmt", "SELECT")
			sp.SetTag("plancache", "hit")
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					e.execObs.CancelRequests.Inc()
					return nil, err
				}
			}
			return e.execPlan(ctx, ent.Plan, "SELECT", ent.Fingerprint, sp, query, nil)
		}
	}
	psp := sp.Child("parse")
	parseStart := time.Now()
	stmt, err := sql.Parse(query)
	parseNs := time.Since(parseStart).Nanoseconds()
	psp.Finish()
	e.stmts.Inc()
	e.parses.Inc()
	if err != nil {
		e.parseErrors.Inc()
		sp.SetTag("error", "parse")
		return nil, err
	}
	sp.SetTag("stmt", sql.StatementKind(stmt))
	return e.executeStmt(ctx, stmt, sp, query, parseNs)
}

// EachStatement parses a ';'-separated script one statement at a time,
// handing each to run before it parses the next: one statement's AST is
// alive at a time, however long the script. A syntax error in statement
// N therefore surfaces after statements 1…N-1 have run (and is counted
// like Execute counts parse failures); run's first error ends the script.
// Callers that need per-statement control (timeouts, admission) do it
// inside run, with ExecuteStmtContext.
func (e *Engine) EachStatement(script string, run func(sql.Statement) error) error {
	for text, rest := sql.SplitStatement(script); text != ""; text, rest = sql.SplitStatement(rest) {
		stmt, err := sql.Parse(text)
		if err != nil {
			e.parseErrors.Inc()
			return err
		}
		if err := run(stmt); err != nil {
			return err
		}
	}
	return nil
}

// ExecuteScript runs a ';'-separated script statement by statement (see
// EachStatement), returning the last result.
func (e *Engine) ExecuteScript(script string) (*exec.Result, error) {
	var last *exec.Result
	err := e.EachStatement(script, func(s sql.Statement) (err error) {
		last, err = e.ExecuteStmt(s)
		return err
	})
	if err != nil {
		return nil, err
	}
	return last, nil
}

// ExecuteStmt runs one parsed statement under its own trace span.
func (e *Engine) ExecuteStmt(stmt sql.Statement) (*exec.Result, error) {
	return e.ExecuteStmtContext(context.Background(), stmt)
}

// ExecuteStmtContext runs one parsed statement under its own trace
// span, honouring ctx like ExecuteContext.
func (e *Engine) ExecuteStmtContext(ctx context.Context, stmt sql.Statement) (*exec.Result, error) {
	sp := e.tracer.Start("query")
	defer sp.Finish()
	sp.SetTag("stmt", sql.StatementKind(stmt))
	e.stmts.Inc()
	return e.executeStmt(ctx, stmt, sp, "", 0)
}

// executeStmt dispatches one parsed statement, attaching child spans to
// sp (which may be nil when tracing is off). text is the raw query text
// when the statement came in through Execute, "" for pre-parsed
// statements — the slow-query log falls back to the statement kind.
// parseNs is what parsing the statement cost (0 when pre-parsed); it
// folds into the plan-cache entry's PlanNs so each hit's banked saving
// covers the whole skipped pipeline.
func (e *Engine) executeStmt(ctx context.Context, stmt sql.Statement, sp *obs.Span, text string, parseNs int64) (*exec.Result, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			// Cancelled before any work: count it on the same metric the
			// executor uses so \metrics sees every cancelled statement.
			e.execObs.CancelRequests.Inc()
			return nil, err
		}
	}
	switch s := stmt.(type) {
	case *sql.CreateTableStmt:
		e.invalidatePlans()
		return e.createTable(s)
	case *sql.InsertStmt:
		return e.insert(s, nil)
	case *sql.SelectStmt, *sql.UpdateStmt, *sql.DeleteStmt:
		return e.query(ctx, s, sp, text, parseNs)
	case *sql.CreateIndexStmt:
		// New access path: cached full-scan plans must replan to use it.
		e.invalidatePlans()
		return emptyResult(), e.createIndex(s.Name, s.Table, s.Column)
	case *sql.DropTableStmt:
		// Cached plans hold live table and index pointers; drop them all.
		e.invalidatePlans()
		e.mu.Lock()
		for key, si := range e.indexes {
			if si.table == s.Name {
				delete(e.indexes, key)
			}
		}
		e.mu.Unlock()
		return emptyResult(), e.Cat.DropTable(s.Name)
	case *sql.CreateModelStmt:
		return e.createModel(s)
	case *sql.EvaluateModelStmt:
		return e.evaluateModel(s)
	case *sql.DropModelStmt:
		e.mu.Lock()
		defer e.mu.Unlock()
		if _, ok := e.models[s.Name]; !ok {
			return nil, fmt.Errorf("aisql: model %q does not exist", s.Name)
		}
		delete(e.models, s.Name)
		return emptyResult(), nil
	case *sql.ShowStmt:
		res := &exec.Result{Columns: []string{strings.ToLower(s.What)}}
		var names []string
		if s.What == "TABLES" {
			names = e.Cat.Tables()
		} else {
			names = e.Models()
		}
		for _, n := range names {
			res.Rows = append(res.Rows, catalog.Row{n})
		}
		return res, nil
	case *sql.ExplainStmt:
		if a, ok := s.Inner.(*sql.AnalyzeStmt); ok {
			// Legacy spelling: `EXPLAIN ANALYZE t` (bare table name)
			// parses as EXPLAIN over ANALYZE — run the statistics
			// refresh rather than profiling.
			return e.executeStmt(ctx, a, sp, text, parseNs)
		}
		switch s.Inner.(type) {
		case *sql.SelectStmt, *sql.UpdateStmt, *sql.DeleteStmt:
		default:
			return nil, fmt.Errorf("aisql: EXPLAIN supports only SELECT, UPDATE and DELETE")
		}
		if s.Analyze {
			return e.explainAnalyze(ctx, s.Inner, sp, text)
		}
		// The plan exactly as the query path would execute it.
		p, err := e.buildPlan(s.Inner)
		if err != nil {
			return nil, err
		}
		return &exec.Result{Columns: []string{"plan"}, Rows: []catalog.Row{{plan.Explain(p)}}}, nil
	case *sql.AnalyzeStmt:
		t, err := e.Cat.Table(s.Table)
		if err != nil {
			return nil, err
		}
		// Fresh statistics change join build sides and index choices —
		// every frozen estimate in the cache is stale now.
		e.invalidatePlans()
		return emptyResult(), t.Analyze(32, 8)
	case *sql.PrepareStmt, *sql.ExecuteStmt, *sql.DeallocateStmt,
		*sql.BeginStmt, *sql.CommitStmt, *sql.RollbackStmt:
		return nil, fmt.Errorf("aisql: %s requires a session (use core.Session or aidb-serve)", sql.StatementKind(stmt))
	default:
		return nil, fmt.Errorf("aisql: unsupported statement %T", stmt)
	}
}

// invalidatePlans discards every cached plan. Called on any DDL or
// statistics refresh; no-op when the engine has no plan cache.
func (e *Engine) invalidatePlans() {
	if e.Plans != nil {
		e.Plans.Invalidate()
	}
}

func emptyResult() *exec.Result { return &exec.Result{} }

func (e *Engine) createTable(s *sql.CreateTableStmt) (*exec.Result, error) {
	var schema catalog.Schema
	for _, c := range s.Columns {
		var t catalog.ColType
		switch c.Type {
		case "INT":
			t = catalog.Int64
		case "FLOAT":
			t = catalog.Float64
		default:
			t = catalog.String
		}
		schema.Columns = append(schema.Columns, catalog.Column{Name: c.Name, Type: t})
	}
	_, err := e.Cat.CreateTable(s.Name, schema)
	return emptyResult(), err
}

func (e *Engine) insert(s *sql.InsertStmt, params []catalog.Value) (*exec.Result, error) {
	t, err := e.Cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	scope := exec.NewScopeParams(nil, params)
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(t.Schema.Columns) {
			return nil, fmt.Errorf("aisql: INSERT has %d values for %d columns", len(exprRow), len(t.Schema.Columns))
		}
		row := make(catalog.Row, len(exprRow))
		for i, ex := range exprRow {
			v, err := exec.Eval(ex, scope, nil, nil)
			if err != nil {
				return nil, fmt.Errorf("aisql: INSERT value %d: %w", i, err)
			}
			row[i], err = catalog.Coerce(v, t.Schema.Columns[i].Type)
			if err != nil {
				return nil, err
			}
		}
		rid, err := t.Insert(row)
		if err != nil {
			return nil, err
		}
		e.syncIndexesInsert(t.Name, rid, row)
	}
	return emptyResult(), nil
}

// rewritePredicts converts PREDICT(model, ...) calls whose first argument
// parsed as a bare column reference into a string literal (the model
// name), so evaluation sees the registry key. It edits the expression
// trees in place and is idempotent.
func rewritePredicts(s sql.Statement) { sql.WalkExprs(s, rewriteExpr) }

// rewriteExpr writes only where it replaces a model name, so a second
// pass over a rewritten tree writes nothing — which is what lets a
// replan walk an AST that cached plans are evaluating concurrently.
func rewriteExpr(ex sql.Expr) {
	switch v := ex.(type) {
	case *sql.FuncCall:
		if (v.Name == "PREDICT" || v.Name == "PREDICT_PROBA") && len(v.Args) > 0 {
			if c, ok := v.Args[0].(*sql.ColumnRef); ok && c.Table == "" {
				v.Args[0] = &sql.StringLit{Value: c.Column}
			}
		}
		for _, a := range v.Args {
			rewriteExpr(a)
		}
	case *sql.BinaryExpr:
		rewriteExpr(v.Left)
		rewriteExpr(v.Right)
	case *sql.NotExpr:
		rewriteExpr(v.Inner)
	case *sql.BetweenExpr:
		rewriteExpr(v.Subject)
		rewriteExpr(v.Lo)
		rewriteExpr(v.Hi)
	}
}

// buildPlan compiles one SELECT, UPDATE or DELETE: lower it to a
// plan, reorder filters, choose index access paths, and freeze
// cardinality decisions (join build sides) into the plan so executing a
// cached copy never re-invokes an estimator. Every path that needs a
// plan — ad hoc, prepared, EXPLAIN, EXPLAIN ANALYZE — gets it here. The
// returned plan is immutable and safe to share across concurrent
// executors.
func (e *Engine) buildPlan(stmt sql.Statement) (plan.Node, error) {
	e.planBuilds.Inc()
	rewritePredicts(stmt)
	var p plan.Node
	if sel, ok := stmt.(*sql.SelectStmt); ok {
		built, err := plan.Build(e.Cat, sel)
		if err != nil {
			return nil, err
		}
		p = built
	} else {
		m, err := plan.BuildModify(e.Cat, stmt)
		if err != nil {
			return nil, err
		}
		table := m.Table.Name
		m.Deleted = func(rid storage.RecordID, row catalog.Row) { e.syncIndexesDelete(table, rid, row) }
		m.Inserted = func(rid storage.RecordID, row catalog.Row) { e.syncIndexesInsert(table, rid, row) }
		p = m
	}
	// AI-operator pushdown: run cheap relational predicates before model
	// invocations (the executor short-circuits conjunctions).
	p = plan.OptimizeFilters(p)
	// Secondary-index access paths for filters over indexed columns.
	p = plan.UseIndexes(p, e.indexLookup())
	// Freeze build-side choices at plan time (estimator runs here, once).
	plan.AnnotateBuildSides(p, plan.HistogramEstimator{})
	return p, nil
}

// query plans and runs one ad-hoc SELECT, UPDATE or DELETE.
func (e *Engine) query(ctx context.Context, s sql.Statement, sp *obs.Span, text string, parseNs int64) (*exec.Result, error) {
	planStart := time.Now()
	psp := sp.Child("plan")
	p, err := e.buildPlan(s)
	psp.Finish()
	if err != nil {
		return nil, err
	}
	fp := plan.Fingerprint(p)
	if _, ok := s.(*sql.SelectStmt); ok && e.Plans != nil && text != "" && sql.CountParams(s) == 0 {
		// Cache under the raw text so the identical statement next time
		// skips the parser too. Parameterized ad-hoc statements are not
		// cacheable here (nothing binds their $N values on this path).
		e.Plans.Put(&plancache.Entry{
			Key:         "text:" + text,
			Fingerprint: fp,
			Plan:        p,
			PlanNs:      parseNs + time.Since(planStart).Nanoseconds(),
		})
	}
	return e.execPlan(ctx, p, sql.StatementKind(s), fp, sp, text, nil)
}

// execPlan runs a compiled plan — the shared tail of the cold path and
// the plan-cache hit path, for queries and DML alike. kind is the
// statement kind the run is recorded under; params carries EXECUTE
// bindings (nil for ad-hoc statements); the plan itself is treated as
// read-only so one cached copy may execute on any number of sessions at
// once.
func (e *Engine) execPlan(ctx context.Context, p plan.Node, kind, fp string, sp *obs.Span, text string, params []catalog.Value) (*exec.Result, error) {
	start := time.Now()
	chaosBefore := e.Chaos.FireCounts()
	if sp != nil {
		nodes, depth := plan.Summary(p)
		sp.SetTagf("plan", "nodes=%d,depth=%d", nodes, depth)
	}
	esp := sp.Child("exec")
	ex := exec.New(e.funcs())
	ex.Chaos = e.Chaos
	ex.Obs = e.execObs
	ex.Parallelism = e.Parallelism
	ex.Params = params
	if e.MemLimit > 0 {
		ex.Mem = governance.NewMemBudget(e.MemLimit, e.govObs)
	}
	res, err := ex.RunContext(ctx, p)
	esp.Finish()
	if err == nil {
		e.recordSlow(text, kind, fp, time.Since(start), res, "", chaosBefore)
	} else {
		e.recordFailure(text, kind, fp, time.Since(start), err)
	}
	return res, err
}

// recordSlow files one slow-query log entry and folds the execution
// into the statement-statistics store, attributing any chaos faults
// that fired between the before snapshot and now to this query. No-op
// when the engine is uninstrumented.
func (e *Engine) recordSlow(text, kind, fp string, latency time.Duration, res *exec.Result, profile string, chaosBefore map[string]uint64) {
	if e.slowlog == nil {
		return
	}
	if text == "" {
		text = kind
	}
	e.stmtstats.Record(obs.StmtObservation{
		Fingerprint: fp,
		Query:       text,
		Outcome:     obs.StmtOK,
		LatencyNs:   latency.Nanoseconds(),
		Rows:        int64(len(res.Rows)),
		Chunks:      res.Chunks,
		PeakBytes:   res.PeakBytes,
	})
	rows := len(res.Rows)
	var fires map[string]uint64
	if after := e.Chaos.FireCounts(); after != nil {
		for site, n := range after {
			if d := n - chaosBefore[site]; d > 0 {
				if fires == nil {
					fires = make(map[string]uint64)
				}
				fires[site] = d
			}
		}
	}
	e.slowlog.Record(obs.SlowLogEntry{
		Query:       text,
		Fingerprint: fp,
		LatencyNs:   latency.Nanoseconds(),
		Rows:        int64(rows),
		Profile:     profile,
		ChaosFires:  fires,
	})
}

// recordFailure folds a failed execution into the statement-statistics
// store, classifying the outcome: cancellations (context cancel or
// deadline), load-management rejections (memory budget), and plain
// errors are counted separately per fingerprint. The slow-query log
// keeps its successful-executions-only semantics.
func (e *Engine) recordFailure(text, kind, fp string, latency time.Duration, err error) {
	if e.stmtstats == nil {
		return
	}
	if text == "" {
		text = kind
	}
	outcome := obs.StmtError
	switch {
	case exec.IsCancellation(err):
		outcome = obs.StmtCancel
	case errors.Is(err, governance.ErrMemBudget), errors.Is(err, governance.ErrShed):
		outcome = obs.StmtShed
	}
	e.stmtstats.Record(obs.StmtObservation{
		Fingerprint: fp,
		Query:       text,
		Outcome:     outcome,
		LatencyNs:   latency.Nanoseconds(),
	})
}

func (e *Engine) createModel(s *sql.CreateModelStmt) (*exec.Result, error) {
	t, err := e.Cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	kind, err := ParseModelKind(s.Options["kind"])
	if err != nil {
		return nil, err
	}
	features := s.Features
	if len(features) == 0 {
		// Default: all numeric columns except the label.
		for _, c := range t.Schema.Columns {
			if c.Name != s.Label && c.Type != catalog.String {
				features = append(features, c.Name)
			}
		}
	}
	m, err := TrainModel(s.Name, kind, t, features, s.Label, s.Options)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.models[s.Name]; ok {
		return nil, fmt.Errorf("aisql: model %q already exists", s.Name)
	}
	e.models[s.Name] = m
	return emptyResult(), nil
}

func (e *Engine) evaluateModel(s *sql.EvaluateModelStmt) (*exec.Result, error) {
	m, err := e.Model(s.Name)
	if err != nil {
		return nil, err
	}
	t, err := e.Cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	met, err := m.Evaluate(t)
	if err != nil {
		return nil, err
	}
	return &exec.Result{
		Columns: []string{"rows", "accuracy", "mse"},
		Rows:    []catalog.Row{{int64(met.Rows), met.Accuracy, met.MSE}},
	}, nil
}

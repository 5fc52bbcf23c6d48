package aisql

import (
	"context"
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aidb/internal/catalog"
	"aidb/internal/chaos"
	"aidb/internal/exec"
	"aidb/internal/governance"
	"aidb/internal/obs"
	"aidb/internal/plan"
	"aidb/internal/plancache"
	"aidb/internal/sql"
)

// Engine executes SQL and AISQL statements against a catalog. It is the
// end-to-end database handle: parser -> planner -> executor, with the
// model registry wired into the executor's scalar-function table so
// PREDICT(model, features...) works inside any query.
type Engine struct {
	Cat *catalog.Catalog

	// Chaos, when set, is handed to every run of this engine's executor,
	// enabling fault injection at the exec.* sites. Nil disables it.
	Chaos *chaos.Injector

	// Parallelism is handed to every run of this engine's executor (see
	// exec.Executor.Parallelism: 0 = auto, up to NumCPU, idle cores
	// only; 1 = serial). Set it between queries, not concurrently with
	// them.
	Parallelism int

	// Feedback, when set, receives one (estimated, actual) cardinality
	// observation per profiled operator after every EXPLAIN ANALYZE —
	// the estimation-error channel learned estimators retrain from. Nil
	// disables feedback collection.
	Feedback *FeedbackLog

	// MemLimit, when positive, caps the bytes any single query may
	// materialize: each query gets a fresh governance.MemBudget of this
	// size and aborts with governance.ErrMemBudget on overrun. Zero
	// disables per-query budgets. Set it between queries.
	MemLimit int64

	// Plans, when set, caches compiled SELECT, UPDATE and DELETE plans
	// under sql.Normalize's key: a statement that differs from an earlier
	// one — ad hoc or prepared, on any session — only in WHERE, ON and SET
	// literals skips parser and planner and binds its own literals. Nil
	// disables caching; invalidation on DDL/ANALYZE routes through it.
	Plans *plancache.Cache

	mu sync.RWMutex
	// models is replaced, never changed, under mu: PREDICT looks its
	// model up on every chunk, from every scan worker, without a lock.
	models atomic.Pointer[map[string]*Model]
	// PREDICT and PREDICT_PROBA over models, row by row; ex, which runs
	// every statement, also has their chunk forms. A run's parameters
	// and settings travel with it (args).
	funcs exec.FuncRegistry
	ex    *exec.Executor

	// Observability plane, wired by Instrument. All fields are nil-safe
	// when the engine is uninstrumented.
	tracer      *obs.Tracer
	govObs      governance.Metrics
	stmts       *obs.Counter
	parseErrors *obs.Counter
	parses      *obs.Counter
	planBuilds  *obs.Counter
	stmtstats   *obs.StatementStats
}

// Instrument wires the engine — and every executor it creates — to the
// observability registry and tracer, and attaches the statement store
// every executed statement is recorded in. Either argument may be nil to
// disable that half; call before serving queries.
func (e *Engine) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	e.tracer = tr
	e.ex.Obs = exec.NewMetrics(reg)
	e.govObs = governance.NewMetrics(reg)
	e.stmts = reg.Counter("sql.statements")
	e.parseErrors = reg.Counter("sql.parse_errors")
	// sql.parses and plan.builds count pipeline-stage invocations, not
	// statements: a plan-cache hit increments neither, which is how the
	// cache's "no parser, no planner on the hot path" claim is asserted.
	e.parses = reg.Counter("sql.parses")
	e.planBuilds = reg.Counter("plan.builds")
	e.stmtstats = obs.NewStatementStats(0)
}

// Stmts returns the engine's per-statement statistics store
// (nil when the engine is uninstrumented). It is the source behind
// system.statements.
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
func NewEngine() *Engine { return NewEngineWith(catalog.NewMem()) }

// NewEngineWith uses an existing catalog.
func NewEngineWith(cat *catalog.Catalog) *Engine {
	e := &Engine{Cat: cat}
	e.models.Store(&map[string]*Model{})
	funcs, vectors := e.predictFuncs()
	e.funcs, e.ex = funcs, exec.New(funcs)
	e.ex.VectorFuncs = vectors
	return e
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
	e.setModel(name, fresh)
	e.mu.Unlock()
	return nil
}

// Model returns a registered model.
func (e *Engine) Model(name string) (*Model, error) {
	m, ok := (*e.models.Load())[name]
	if !ok {
		return nil, fmt.Errorf("aisql: model %q does not exist", name)
	}
	return m, nil
}

// Models lists registered model names in sorted order.
func (e *Engine) Models() []string {
	models := *e.models.Load()
	names := make([]string, 0, len(models))
	for n := range models {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// predictFuncs builds the functions every executor of this engine
// shares: PREDICT and PREDICT_PROBA, row by row and in chunk form. The
// first argument of each is the model name (a column reference
// lexically; rewritePredicts makes it a string), looked up when the
// function runs — once per chunk in chunk form, which takes the features
// as float64 columns and fails as the per-row form does. PREDICT compared
// with a number selects through the model's selecting form where it has one.
func (e *Engine) predictFuncs() (exec.FuncRegistry, map[string]exec.VectorFunc) {
	predict := func(proba bool) exec.ScalarFunc {
		return func(args []catalog.Value) (catalog.Value, error) {
			var name catalog.Value
			if len(args) > 0 {
				name = args[0]
			}
			m, err := e.predictModel(name, len(args)-1)
			if err != nil {
				return nil, err
			}
			var buf [stackFeatures]float64
			f := buf[:0]
			for i, a := range args[1:] {
				v, err := toF64(a)
				if err != nil {
					return nil, fmt.Errorf("aisql: PREDICT feature %d: %w", i, err)
				}
				f = append(f, v)
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
	predictColumns := func(proba bool) func(catalog.Value, [][]float64, []float64) error {
		return func(name catalog.Value, features [][]float64, out []float64) error {
			m, err := e.predictModel(name, len(features))
			if err != nil {
				return err
			}
			return m.PredictColumns(features, out, proba)
		}
	}
	return exec.FuncRegistry{
			"PREDICT":       predict(false),
			"PREDICT_PROBA": predict(true),
		}, map[string]exec.VectorFunc{
			"PREDICT": {Eval: predictColumns(false), Select: func(name catalog.Value, features int, accept uint8, k float64) (exec.Selector, error) {
				m, err := e.predictModel(name, features)
				if err != nil {
					return nil, err
				}
				return m.selector(features, accept, k), nil
			}},
			"PREDICT_PROBA": {Eval: predictColumns(true)},
		}
}

// predictModel is the model a PREDICT call names by its first argument,
// or the error the call fails with before any feature is read.
func (e *Engine) predictModel(name catalog.Value, features int) (*Model, error) {
	if features < 1 {
		return nil, fmt.Errorf("aisql: PREDICT needs a model and at least one feature")
	}
	s, ok := name.(string)
	if !ok {
		return nil, fmt.Errorf("aisql: PREDICT's first argument must be a model name")
	}
	return e.Model(s)
}

// args are the arguments of one run of this engine's executor, with
// params bound to their $N and, under a MemLimit, a fresh memory budget.
func (e *Engine) args(params []catalog.Value) exec.RunArgs {
	a := exec.RunArgs{Params: params, Parallelism: e.Parallelism, Chaos: e.Chaos}
	if e.MemLimit > 0 {
		a.Mem = governance.NewMemBudget(e.MemLimit, e.govObs)
	}
	return a
}

// Execute parses and runs one statement without a cancellation context
// (equivalent to ExecuteContext with context.Background()).
func (e *Engine) Execute(query string) (*exec.Result, error) {
	return e.ExecuteContext(context.Background(), query)
}

// ExecuteContext runs one statement, returning a result set (possibly
// empty for DDL/DML), as one root span on the engine's tracer. ctx
// cancellation or deadline expiry aborts execution cooperatively, with
// no partial result. A SELECT, UPDATE or DELETE runs the plan cached
// under its key with its own literals as parameters — parser and planner
// run only on a miss; anything else is parsed from the same tokens.
func (e *Engine) ExecuteContext(ctx context.Context, query string) (*exec.Result, error) {
	sp := e.tracer.Start("query")
	defer sp.Finish()
	e.stmts.Inc()
	f, err := e.lex(sp, query)
	if err != nil {
		return nil, err
	}
	defer f.Release()
	parse := func() (sql.Statement, error) { return e.parse(sp, f.Toks, query) }
	if kind := f.Toks[0].Text; kind == "SELECT" || kind == "UPDATE" || kind == "DELETE" {
		sp.SetTag("stmt", kind)
		if err := e.cancelled(ctx); err != nil {
			return nil, err
		}
		ent, err := e.planFor(sp, f.Key, f.Params, parse)
		if err != nil {
			return nil, err
		}
		return e.execPlan(ctx, ent, sp, query, f.Params)
	}
	stmt, err := parse()
	if err != nil {
		return nil, err
	}
	sp.SetTag("stmt", sql.StatementKind(stmt))
	return e.executeStmt(ctx, stmt, sp, query, f.Key, f.Params)
}

// lex is the front of every text path: the statement's tokens, key and
// literals (sql.Normalize) in a pooled sql.Front the caller releases. A
// text the lexer rejects is a failed parse.
func (e *Engine) lex(sp *obs.Span, query string) (*sql.Front, error) {
	f, err := sql.ReadFront(query)
	if err != nil {
		e.parses.Inc()
		e.parseErrors.Inc()
		sp.SetTag("error", "parse")
		return nil, err
	}
	return f, nil
}

// parse builds the AST from normalized tokens under a "parse" span. An
// error is reworded from the client's own text, so it quotes no $N.
func (e *Engine) parse(sp *obs.Span, toks []sql.Token, query string) (sql.Statement, error) {
	psp := sp.Child("parse")
	stmt, err := sql.ParseTokens(toks)
	psp.Finish()
	e.parses.Inc()
	if err != nil {
		if _, rawErr := sql.Parse(query); rawErr != nil {
			err = rawErr
		}
		e.parseErrors.Inc()
		sp.SetTag("error", "parse")
	}
	return stmt, err
}

// cancelled reports (and counts, as the executor would) a dead ctx.
func (e *Engine) cancelled(ctx context.Context) error {
	if ctx == nil || ctx.Err() == nil {
		return nil
	}
	e.ex.Obs.CancelRequests.Inc()
	return ctx.Err()
}

// RunScript runs a ';'-separated script one statement at a time: it
// takes each statement's text off the script (sql.SplitStatement) and
// hands it to run before it splits off the next, so a syntax error in
// statement N surfaces after statements 1…N-1 have run. run's first
// error ends the script; otherwise the last result is returned. Every
// script path — Engine.ExecuteScript, core's DB and Session scripts —
// is this loop over its own one-statement text path, so a script's
// statements share plans, spans, counters and statement records with
// the same statements sent one by one.
func RunScript(script string, run func(text string) (*exec.Result, error)) (*exec.Result, error) {
	var last *exec.Result
	for text, rest := sql.SplitStatement(script); text != ""; text, rest = sql.SplitStatement(rest) {
		var err error
		if last, err = run(text); err != nil {
			return nil, err
		}
	}
	return last, nil
}

// ExecuteScript runs a ';'-separated script statement by statement
// through Execute (see RunScript), returning the last result.
func (e *Engine) ExecuteScript(script string) (*exec.Result, error) {
	return RunScript(script, e.Execute)
}

// executeStmt runs one parsed statement other than a SELECT, UPDATE or
// DELETE, attaching child spans to sp (nil when tracing is off). text is
// the client's query; key and params are what sql.Normalize made of it,
// under which EXPLAIN finds the plan the explained statement runs.
func (e *Engine) executeStmt(ctx context.Context, stmt sql.Statement, sp *obs.Span, text string, key []byte, params []catalog.Value) (*exec.Result, error) {
	if err := e.cancelled(ctx); err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *sql.CreateTableStmt:
		e.invalidatePlans()
		return e.createTable(s)
	case *sql.InsertStmt:
		return e.insert(s, nil)
	case *sql.CreateIndexStmt:
		// New access path: cached full-scan plans must replan to use it.
		e.invalidatePlans()
		return emptyResult(), e.createIndex(s.Table, s.Column)
	case *sql.DropTableStmt:
		// Cached plans hold live table pointers; drop them all. The
		// table's indexes go with it.
		e.invalidatePlans()
		return emptyResult(), e.Cat.DropTable(s.Name)
	case *sql.CreateModelStmt:
		return e.createModel(s)
	case *sql.EvaluateModelStmt:
		return e.evaluateModel(s)
	case *sql.DropModelStmt:
		e.mu.Lock()
		defer e.mu.Unlock()
		if _, ok := (*e.models.Load())[s.Name]; !ok {
			return nil, fmt.Errorf("aisql: model %q does not exist", s.Name)
		}
		e.setModel(s.Name, nil)
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
		switch s.Inner.(type) {
		case *sql.SelectStmt, *sql.UpdateStmt, *sql.DeleteStmt:
		default:
			return nil, fmt.Errorf("aisql: EXPLAIN supports only SELECT, UPDATE and DELETE")
		}
		// The very entry the statement itself would run.
		ent, err := e.planFor(sp, key, params, func() (sql.Statement, error) { return s.Inner, nil })
		if err != nil {
			return nil, err
		}
		if s.Analyze {
			return e.explainAnalyze(ctx, ent, sp, text, params)
		}
		return &exec.Result{Columns: []string{"plan"}, Rows: []catalog.Row{{plan.Explain(ent.Plan)}}}, nil
	case *sql.AnalyzeStmt:
		t, err := e.Cat.Table(s.Table)
		if err != nil {
			return nil, err
		}
		// Fresh statistics change join build sides and index choices —
		// every frozen estimate in the cache is stale now.
		e.invalidatePlans()
		return emptyResult(), t.Analyze(32, 8)
	case *sql.PrepareStmt, *sql.ExecStmt, *sql.DeallocateStmt,
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

// createIndex builds the table's index on an INT column. Indexes are
// keyed by table and column; the statement's index name is not kept.
func (e *Engine) createIndex(table, column string) error {
	t, err := e.Cat.Table(table)
	if err != nil {
		return err
	}
	col := t.Schema.ColIndex(column)
	if col < 0 {
		return fmt.Errorf("aisql: column %q not found in %q", column, table)
	}
	return t.CreateIndex(col)
}

// insert runs an INSERT, ad hoc or prepared (params bind its $N). Every
// row is evaluated and coerced to its columns before the first is
// written, so a bad value anywhere writes no row; then the rows go into
// the table in one Table.InsertRows.
func (e *Engine) insert(s *sql.InsertStmt, params []catalog.Value) (*exec.Result, error) {
	t, err := e.Cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	cols := t.Schema.Columns
	scope := exec.NewScopeParams(nil, params)
	rows := make([]catalog.Row, len(s.Rows))
	cells := make([]catalog.Value, len(s.Rows)*len(cols))
	for r, exprRow := range s.Rows {
		if len(exprRow) != len(cols) {
			return nil, fmt.Errorf("aisql: INSERT has %d values for %d columns", len(exprRow), len(cols))
		}
		row := cells[r*len(cols) : (r+1)*len(cols) : (r+1)*len(cols)]
		for i, ex := range exprRow {
			v, err := exec.Eval(ex, scope, nil, nil)
			if err != nil {
				return nil, fmt.Errorf("aisql: INSERT value %d: %w", i, err)
			}
			if row[i], err = catalog.Coerce(v, cols[i].Type); err != nil {
				return nil, err
			}
		}
		rows[r] = row
	}
	if err := t.InsertRows(rows, nil); err != nil {
		return nil, err
	}
	return emptyResult(), nil
}

// rewritePredicts makes the first argument of every PREDICT(model, ...)
// call — a bare column reference to the parser — the string literal the
// registry is keyed by. It edits the expression trees in place and
// writes only where it replaces a name, so a second pass writes nothing:
// that is what lets a replan walk an AST that cached plans are
// evaluating concurrently.
func rewritePredicts(s sql.Statement) {
	sql.WalkExprs(s, func(root sql.Expr) {
		sql.WalkExpr(root, func(ex sql.Expr) {
			v, ok := ex.(*sql.FuncCall)
			if !ok || (v.Name != "PREDICT" && v.Name != "PREDICT_PROBA") || len(v.Args) == 0 {
				return
			}
			if c, ok := v.Args[0].(*sql.ColumnRef); ok && c.Table == "" {
				v.Args[0] = &sql.StringLit{Value: c.Column}
			}
		})
	})
}

// buildPlan compiles one SELECT, UPDATE or DELETE for planFor: lower it
// to a plan, reorder filters, choose index access paths, and freeze
// cardinality decisions (join build sides) into the plan so executing a
// cached copy never re-invokes an estimator. params are the values the
// statement in hand binds to its $N (nil at PREPARE): what the estimator
// reads where the text no longer has a literal. The returned plan is
// immutable and safe to share across concurrent executors.
func (e *Engine) buildPlan(stmt sql.Statement, params []catalog.Value) (plan.Node, error) {
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
		p = m
	}
	// AI-operator pushdown: run cheap relational predicates before model
	// invocations (the executor short-circuits conjunctions).
	p = plan.OptimizeFilters(p)
	// Secondary-index access paths for filters over indexed columns.
	p = plan.UseIndexes(p)
	// Freeze build-side choices at plan time (estimator runs here, once).
	plan.AnnotateBuildSides(p, plan.HistogramEstimator{Params: params})
	return p, nil
}

// planFor returns the plan for key: the cached entry, or one built from
// the statement parse yields, and cached. Ad-hoc statements,
// PREPARE/EXECUTE, EXPLAIN and EXPLAIN ANALYZE all get their plan here,
// so they run and show the same entry. Planning is single-flight per
// key: a caller that missed takes the key's build lock and looks again,
// so of the sessions that miss together after an invalidation one plans.
// With no cache the plan is built for this call alone. PlanNs covers
// parse and plan: what a hit skips.
func (e *Engine) planFor(sp *obs.Span, key []byte, params []catalog.Value, parse func() (sql.Statement, error)) (*plancache.Entry, error) {
	cache := e.Plans
	if cache != nil {
		if ent := cache.LookupKey(key); ent != nil {
			sp.SetTag("plancache", "hit")
			return ent, nil
		}
		sp.SetTag("plancache", "miss")
	}
	k := string(key) // the entry's own copy; key is the caller's buffer
	if cache != nil {
		mu := cache.BuildLock(k)
		mu.Lock()
		defer mu.Unlock()
		if ent := cache.Peek(k); ent != nil {
			return ent, nil
		}
	}
	start := time.Now()
	stmt, err := parse()
	if err != nil {
		return nil, err
	}
	psp := sp.Child("plan")
	p, err := e.buildPlan(stmt, params)
	psp.Finish()
	if err != nil {
		return nil, err
	}
	nodes, depth := plan.Summary(p)
	ent := &plancache.Entry{
		Key:         k,
		Fingerprint: plan.Fingerprint(p),
		Plan:        p,
		NumParams:   sql.CountParams(stmt),
		Summary:     fmt.Sprintf("nodes=%d,depth=%d", nodes, depth),
		PlanNs:      time.Since(start).Nanoseconds(),
	}
	if cache != nil {
		cache.Put(ent)
	}
	return ent, nil
}

// execPlan runs a cached plan — the shared tail of every query and DML
// path — recorded under the client's text. params are the
// values of the plan's $N: an EXECUTE's arguments or the literals
// Normalize took out. The plan and the program the entry keeps for it
// are read-only: sessions share one copy, and a run whose parameters
// have the program's kinds compiles nothing.
func (e *Engine) execPlan(ctx context.Context, ent *plancache.Entry, sp *obs.Span, text string, params []catalog.Value) (*exec.Result, error) {
	sp.SetTag("plan", ent.Summary)
	a := e.args(params)
	a.Start = time.Now() // the one clock read this run's span, executor and record start from
	esp := sp.ChildAt("exec", a.Start)
	res, err := e.ex.RunCompiled(ctx, ent.Plan, &ent.Program, a)
	latency := time.Since(a.Start)
	esp.FinishAfter(latency)
	e.record(ent, text, a.Start, latency, res, err)
	return res, err
}

// record folds one run of ent, begun at start, into the
// statement-statistics store under the entry's fingerprint and key, its
// outcome ok or, by governance.Classify, cancelled (context cancel or
// deadline), shed (memory budget, admission) or error. No-op when the
// engine is uninstrumented.
func (e *Engine) record(ent *plancache.Entry, text string, start time.Time, latency time.Duration, res *exec.Result, err error) {
	if e.stmtstats == nil {
		return
	}
	o := obs.StmtObservation{
		Fingerprint: ent.Fingerprint, Key: ent.Key, Query: text, Outcome: obs.StmtError,
		LatencyNs: latency.Nanoseconds(), EndNs: start.UnixNano() + latency.Nanoseconds(),
	}
	if err == nil {
		o.Outcome, o.Rows, o.Chunks, o.PeakBytes, o.ChaosFires = obs.StmtOK, int64(len(res.Rows)), res.Chunks, res.PeakBytes, res.ChaosFires
	} else {
		switch governance.Classify(err) {
		case governance.Cancelled:
			o.Outcome = obs.StmtCancel
		case governance.Shed:
			o.Outcome = obs.StmtShed
		}
	}
	e.stmtstats.Record(o)
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
	if _, ok := (*e.models.Load())[s.Name]; ok {
		return nil, fmt.Errorf("aisql: model %q already exists", s.Name)
	}
	e.setModel(s.Name, m)
	return emptyResult(), nil
}

// setModel publishes a copy of the model registry with name bound to m
// (removed when m is nil). Caller holds mu.
func (e *Engine) setModel(name string, m *Model) {
	next := maps.Clone(*e.models.Load())
	if m == nil {
		delete(next, name)
	} else {
		next[name] = m
	}
	e.models.Store(&next)
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

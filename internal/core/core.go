// Package core is aidb's public facade: an AI-native database handle in
// the spirit of the paper's "learning-based database systems" (SageDB,
// XuanYuan). A DB executes SQL and AISQL through one entry point and
// exposes the learned self-driving subsystems — knob tuning, index and
// view advising, workload forecasting, health monitoring — behind simple
// methods, each delegating to the corresponding internal package.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"aidb/internal/aisql"
	"aidb/internal/cardest"
	"aidb/internal/catalog"
	"aidb/internal/exec"
	"aidb/internal/governance"
	"aidb/internal/guard"
	"aidb/internal/idxadvisor"
	"aidb/internal/knob"
	"aidb/internal/ml"
	"aidb/internal/monitor"
	"aidb/internal/obs"
	"aidb/internal/plancache"
	"aidb/internal/sql"
	"aidb/internal/txnsched"
	"aidb/internal/workload"
)

// DB is an aidb database instance.
type DB struct {
	engine *aisql.Engine
	rng    *ml.RNG
	reg    *obs.Registry
	tracer *obs.Tracer

	// feedback/qerr close the cardinality-estimation feedback loop:
	// profiled executions stream per-operator (est, actual) pairs into
	// feedback, which forwards each pair to qerr, the monitor-side
	// drift KPI (exposed as the cardest.qerror.window_median gauge).
	feedback *cardest.FeedbackLog
	qerr     *monitor.QErrorWindow

	// tuner state persists across Tune calls so the query-aware critic
	// accumulates experience (QTune behaviour).
	tuner   *knob.QTune
	surface *knob.Surface

	// Overload-governance plane: every ExecContext passes the admission
	// gate (unlimited by default), inherits the default statement
	// timeout (0 = none), and transient faults can be retried through
	// ExecRetry with this policy.
	gate    *governance.AdmissionGate
	govObs  governance.Metrics
	timeout time.Duration
	retry   governance.RetryPolicy

	// Telemetry plane: a background sampler turns registry snapshots
	// into bounded time series, the anomaly detector watches each
	// window, and Serve exposes the whole monitoring surface over HTTP.
	series   *obs.TimeSeries
	alerts   *monitor.AlertLog
	detector *monitor.AnomalyDetector
	httpSrv  *obs.Server

	// sqlRules are KPI rules expressed as SQL over system.metrics,
	// evaluated through the engine itself (see monitor.SQLRuleSet).
	sqlRules *monitor.SQLRuleSet

	// plans is the shared compiled-plan cache every session and Exec
	// path runs through; DDL and ANALYZE invalidate it via the engine.
	plans *plancache.Cache
}

// Open creates an in-memory database seeded deterministically.
func Open() *DB {
	return OpenSeeded(42)
}

// OpenSeeded creates a database whose learned components draw randomness
// from the given seed.
func OpenSeeded(seed uint64) *DB {
	rng := ml.NewRNG(seed)
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(16)
	engine := aisql.NewEngine()
	engine.Instrument(reg, tracer)
	engine.Cat.Pool().Instrument(reg)
	plans := plancache.New(0)
	plans.Instrument(reg)
	engine.Plans = plans
	feedback := cardest.NewFeedbackLog(0)
	qerr := monitor.NewQErrorWindow(0)
	feedback.SetObserver(qerr.Observe)
	engine.Feedback = feedback
	reg.GaugeFunc("cardest.feedback.total", func() float64 { return float64(feedback.Total()) })
	reg.GaugeFunc("cardest.qerror.window_median", qerr.Median)
	govObs := governance.NewMetrics(reg)
	gate := governance.NewAdmissionGate(0)
	gate.Instrument(govObs)
	reg.GaugeFunc("admission.active", func() float64 { return float64(gate.Active()) })
	reg.GaugeFunc("admission.queue_depth", func() float64 { return float64(gate.Queued()) })
	tracer.EnableExport(64)
	obs.RegisterProcMetrics(reg)
	series := obs.NewTimeSeries(reg, 0)
	alerts := monitor.NewAlertLog(0)
	detector := monitor.NewAnomalyDetector(series, alerts, monitor.DetectorConfig{})
	series.SetOnSample(func(uint64) { detector.Observe() })
	db := &DB{
		engine:   engine,
		rng:      rng,
		reg:      reg,
		tracer:   tracer,
		feedback: feedback,
		qerr:     qerr,
		tuner:    &knob.QTune{Rng: ml.NewRNG(seed + 1)},
		surface:  knob.NewSurface(ml.NewRNG(seed+2), 0.01),
		gate:     gate,
		govObs:   govObs,
		retry:    governance.RetryPolicy{Seed: seed + 3},
		series:   series,
		alerts:   alerts,
		detector: detector,
		plans:    plans,
	}
	db.sqlRules = monitor.NewSQLRuleSet(engine, alerts)
	db.registerSystemTables()
	return db
}

// AddSQLRule registers one SQL KPI rule: rules run through the engine
// against the system.* catalog (typically system.metrics) and file a
// latched alert whenever the query returns rows. Evaluate with
// EvalSQLRules.
func (db *DB) AddSQLRule(name, query, detail string) {
	db.sqlRules.Add(monitor.SQLRule{Name: name, Query: query, Detail: detail})
}

// EvalSQLRules evaluates every registered SQL KPI rule once, returning
// the number of alerts filed into the alert ring.
func (db *DB) EvalSQLRules() int { return db.sqlRules.EvalOnce() }

// SQLRules exposes the SQL KPI rule set.
func (db *DB) SQLRules() *monitor.SQLRuleSet { return db.sqlRules }

// Series exposes the metric time-series store the telemetry sampler
// fills (empty until StartTelemetry or a manual SampleOnce).
func (db *DB) Series() *obs.TimeSeries { return db.series }

// Alerts exposes the KPI anomaly-alert ring.
func (db *DB) Alerts() *monitor.AlertLog { return db.alerts }

// StartTelemetry starts the background metric sampler: every interval
// (default 1s when <= 0) the registry is snapshotted into the
// time-series store and the anomaly detector inspects the new window.
// Idempotent while running.
func (db *DB) StartTelemetry(interval time.Duration) { db.series.Start(interval) }

// StopTelemetry stops the background sampler, waiting for the
// in-flight tick (if any) to finish. Safe when not running.
func (db *DB) StopTelemetry() { db.series.Stop() }

// Telemetry bundles this database's observability surfaces into an
// http.Handler (see obs.Telemetry for the endpoint map).
func (db *DB) Telemetry() *obs.Telemetry {
	return &obs.Telemetry{
		Registry:   db.reg,
		Series:     db.series,
		SlowLog:    db.engine.SlowLog(),
		Tracer:     db.tracer,
		Alerts:     db.alerts,
		Statements: db.engine.Stmts(),
	}
}

// Serve starts the telemetry HTTP server on addr (":0" picks a free
// port) and the background sampler if it is not already running. The
// returned server's Addr reports the bound address; Close it (or call
// db.Close) when done.
func (db *DB) Serve(addr string) (*obs.Server, error) {
	srv, err := obs.Serve(addr, db.Telemetry())
	if err != nil {
		return nil, err
	}
	if !db.series.Running() {
		db.series.Start(0)
	}
	db.httpSrv = srv
	return srv, nil
}

// Close stops the telemetry sampler and HTTP server (if started).
// Callers that never used telemetry need not call it.
func (db *DB) Close() error {
	db.series.Stop()
	err := db.httpSrv.Close()
	db.httpSrv = nil
	return err
}

// Metrics exposes the live observability registry every query and
// storage operation reports into.
func (db *DB) Metrics() *obs.Registry { return db.reg }

// SetParallelism sets the morsel worker budget for subsequent queries:
// 0 selects runtime.NumCPU() (auto), 1 pins the serial baseline, larger
// values an explicit worker count. Not safe to call concurrently with
// in-flight queries.
func (db *DB) SetParallelism(workers int) { db.engine.Parallelism = workers }

// Parallelism reports the current morsel worker budget setting.
func (db *DB) Parallelism() int { return db.engine.Parallelism }

// WriteMetrics writes the text exposition of every registered metric.
func (db *DB) WriteMetrics(w io.Writer) error {
	_, err := db.reg.WriteTo(w)
	return err
}

// SlowLog exposes the engine's slow-query log.
func (db *DB) SlowLog() *obs.SlowQueryLog { return db.engine.SlowLog() }

// Feedback exposes the cardinality-feedback log profiled executions
// report into.
func (db *DB) Feedback() *cardest.FeedbackLog { return db.feedback }

// NewEstimatorCache wraps base in a bounded estimate cache whose
// hit/miss/invalidation counters report into this database's metrics
// registry (visible in the REPL's \metrics). When base is a
// FeedbackEstimator, feedback fine-tuning invalidates the cache
// automatically.
func (db *DB) NewEstimatorCache(base cardest.Estimator, capacity int) *cardest.EstimateCache {
	c := cardest.NewEstimateCache(base, capacity)
	c.Instrument(db.reg)
	// A retrain changes what the estimator would say at plan time, so
	// compiled plans (with estimates frozen in) go stale too.
	db.plans.WatchEstimator(base)
	return c
}

// PlanCache exposes the shared compiled-plan cache (system.plan_cache's
// backing store).
func (db *DB) PlanCache() *plancache.Cache { return db.plans }

// QErrorWindow exposes the monitor's sliding window over feedback
// q-errors, the drift KPI for learned cardinality estimation.
func (db *DB) QErrorWindow() *monitor.QErrorWindow { return db.qerr }

// LastTrace renders the span tree of the most recent query, or "" when
// nothing has been traced yet.
func (db *DB) LastTrace() string {
	s := db.tracer.Last()
	if s == nil {
		return ""
	}
	return s.Dump()
}

// SetTimeout sets the default statement timeout applied by ExecContext
// when the caller's context carries no deadline of its own (the REPL's
// \timeout knob). Zero disables the default.
func (db *DB) SetTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	db.timeout = d
}

// Timeout reports the default statement timeout (0 = none).
func (db *DB) Timeout() time.Duration { return db.timeout }

// SetMaxConcurrent bounds the number of statements executing at once;
// excess callers queue FIFO at the admission gate and are shed when
// their deadline would expire before admission. 0 removes the bound
// (the default). Raising the bound grants queued waiters immediately.
func (db *DB) SetMaxConcurrent(n int) { db.gate.SetMaxConcurrent(n) }

// MaxConcurrent reports the admission bound (0 = unlimited).
func (db *DB) MaxConcurrent() int { return db.gate.MaxConcurrent() }

// AdmissionGate exposes the gate for harnesses (aidb-bench, E29).
func (db *DB) AdmissionGate() *governance.AdmissionGate { return db.gate }

// SetMemBudget caps the bytes a single query may materialize; queries
// that exceed it abort with governance.ErrMemBudget. 0 disables (the
// default). Not safe to call concurrently with in-flight queries.
func (db *DB) SetMemBudget(bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	db.engine.MemLimit = bytes
}

// MemBudget reports the per-query memory cap (0 = unlimited).
func (db *DB) MemBudget() int64 { return db.engine.MemLimit }

// Exec runs one SQL/AISQL statement without external cancellation
// (equivalent to ExecContext with context.Background()).
func (db *DB) Exec(query string) (*exec.Result, error) {
	return db.ExecContext(context.Background(), query)
}

// ExecContext runs one SQL/AISQL statement under ctx: the statement
// first passes the admission gate (queueing when the concurrency bound
// is reached, shed with governance.ErrShed when its deadline would
// expire first), then executes with cooperative cancellation — ctx
// cancellation or deadline expiry stops the query within about one
// morsel per worker with no partial result. When the database has a
// default timeout and ctx carries no deadline, the default applies.
func (db *DB) ExecContext(ctx context.Context, query string) (*exec.Result, error) {
	return db.govern(ctx, query, func(ctx context.Context) (*exec.Result, error) {
		return db.engine.ExecuteContext(ctx, query)
	})
}

// govern applies the per-statement governance plane — default timeout
// when ctx has no deadline, then the admission gate — around one unit
// of execution. Gate sheds happen before the statement is parsed or
// planned, so no fingerprint exists yet; they are folded into the
// statement store under a synthetic "(admission)" entry so shed load
// stays visible in system.statements.
func (db *DB) govern(ctx context.Context, query string, run func(context.Context) (*exec.Result, error)) (*exec.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if db.timeout > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, db.timeout)
			defer cancel()
		}
	}
	release, err := db.gate.Admit(ctx)
	if err != nil {
		if errors.Is(err, governance.ErrShed) {
			db.engine.RecordShed(query)
		}
		return nil, err
	}
	defer release()
	return run(ctx)
}

// ExecRetry runs one statement like ExecContext, retrying transient
// faults (injected chaos errors, lock timeouts, deadlock aborts — see
// guard.Classify) with exponential backoff plus deterministic jitter.
// Permanent errors and ctx cancellation fail immediately; retry
// attempts and exhaustion are visible as retry.* metrics.
func (db *DB) ExecRetry(ctx context.Context, query string) (*exec.Result, error) {
	var res *exec.Result
	err := governance.Retry(ctx, db.retry, db.govObs, guard.IsTransient, func() error {
		var ferr error
		res, ferr = db.ExecContext(ctx, query)
		return ferr
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ExecScript runs a ';'-separated script, returning the last result
// (equivalent to ExecScriptContext with context.Background()).
func (db *DB) ExecScript(script string) (*exec.Result, error) {
	return db.ExecScriptContext(context.Background(), script)
}

// ExecScriptContext runs a ';'-separated script under ctx, returning
// the last result. Each statement passes the governance plane
// individually — the default timeout applies per statement and every
// statement takes its own turn through the admission gate — so the
// REPL and script paths observe the same timeouts, concurrency bounds
// and metrics as ExecContext. Statements are parsed one at a time as
// the script runs, so a syntax error in statement N surfaces after
// statements 1…N-1 have run.
func (db *DB) ExecScriptContext(ctx context.Context, script string) (*exec.Result, error) {
	var last *exec.Result
	err := db.engine.EachStatement(script, func(s sql.Statement) (err error) {
		last, err = db.govern(ctx, script, func(ctx context.Context) (*exec.Result, error) {
			return db.engine.ExecuteStmtContext(ctx, s)
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	return last, nil
}

// Catalog exposes the underlying catalog for advanced callers.
func (db *DB) Catalog() *catalog.Catalog { return db.engine.Cat }

// Engine exposes the underlying AISQL engine.
func (db *DB) Engine() *aisql.Engine { return db.engine }

// Format renders a result as an aligned text table.
func Format(res *exec.Result) string { return string(AppendResult(nil, res)) }

// AppendResult appends the aligned text table Format returns to dst: the
// reply a server writes, rendered into a buffer it reuses. Two passes
// over the rows — column widths, then cells — with no intermediate
// strings; int64, float64 and string cells (all a table holds) are
// written by strconv exactly as fmt's %v writes them, anything else by
// fmt.
func AppendResult(dst []byte, res *exec.Result) []byte {
	if res == nil || len(res.Columns) == 0 {
		return append(dst, "OK\n"...)
	}
	var scratch [32]byte
	widths := make([]int, len(res.Columns))
	for i, c := range res.Columns {
		widths[i] = len(c)
	}
	for _, r := range res.Rows {
		for i, v := range r {
			n := 0
			if str, ok := v.(string); ok {
				n = len(str)
			} else {
				n = len(appendCell(scratch[:0], v))
			}
			widths[i] = max(widths[i], n)
		}
	}
	for i, c := range res.Columns {
		if i > 0 {
			dst = append(dst, "  "...)
		}
		dst = append(dst, c...)
		dst = appendPad(dst, widths[i]-len(c), ' ')
	}
	dst = append(dst, '\n')
	for i, w := range widths {
		if i > 0 {
			dst = append(dst, "  "...)
		}
		dst = appendPad(dst, w, '-')
	}
	dst = append(dst, '\n')
	for _, r := range res.Rows {
		for i, v := range r {
			if i > 0 {
				dst = append(dst, "  "...)
			}
			start := len(dst)
			dst = appendCell(dst, v)
			dst = appendPad(dst, widths[i]-(len(dst)-start), ' ')
		}
		dst = append(dst, '\n')
	}
	dst = append(dst, '(')
	dst = strconv.AppendInt(dst, int64(len(res.Rows)), 10)
	return append(dst, " rows)\n"...)
}

func appendPad(dst []byte, n int, c byte) []byte {
	for ; n > 0; n-- {
		dst = append(dst, c)
	}
	return dst
}

// appendCell appends v as fmt's %v renders it.
func appendCell(dst []byte, v catalog.Value) []byte {
	switch x := v.(type) {
	case int64:
		return strconv.AppendInt(dst, x, 10)
	case float64:
		return strconv.AppendFloat(dst, x, 'g', -1, 64)
	case string:
		return append(dst, x...)
	}
	return fmt.Append(dst, v)
}

// TuneReport summarizes one knob-tuning session.
type TuneReport struct {
	Config     knob.Config
	Throughput float64
	// RegretVsOptimal is the fraction of peak throughput left on the
	// table (0 = perfectly tuned).
	RegretVsOptimal float64
}

// Tune runs the query-aware RL tuner for the given workload mix and trial
// budget against the simulated performance surface, returning the best
// configuration found. Successive calls reuse the learned critic.
func (db *DB) Tune(mix knob.WorkloadMix, budget int) TuneReport {
	cfg := db.tuner.Tune(db.surface, mix, budget)
	return TuneReport{
		Config:          cfg,
		Throughput:      db.surface.Throughput(cfg, mix),
		RegretVsOptimal: db.surface.Regret(cfg, mix),
	}
}

// IndexAdvice is one recommended index.
type IndexAdvice struct {
	Table  string
	Column string
}

// AdviseIndexes observes a workload of conjunctive range queries over a
// generated shadow of the named table and returns up to budget
// single-column index recommendations from the learned (MDP) advisor.
func (db *DB) AdviseIndexes(tableName string, queries []workload.Query, budget int) ([]IndexAdvice, error) {
	t, err := db.engine.Cat.Table(tableName)
	if err != nil {
		return nil, err
	}
	// Build a workload.Table shadow of the integer columns.
	var cols []workload.Column
	var colNames []string
	var colIdx []int
	for ci, c := range t.Schema.Columns {
		if c.Type != catalog.Int64 {
			continue
		}
		ndv := 1024
		if t.Stats != nil {
			if cs, ok := t.Stats.Cols[ci]; ok && cs.NDV > 0 {
				ndv = cs.NDV
			}
		}
		cols = append(cols, workload.Column{Name: c.Name, NDV: ndv, CorrelatedWith: -1})
		colNames = append(colNames, c.Name)
		colIdx = append(colIdx, ci)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("core: table %q has no integer columns to index", tableName)
	}
	shadow := &workload.Table{
		Spec: workload.TableSpec{Name: tableName, Rows: t.NumRows(), Columns: cols},
		Cols: make([][]int64, len(cols)),
	}
	rows, err := t.AllRows()
	if err != nil {
		return nil, err
	}
	for k, ci := range colIdx {
		col := make([]int64, len(rows))
		for r, row := range rows {
			col[r] = row[ci].(int64)
		}
		shadow.Cols[k] = col
	}
	cm := &idxadvisor.CostModel{Table: shadow}
	adv := &idxadvisor.MDP{Rng: db.rng}
	chosen := adv.Recommend(cm, queries, budget)
	var out []IndexAdvice
	for c := range chosen {
		out = append(out, IndexAdvice{Table: tableName, Column: colNames[c]})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Column < out[b].Column })
	return out, nil
}

// ForecastWorkload fits the learned forecaster on an arrival-rate history
// and predicts the rate h steps ahead.
func (db *DB) ForecastWorkload(history []float64, h int) (float64, error) {
	f := &txnsched.Linear{}
	if err := f.Fit(history); err != nil {
		return 0, err
	}
	return f.Predict(history, h), nil
}

// Diagnose trains the KPI-clustering diagnoser on historical incidents
// and classifies a new one.
func (db *DB) Diagnose(history []monitor.SlowQuery, incident monitor.SlowQuery) (monitor.RootCause, error) {
	kc := &monitor.KPICluster{}
	if err := kc.Train(db.rng, history); err != nil {
		return 0, err
	}
	return kc.Diagnose(incident), nil
}

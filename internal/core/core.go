// Package core is aidb's database handle: a DB serves SQL and AISQL
// statements — through Exec, scripts and per-connection sessions — over
// one engine, one shared plan cache, one admission gate and one metrics
// registry, and shows its own state as system.* tables. Every statement
// reaches the engine as text: a script runs statement by statement
// through the same text path and plan cache as ad-hoc statements. The
// AI4DB components (knob tuning, index and view advising, workload
// forecasting, diagnosis) are not part of it: they live in their own
// packages and act on a DB from beside it, through SQL over system.*
// (see examples/selftuning and cmd/aidb-tune).
package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"aidb/internal/aisql"
	"aidb/internal/catalog"
	"aidb/internal/exec"
	"aidb/internal/governance"
	"aidb/internal/monitor"
	"aidb/internal/obs"
	"aidb/internal/plancache"
)

// DB is an aidb database instance.
type DB struct {
	engine *aisql.Engine
	reg    *obs.Registry
	tracer *obs.Tracer

	// Overload-governance plane: every ExecContext passes the admission
	// gate (unlimited by default), inherits the default statement
	// timeout (0 = none), and transient faults can be retried through
	// ExecRetry with this policy.
	gate    *governance.AdmissionGate
	govObs  governance.Metrics
	timeout time.Duration
	retry   governance.RetryPolicy

	// Telemetry plane: a background sampler turns registry snapshots
	// into bounded time series and the anomaly detector watches each
	// window; Telemetry is the HTTP view of what SQL cannot serve.
	series   *obs.TimeSeries
	alerts   *monitor.AlertLog
	detector *monitor.AnomalyDetector

	// plans is the shared compiled-plan cache every session and Exec
	// path runs through; DDL and ANALYZE invalidate it via the engine.
	plans *plancache.Cache
}

// Open creates an in-memory database seeded deterministically.
func Open() *DB {
	return OpenSeeded(42)
}

// OpenSeeded creates a database whose retry jitter (ExecRetry) draws
// from the given seed.
func OpenSeeded(seed uint64) *DB {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(16)
	engine := aisql.NewEngine()
	engine.Instrument(reg, tracer)
	engine.Cat.Pool().Instrument(reg)
	plans := plancache.New(0)
	plans.Instrument(reg)
	engine.Plans = plans
	// The cardinality-estimation feedback loop: profiled executions
	// stream per-operator (est, actual) pairs into feedback, whose
	// median q-error is the drift KPI.
	feedback := aisql.NewFeedbackLog(0)
	engine.Feedback = feedback
	reg.GaugeFunc("cardest.feedback.total", func() float64 { return float64(feedback.Total()) })
	reg.GaugeFunc("cardest.qerror.window_median", feedback.Median)
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
		reg:      reg,
		tracer:   tracer,
		gate:     gate,
		govObs:   govObs,
		retry:    governance.RetryPolicy{Seed: seed + 3},
		series:   series,
		alerts:   alerts,
		detector: detector,
		plans:    plans,
	}
	db.registerSystemTables()
	return db
}

// Series exposes the metric time-series store the telemetry sampler
// fills (empty until StartTelemetry or a manual SampleOnce).
func (db *DB) Series() *obs.TimeSeries { return db.series }

// Alerts exposes the KPI anomaly-alert ring (system.alerts' backing
// store); monitor.NewSQLRuleSet(db.Engine(), db.Alerts()) files SQL KPI
// rule alerts into it.
func (db *DB) Alerts() *monitor.AlertLog { return db.alerts }

// StartTelemetry starts the background metric sampler: every interval
// (default 1s when <= 0) the registry is snapshotted into the
// time-series store and the anomaly detector inspects the new window.
// Idempotent while running; Close stops it.
func (db *DB) StartTelemetry(interval time.Duration) { db.series.Start(interval) }

// Telemetry bundles what this database shows only over HTTP — metrics,
// sampled series, traces, pprof — into an http.Handler (see
// obs.Telemetry for the endpoint map). Statements, metrics and alerts
// are system.* tables.
func (db *DB) Telemetry() *obs.Telemetry {
	return &obs.Telemetry{Registry: db.reg, Series: db.series, Tracer: db.tracer}
}

// Close stops the telemetry sampler, waiting for the in-flight tick (if
// any) to finish. Callers that never started it need not call it.
func (db *DB) Close() error {
	db.series.Stop()
	return nil
}

// Metrics exposes the live observability registry every query and
// storage operation reports into.
func (db *DB) Metrics() *obs.Registry { return db.reg }

// SetParallelism sets the morsel worker budget for subsequent queries:
// 0 = auto: up to NumCPU, idle cores only (a scan fans out only over
// cores no other statement occupies); 1 pins the serial baseline, larger
// values an explicit worker count. Not safe to call concurrently with
// in-flight queries.
func (db *DB) SetParallelism(workers int) { db.engine.Parallelism = workers }

// Parallelism reports the current morsel worker budget setting.
func (db *DB) Parallelism() int { return db.engine.Parallelism }

// PlanCache exposes the shared compiled-plan cache (system.plan_cache's
// backing store).
func (db *DB) PlanCache() *plancache.Cache { return db.plans }

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

// ExecRetry runs one statement like ExecContext, retrying the faults
// governance.Classify calls Transient (injected chaos errors, lock
// timeouts, deadlock aborts) with exponential backoff plus
// deterministic jitter. Permanent errors, shedding and ctx cancellation
// fail immediately; retry attempts and exhaustion are visible as
// retry.* metrics.
func (db *DB) ExecRetry(ctx context.Context, query string) (*exec.Result, error) {
	var res *exec.Result
	err := governance.Retry(ctx, db.retry, db.govObs, func() error {
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
// the last result. Each statement's text goes through ExecContext
// (aisql.RunScript), so it passes the governance plane on its own — the
// default timeout applies per statement and every statement takes its
// own turn through the admission gate — and runs the plan-cache entry,
// counters and system.statements row the same text gets sent alone.
// Statements are parsed one at a time as the script runs, so a syntax
// error in statement N surfaces after statements 1…N-1 have run.
func (db *DB) ExecScriptContext(ctx context.Context, script string) (*exec.Result, error) {
	return aisql.RunScript(script, func(text string) (*exec.Result, error) {
		return db.ExecContext(ctx, text)
	})
}

// Catalog exposes the underlying catalog for advanced callers.
func (db *DB) Catalog() *catalog.Catalog { return db.engine.Cat }

// Engine exposes the underlying AISQL engine.
func (db *DB) Engine() *aisql.Engine { return db.engine }

// Format renders a result as an aligned text table.
func Format(res *exec.Result) string { return string(AppendResult(nil, res)) }

// AppendResult appends the aligned text table Format returns to dst: the
// reply a server writes, rendered into a buffer it reuses. Each cell is
// formatted once, with no intermediate strings: the cells that are not
// strings are staged at the tail of dst while the column widths are
// measured, then the table is written after the stage, reading them
// back, and moved down over it. int64, float64 and string cells (all a
// table holds) are written exactly as fmt's %v writes them, without fmt;
// anything else by fmt.
func AppendResult(dst []byte, res *exec.Result) []byte {
	if res == nil || len(res.Columns) == 0 {
		return append(dst, "OK\n"...)
	}
	var room [16]int // the widths of a result this narrow stay on the stack
	widths := room[:0]
	for _, c := range res.Columns {
		widths = append(widths, len(c))
	}
	// The stage holds each staged cell as its length in four bytes, then
	// its text.
	base := len(dst)
	for _, r := range res.Rows {
		for i, v := range r {
			n := 0
			if str, ok := v.(string); ok {
				n = len(str)
			} else {
				at := len(dst)
				dst = appendCell(append(dst, 0, 0, 0, 0), v)
				n = len(dst) - at - 4
				binary.LittleEndian.PutUint32(dst[at:], uint32(n))
			}
			widths[i] = max(widths[i], n)
		}
	}
	table, next := len(dst), base
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
			n := 0
			if str, ok := v.(string); ok {
				n = len(str)
				dst = append(dst, str...)
			} else {
				n = int(binary.LittleEndian.Uint32(dst[next:]))
				next += 4
				dst = append(dst, dst[next:next+n]...)
				next += n
			}
			dst = appendPad(dst, widths[i]-n, ' ')
		}
		dst = append(dst, '\n')
	}
	dst = append(dst, '(')
	dst = strconv.AppendInt(dst, int64(len(res.Rows)), 10)
	dst = append(dst, " rows)\n"...)
	return dst[:base+copy(dst[base:], dst[table:])]
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
		return appendFloat(dst, x)
	case string:
		return append(dst, x...)
	}
	return fmt.Append(dst, v)
}

// pow10 holds the powers of ten float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// appendFloat appends x as strconv.AppendFloat(dst, x, 'g', -1, 64)
// does, faster where it can. For 1e-4 <= |x| < 1e6 strconv writes the
// shortest decimal that reads back as x, without an exponent: m/10^k for
// the least k at which some integer m does. m is found directly. The
// integers that read back at k, m/10^k rounding to |x|, are a run around
// the exact |x|·10^k, which its computed product p, below 2^52 and
// rounded once, leaves within 1/4, and round(p) within 3/4. So when none
// of round(p)-1, round(p), round(p)+1 reads back, no integer does; when
// exactly one does and neither round(p)±2 does, it is the only one. Each
// is tried as one division, correctly rounded, of an exact integer by an
// exact power of ten. Anything else is left to strconv.
func appendFloat(dst []byte, x float64) []byte {
	a := math.Abs(x)
	if a >= 1e-4 && a < 1e6 {
		for k := range pow10 {
			p := pow10[k]
			ap := a * p
			if ap >= 1<<52 {
				break
			}
			m, hits := math.Round(ap), 0
			// An integer that reads back lies within ap·2^-51 of ap, and m
			// is the nearest to ap.
			if math.Abs(ap-m) > ap*0x1p-50 {
				continue
			}
			var found float64
			for _, c := range [...]float64{m - 1, m, m + 1} {
				if c/p == a {
					found, hits = c, hits+1
				}
			}
			if hits == 1 && (m-2)/p != a && (m+2)/p != a {
				return appendDecimal(dst, x < 0, uint64(found), k)
			}
			if hits > 0 {
				break
			}
		}
	}
	return strconv.AppendFloat(dst, x, 'g', -1, 64)
}

// appendDecimal appends m/10^k, negated when neg, with its point k
// digits from the right and a 0 before a point with nothing before it.
func appendDecimal(dst []byte, neg bool, m uint64, k int) []byte {
	var buf [32]byte
	i := len(buf)
	for j := 0; j <= k || m > 0; j++ {
		if j == k && k > 0 {
			i--
			buf[i] = '.'
		}
		i--
		buf[i] = byte('0' + m%10)
		m /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return append(dst, buf[i:]...)
}

package aisql

import (
	"context"
	"strings"
	"time"

	"aidb/internal/cardest"
	"aidb/internal/catalog"
	"aidb/internal/exec"
	"aidb/internal/obs"
	"aidb/internal/plan"
	"aidb/internal/sql"
)

// explainAnalyze is the EXPLAIN ANALYZE <select|update|delete> path: it
// plans the statement with the query path's own buildPlan, executes it
// (an UPDATE or DELETE really changes the table) with a
// per-operator QueryProfile attached, and returns one result row per
// operator with the optimizer's estimate next to the measured truth.
// Side effects beyond the result table:
//
//   - the profile tree is grafted under the exec span as op:* child
//     spans, so \trace shows per-operator timings;
//   - every operator's (estimated, actual) cardinality pair is recorded
//     on e.Feedback, feeding the learned-estimator feedback loop;
//   - the slow-query log entry carries the full profile summary and any
//     chaos faults that fired during the run.
func (e *Engine) explainAnalyze(ctx context.Context, s sql.Statement, sp *obs.Span, text string) (*exec.Result, error) {
	start := time.Now()
	kind := "EXPLAIN ANALYZE " + sql.StatementKind(s)
	chaosBefore := e.Chaos.FireCounts()
	psp := sp.Child("plan")
	p, err := e.buildPlan(s)
	psp.Finish()
	if err != nil {
		return nil, err
	}
	prof := exec.NewQueryProfile(p, plan.HistogramEstimator{})
	esp := sp.Child("exec")
	ex := exec.New(e.funcs())
	ex.Chaos = e.Chaos
	ex.Obs = e.execObs
	ex.Parallelism = e.Parallelism
	ex.Profile = prof
	res, err := ex.RunContext(ctx, p)
	prof.AttachSpans(esp)
	esp.Finish()
	if err != nil {
		e.recordFailure(text, kind, plan.Fingerprint(p), time.Since(start), err)
		return nil, err
	}
	latency := time.Since(start)

	out := &exec.Result{Columns: []string{
		"operator", "est_rows", "actual_rows", "time_us", "morsels", "workers", "util", "chunks", "peak_bytes",
	}}
	prof.Walk(func(op *exec.OpProfile, depth int) {
		e.Feedback.Record(cardest.ObservedCardinality{
			Op:     op.Op,
			Est:    op.EstRows,
			Actual: float64(op.ActualRows()),
		})
		out.Rows = append(out.Rows, catalog.Row{
			strings.Repeat("  ", depth) + op.Op,
			int64(op.EstRows + 0.5),
			op.ActualRows(),
			float64(op.Wall().Microseconds()),
			op.Morsels(),
			op.WorkerSpawns(),
			op.Utilization(),
			op.Chunks(),
			op.PeakBytes(),
		})
	})
	e.recordSlow(text, kind, plan.Fingerprint(p), latency, res, prof.Summary(), chaosBefore)
	return out, nil
}

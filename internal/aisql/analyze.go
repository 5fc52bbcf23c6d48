package aisql

import (
	"context"
	"strings"
	"time"

	"aidb/internal/catalog"
	"aidb/internal/exec"
	"aidb/internal/obs"
	"aidb/internal/plan"
	"aidb/internal/plancache"
)

// explainAnalyze is the EXPLAIN ANALYZE <select|update|delete> path: it
// executes the statement's own plan-cache entry (an UPDATE or DELETE
// really changes the table), params bound as the statement would bind
// them, with a per-operator QueryProfile attached, and returns one
// result row per operator with the optimizer's estimate — for those
// params — next to the measured truth.
// Side effects beyond the result table:
//
//   - the profile tree is grafted under the exec span as op:* child
//     spans, so \trace shows per-operator timings;
//   - every operator's (estimated, actual) cardinality pair is recorded
//     on e.Feedback, feeding the learned-estimator feedback loop;
//   - the run is recorded as a call of the statement it profiles.
func (e *Engine) explainAnalyze(ctx context.Context, ent *plancache.Entry, sp *obs.Span, text string, params []catalog.Value) (*exec.Result, error) {
	start := time.Now()
	prof := exec.NewQueryProfile(ent.Plan, plan.HistogramEstimator{Params: params})
	esp := sp.Child("exec")
	a := e.args(params)
	a.Profile = prof
	res, err := e.ex.RunCompiled(ctx, ent.Plan, nil, a)
	prof.AttachSpans(esp)
	esp.Finish()
	if err != nil {
		e.record(ent, text, start, time.Since(start), nil, err)
		return nil, err
	}
	latency := time.Since(start)

	out := &exec.Result{Columns: []string{
		"operator", "est_rows", "actual_rows", "time_us", "morsels", "workers", "util", "chunks", "peak_bytes", "pages", "pages_pruned",
	}}
	prof.Walk(func(op *exec.OpProfile, depth int) {
		e.Feedback.Record(ObservedCardinality{
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
			op.PagesRead(),
			op.PagesPruned(),
		})
	})
	e.record(ent, text, start, latency, res, nil)
	return out, nil
}

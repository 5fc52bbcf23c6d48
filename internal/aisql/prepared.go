package aisql

import (
	"context"
	"fmt"
	"sync"
	"time"

	"aidb/internal/catalog"
	"aidb/internal/exec"
	"aidb/internal/plan"
	"aidb/internal/plancache"
	"aidb/internal/sql"
)

// Prepared is one prepared statement: parsed once at PREPARE time,
// planned once (SELECT, UPDATE, DELETE), then executed any number of
// times with per-call parameter bindings. Plans live in the engine's
// shared plan cache keyed by the statement's canonical deparse, so every
// session that prepares the same statement executes the same compiled
// plan, and invalidation (DDL, ANALYZE, estimator retrain) transparently
// forces a replan from the retained AST on the next EXECUTE.
type Prepared struct {
	Name      string
	Kind      string // SELECT, INSERT, UPDATE, DELETE
	NumParams int

	stmt sql.Statement // PREDICTs rewritten
	key  string        // plan-cache key ("stmt:" + Deparse); "" for INSERT

	// mu serializes replans so concurrent EXECUTEs after an invalidation
	// plan once, not once per caller.
	mu     sync.Mutex
	fp     string
	planNs int64
}

// Fingerprint reports the plan fingerprint of the prepared statement
// ("" for INSERT, which has no plan tree).
func (p *Prepared) Fingerprint() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fp
}

// PlanNs reports what the most recent planning of this statement cost —
// the work every subsequent EXECUTE skips.
func (p *Prepared) PlanNs() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.planNs
}

// Prepare compiles a parsed statement into a Prepared handle. SELECT,
// UPDATE and DELETE are planned immediately (surfacing unknown
// table/column errors at PREPARE time, like PostgreSQL) and published
// to the plan cache; INSERT is held as an AST and evaluated with bound
// parameters at execute time. Other statement kinds are not preparable.
func (e *Engine) Prepare(name string, stmt sql.Statement) (*Prepared, error) {
	prep := &Prepared{
		Name:      name,
		Kind:      sql.StatementKind(stmt),
		NumParams: sql.CountParams(stmt),
		stmt:      stmt,
	}
	switch stmt.(type) {
	case *sql.SelectStmt, *sql.UpdateStmt, *sql.DeleteStmt:
		// Rewrite PREDICT() model refs once, up front: the key is the
		// rewritten text, and replans reuse the AST without further
		// mutation, so a cached plan can execute concurrently with a
		// replan of the same statement.
		rewritePredicts(stmt)
		prep.key = "stmt:" + sql.Deparse(stmt)
		if _, _, err := e.preparedPlan(prep); err != nil {
			return nil, err
		}
	case *sql.InsertStmt:
		// No plan tree; parsing once is the whole saving.
	default:
		return nil, fmt.Errorf("aisql: cannot PREPARE %s (only SELECT, INSERT, UPDATE, DELETE)", prep.Kind)
	}
	return prep, nil
}

// preparedPlan returns prep's compiled plan, consulting the shared
// cache first and replanning from the retained AST after an
// invalidation or eviction. Cache-less engines replan on every
// execute — still parse-free, and never stale.
func (e *Engine) preparedPlan(prep *Prepared) (plan.Node, string, error) {
	if e.Plans != nil {
		if ent := e.Plans.Lookup(prep.key); ent != nil {
			return ent.Plan, ent.Fingerprint, nil
		}
	}
	prep.mu.Lock()
	defer prep.mu.Unlock()
	start := time.Now()
	p, err := e.buildPlan(prep.stmt)
	if err != nil {
		return nil, "", err
	}
	prep.planNs = time.Since(start).Nanoseconds()
	prep.fp = plan.Fingerprint(p)
	if e.Plans != nil {
		e.Plans.Put(&plancache.Entry{
			Key:         prep.key,
			Fingerprint: prep.fp,
			Plan:        p,
			NumParams:   prep.NumParams,
			PlanNs:      prep.planNs,
		})
	}
	return p, prep.fp, nil
}

// ExecutePrepared runs a prepared statement with args bound to its $N
// placeholders ($1 = args[0]). SELECT, UPDATE and DELETE execute the
// cached plan without touching the parser, planner or estimator; INSERT
// evaluates the retained AST with the bindings in scope.
func (e *Engine) ExecutePrepared(ctx context.Context, prep *Prepared, args []catalog.Value) (*exec.Result, error) {
	sp := e.tracer.Start("query")
	defer sp.Finish()
	sp.SetTag("stmt", "EXECUTE")
	e.stmts.Inc()
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			e.execObs.CancelRequests.Inc()
			return nil, err
		}
	}
	if len(args) != prep.NumParams {
		return nil, fmt.Errorf("aisql: prepared statement %q wants %d parameters, got %d", prep.Name, prep.NumParams, len(args))
	}
	if ins, ok := prep.stmt.(*sql.InsertStmt); ok {
		return e.insert(ins, args)
	}
	p, fp, err := e.preparedPlan(prep)
	if err != nil {
		return nil, err
	}
	return e.execPlan(ctx, p, prep.Kind, fp, sp, "EXECUTE "+prep.Name, args)
}

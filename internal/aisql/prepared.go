package aisql

import (
	"context"
	"fmt"
	"sync/atomic"

	"aidb/internal/catalog"
	"aidb/internal/exec"
	"aidb/internal/obs"
	"aidb/internal/plancache"
	"aidb/internal/sql"
)

// Prepared is one prepared statement: parsed once at PREPARE time,
// planned once (SELECT, UPDATE, DELETE), then executed any number of
// times with per-call parameter bindings. Its plan lives in the shared
// plan cache under the key an ad-hoc statement of that text gets, so
// every session that prepares or just sends the statement runs one plan,
// and invalidation (DDL, ANALYZE, estimator retrain) forces a replan
// from the retained AST on the next EXECUTE.
type Prepared struct {
	Name      string
	Kind      string // SELECT, INSERT, UPDATE, DELETE
	NumParams int    // the $N the client binds on EXECUTE

	stmt sql.Statement // as planned; INSERT is evaluated from it
	key  string        // plan-cache key; "" for INSERT
	// consts are the literals sql.Normalize took out of a body that
	// spells no $N of its own: the plan's parameters on every EXECUTE.
	consts []catalog.Value
	text   string // "EXECUTE <name>", what executions are logged as
	last   atomic.Pointer[plancache.Entry]
}

// Fingerprint reports the fingerprint of the plan the statement last ran
// or was prepared with ("" for INSERT, which has no plan tree).
func (p *Prepared) Fingerprint() string {
	if ent := p.last.Load(); ent != nil {
		return ent.Fingerprint
	}
	return ""
}

// plan returns the statement's current plan. A replan walks the retained
// AST while plans built from it may be executing: safe, since planning
// only reads it (rewritePredicts writes nothing on a second pass).
func (p *Prepared) plan(e *Engine, sp *obs.Span, params []catalog.Value) (*plancache.Entry, error) {
	ent, err := e.planFor(sp, p.key, params, func() (sql.Statement, error) { return p.stmt, nil })
	if err == nil && p.last.Load() != ent {
		p.last.Store(ent)
	}
	return ent, err
}

// PrepareText compiles the client's PREPARE name AS <statement> into a
// handle: one lexer pass, one key (sql.Normalize), and for SELECT, UPDATE
// and DELETE the plan that key names — the cached one when any session
// has sent the same text, ad hoc or prepared; otherwise built now, so
// unknown tables and columns fail at PREPARE, like PostgreSQL. INSERT is
// held as an AST and evaluated with bound parameters at execute time.
func (e *Engine) PrepareText(query string) (*Prepared, error) {
	toks, key, consts, err := e.lex(nil, query)
	if err != nil {
		return nil, err
	}
	stmt, err := e.parse(nil, toks, query)
	if err != nil {
		return nil, err
	}
	ps, ok := stmt.(*sql.PrepareStmt)
	if !ok {
		return nil, fmt.Errorf("aisql: not a PREPARE statement: %s", sql.StatementKind(stmt))
	}
	return e.prepare(ps.Name, ps.Stmt, key, consts)
}

// Prepare is PrepareText for a caller that holds the statement as an AST
// and no text: the key is the AST's canonical text (sql.Deparse) and its
// literals stay in the plan, so such a handle shares its entry with
// other handles of the same AST but not with ad-hoc text.
func (e *Engine) Prepare(name string, stmt sql.Statement) (*Prepared, error) {
	return e.prepare(name, stmt, sql.Deparse(stmt), nil)
}

func (e *Engine) prepare(name string, stmt sql.Statement, key string, consts []catalog.Value) (*Prepared, error) {
	prep := &Prepared{Name: name, Kind: sql.StatementKind(stmt), stmt: stmt, key: key, consts: consts, text: "EXECUTE " + name}
	if consts == nil { // otherwise the $N in stmt are Normalize's, not the client's
		prep.NumParams = sql.CountParams(stmt)
	}
	switch stmt.(type) {
	case *sql.SelectStmt, *sql.UpdateStmt, *sql.DeleteStmt:
		if _, err := prep.plan(e, nil, consts); err != nil {
			return nil, err
		}
	case *sql.InsertStmt:
		// No plan tree; parsing once is the whole saving.
	default:
		return nil, fmt.Errorf("aisql: cannot PREPARE %s (only SELECT, INSERT, UPDATE, DELETE)", prep.Kind)
	}
	return prep, nil
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
	if err := e.cancelled(ctx); err != nil {
		return nil, err
	}
	if len(args) != prep.NumParams {
		return nil, fmt.Errorf("aisql: prepared statement %q wants %d parameters, got %d", prep.Name, prep.NumParams, len(args))
	}
	if ins, ok := prep.stmt.(*sql.InsertStmt); ok {
		return e.insert(ins, args)
	}
	if prep.consts != nil {
		args = prep.consts
	}
	ent, err := prep.plan(e, sp, args)
	if err != nil {
		return nil, err
	}
	return e.execPlan(ctx, ent, prep.Kind, sp, prep.text, args)
}

package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"aidb/internal/aisql"
	"aidb/internal/catalog"
	"aidb/internal/exec"
	"aidb/internal/sql"
)

// Session is one client's stateful view of the database: a private
// prepared-statement namespace and transaction state, in front of the
// shared engine and plan cache. Sessions are cheap — create one per
// connection — and every statement they run passes the same
// governance plane (admission gate, the database's timeout) as
// DB.ExecContext. Like database/sql's Conn, a single Session is not
// safe for concurrent use by multiple goroutines; distinct sessions
// are, and prepared SELECT plans are shared between them through the
// plan cache.
type Session struct {
	db *DB

	mu       sync.Mutex
	prepared map[string]*aisql.Prepared
	inTxn    bool
	txnStmts int // statements run inside the open transaction
	closed   bool
}

// NewSession opens a session over this database.
func (db *DB) NewSession() *Session {
	return &Session{db: db, prepared: map[string]*aisql.Prepared{}}
}

// Prepared lists the session's prepared-statement names, sorted.
func (s *Session) Prepared() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.prepared))
	for n := range s.prepared {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// InTxn reports whether a transaction block is open.
func (s *Session) InTxn() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inTxn
}

// Close deallocates every prepared statement and marks the session
// unusable. Idempotent.
func (s *Session) Close() {
	s.mu.Lock()
	s.prepared = map[string]*aisql.Prepared{}
	s.closed = true
	s.mu.Unlock()
}

// Exec runs one statement without external cancellation.
func (s *Session) Exec(query string) (*exec.Result, error) {
	return s.ExecContext(context.Background(), query)
}

// sessionKeyword returns the first word of query, upper-cased, when it
// is one of the six statement heads the session handles itself, and ""
// for everything else — which goes to the engine's text path untouched.
func sessionKeyword(query string) string {
	query = strings.TrimLeft(query, " \t\r\n")
	end := 0
	for end < len(query) && query[end]|0x20 >= 'a' && query[end]|0x20 <= 'z' {
		end++
	}
	for _, kw := range [...]string{"PREPARE", "EXECUTE", "DEALLOCATE", "BEGIN", "COMMIT", "ROLLBACK"} {
		if strings.EqualFold(query[:end], kw) {
			return kw
		}
	}
	return ""
}

// ExecContext runs one statement under ctx. Session statements
// (PREPARE, EXECUTE, DEALLOCATE, BEGIN, COMMIT, ROLLBACK) resolve
// against this session's state; everything else flows through the
// shared engine exactly like DB.ExecContext, including the admission
// gate and the plan cache. EXECUTE passes the gate too — a prepared
// statement is still one unit of admitted work.
func (s *Session) ExecContext(ctx context.Context, query string) (*exec.Result, error) {
	kw := sessionKeyword(query)
	s.mu.Lock()
	closed := s.closed
	if !closed && kw == "" {
		s.noteTxnWorkLocked()
	}
	s.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("core: session is closed")
	}
	switch kw {
	case "":
		return s.db.ExecContext(ctx, query)
	case "PREPARE":
		return s.handlePrepare(ctx, query)
	case "EXECUTE":
		// Literal arguments are read off the tokens; anything else is the
		// parser's, and so is any error.
		if f, err := sql.ReadFront(query); err == nil {
			defer f.Release()
			if name, args, ok := f.ExecuteArgs(); ok {
				prep, err := s.toExecute(name)
				if err != nil {
					return nil, err
				}
				return s.execute(ctx, query, prep, args)
			}
		}
	}
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	return s.execSessionStmt(ctx, query, stmt)
}

// noteTxnWorkLocked counts one data statement inside an open
// transaction block (session-control statements are not counted — a
// clean BEGIN; ROLLBACK pair succeeds). Caller holds mu.
func (s *Session) noteTxnWorkLocked() {
	if s.inTxn {
		s.txnStmts++
	}
}

// ExecScript runs a ';'-separated script statement by statement through
// ExecContext (aisql.RunScript), returning the last result, so session
// statements (PREPARE ... AS SELECT ...; EXECUTE ...) route through the
// session state they depend on.
func (s *Session) ExecScript(ctx context.Context, script string) (*exec.Result, error) {
	return aisql.RunScript(script, func(text string) (*exec.Result, error) {
		return s.ExecContext(ctx, text)
	})
}

func (s *Session) execSessionStmt(ctx context.Context, query string, stmt sql.Statement) (*exec.Result, error) {
	switch v := stmt.(type) {
	case *sql.ExecStmt:
		return s.handleExecute(ctx, query, v)
	case *sql.DeallocateStmt:
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, ok := s.prepared[v.Name]; !ok {
			return nil, fmt.Errorf("core: prepared statement %q does not exist", v.Name)
		}
		delete(s.prepared, v.Name)
		return &exec.Result{}, nil
	case *sql.BeginStmt:
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.inTxn {
			return nil, fmt.Errorf("core: a transaction is already in progress")
		}
		s.inTxn = true
		s.txnStmts = 0
		return &exec.Result{}, nil
	case *sql.CommitStmt:
		s.mu.Lock()
		defer s.mu.Unlock()
		if !s.inTxn {
			return nil, fmt.Errorf("core: no transaction is in progress")
		}
		s.inTxn = false
		return &exec.Result{}, nil
	case *sql.RollbackStmt:
		s.mu.Lock()
		defer s.mu.Unlock()
		if !s.inTxn {
			return nil, fmt.Errorf("core: no transaction is in progress")
		}
		dirty := s.txnStmts > 0
		s.inTxn = false
		if dirty {
			// Statements auto-commit as they run; there is no undo log to
			// rewind. Surface that honestly instead of pretending.
			return nil, fmt.Errorf("core: ROLLBACK cannot undo %d already-applied statement(s); transactions are bracket-only", s.txnStmts)
		}
		return &exec.Result{}, nil
	default:
		return nil, fmt.Errorf("core: unexpected session statement %T", stmt)
	}
}

// handlePrepare hands the PREPARE text to the engine (under governance —
// plan construction is admitted work) and binds the handle it returns
// into the session's namespace.
func (s *Session) handlePrepare(ctx context.Context, query string) (*exec.Result, error) {
	var prep *aisql.Prepared
	_, err := s.db.govern(ctx, query, func(context.Context) (*exec.Result, error) {
		var perr error
		prep, perr = s.db.engine.PrepareText(query)
		return &exec.Result{}, perr
	})
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.prepared[prep.Name]; exists {
		return nil, fmt.Errorf("core: prepared statement %q already exists", prep.Name)
	}
	s.prepared[prep.Name] = prep
	return &exec.Result{}, nil
}

// handleExecute evaluates the arguments of an EXECUTE the parser read
// (constant expressions) and runs it.
func (s *Session) handleExecute(ctx context.Context, query string, v *sql.ExecStmt) (*exec.Result, error) {
	prep, err := s.toExecute(v.Name)
	if err != nil {
		return nil, err
	}
	args := make([]catalog.Value, len(v.Args))
	scope := exec.NewScope(nil)
	for i, a := range v.Args {
		val, err := exec.Eval(a, scope, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("core: EXECUTE argument %d: %w", i+1, err)
		}
		args[i] = val
	}
	return s.execute(ctx, query, prep, args)
}

// toExecute finds the prepared statement an EXECUTE names and counts
// the EXECUTE as work of an open transaction.
func (s *Session) toExecute(name string) (*aisql.Prepared, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prep, ok := s.prepared[name]
	if !ok {
		return nil, fmt.Errorf("core: prepared statement %q does not exist", name)
	}
	s.noteTxnWorkLocked()
	return prep, nil
}

// execute runs prep with args bound to its $N through the governance
// plane.
func (s *Session) execute(ctx context.Context, query string, prep *aisql.Prepared, args []catalog.Value) (*exec.Result, error) {
	return s.db.govern(ctx, query, func(ctx context.Context) (*exec.Result, error) {
		return s.db.engine.ExecutePrepared(ctx, prep, args)
	})
}

package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"aidb/internal/aisql"
	"aidb/internal/catalog"
	"aidb/internal/exec"
	"aidb/internal/sql"
)

// Session is one client's stateful view of the database: a private
// prepared-statement namespace, per-session settings, and transaction
// state, in front of the shared engine and plan cache. Sessions are
// cheap — create one per connection — and every statement they run
// passes the same governance plane (admission gate, timeouts) as
// DB.ExecContext. Like database/sql's Conn, a single Session is not
// safe for concurrent use by multiple goroutines; distinct sessions
// are, and prepared SELECT plans are shared between them through the
// plan cache.
type Session struct {
	db *DB

	mu       sync.Mutex
	prepared map[string]*aisql.Prepared
	timeout  time.Duration // per-session override; 0 inherits the DB default
	inTxn    bool
	txnStmts int // statements run inside the open transaction
	closed   bool
}

// NewSession opens a session over this database.
func (db *DB) NewSession() *Session {
	return &Session{db: db, prepared: map[string]*aisql.Prepared{}}
}

// SetTimeout sets this session's statement timeout, overriding the
// database default when positive. Zero restores inheritance.
func (s *Session) SetTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	s.timeout = d
	s.mu.Unlock()
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
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("core: session is closed")
	}
	timeout := s.timeout
	s.mu.Unlock()
	if timeout > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
	}
	switch sessionKeyword(query) {
	case "":
		s.noteTxnWork()
		return s.db.ExecContext(ctx, query)
	case "PREPARE":
		return s.handlePrepare(ctx, query)
	}
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	return s.execSessionStmt(ctx, query, stmt)
}

// noteTxnWork counts one data statement inside an open transaction
// block (session-control statements are not counted — a clean
// BEGIN; ROLLBACK pair succeeds).
func (s *Session) noteTxnWork() {
	s.mu.Lock()
	if s.inTxn {
		s.txnStmts++
	}
	s.mu.Unlock()
}

// ExecScript runs a ';'-separated script statement by statement,
// returning the last result. Splitting happens on raw text so session
// statements (PREPARE ... AS SELECT ...; EXECUTE ...) route through
// the session state they depend on.
func (s *Session) ExecScript(ctx context.Context, script string) (*exec.Result, error) {
	var last *exec.Result
	var err error
	for piece, rest := sql.SplitStatement(script); piece != ""; piece, rest = sql.SplitStatement(rest) {
		last, err = s.ExecContext(ctx, piece)
		if err != nil {
			return nil, err
		}
	}
	return last, nil
}

func (s *Session) execSessionStmt(ctx context.Context, query string, stmt sql.Statement) (*exec.Result, error) {
	switch v := stmt.(type) {
	case *sql.ExecuteStmt:
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

// handleExecute binds the EXECUTE arguments (constant expressions) and
// runs the prepared statement through the governance plane.
func (s *Session) handleExecute(ctx context.Context, query string, v *sql.ExecuteStmt) (*exec.Result, error) {
	s.mu.Lock()
	prep, ok := s.prepared[v.Name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: prepared statement %q does not exist", v.Name)
	}
	s.noteTxnWork()
	args := make([]catalog.Value, len(v.Args))
	scope := exec.NewScope(nil)
	for i, a := range v.Args {
		val, err := exec.Eval(a, scope, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("core: EXECUTE argument %d: %w", i+1, err)
		}
		args[i] = val
	}
	return s.db.govern(ctx, query, func(ctx context.Context) (*exec.Result, error) {
		return s.db.engine.ExecutePrepared(ctx, prep, args)
	})
}

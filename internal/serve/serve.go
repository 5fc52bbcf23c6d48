// Package serve is aidb's multi-session front end: a line-oriented TCP
// protocol (one Session per connection, PREPARE/EXECUTE state included)
// and an HTTP query endpoint, both routing every statement through the
// database's governance plane (admission gate, timeouts) and shared
// plan cache. Concurrent sessions are the plan cache's reason to exist:
// the first session to plan a statement pays for it, every other
// session replays the compiled plan.
//
// Wire protocol (newline-framed text):
//
//	client: one statement (or ';'-separated script) per line
//	server: the formatted result (or "ERR <message>"), then a lone "."
//
// "\quit" closes the connection. Empty lines are ignored. A line over
// 1 MiB gets "ERR line too long" and the connection is closed.
package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"aidb/internal/core"
	"aidb/internal/exec"
	"aidb/internal/obs"
)

// Server is a line-protocol front end over one database.
type Server struct {
	db *core.DB
	ln net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	active atomic.Int64

	connsC *obs.Counter
	stmtsC *obs.Counter
}

// Listen starts a line-protocol server on addr (":0" picks a free
// port). Each accepted connection gets its own core.Session; the
// database's admission gate and timeouts govern every statement.
func Listen(db *core.DB, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{db: db, ln: ln, conns: map[net.Conn]struct{}{}}
	if reg := db.Metrics(); reg != nil {
		s.connsC = reg.Counter("serve.connections")
		s.stmtsC = reg.Counter("serve.statements")
		reg.GaugeFunc("serve.sessions_active", func() float64 { return float64(s.active.Load()) })
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr reports the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes every live connection, and waits for
// their handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.connsC.Inc()
		s.wg.Add(1)
		go s.handleConn(c)
	}
}

// maxKeptReply is the largest reply buffer a connection keeps between
// statements.
const maxKeptReply = 1 << 20

func (s *Server) handleConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	s.active.Add(1)
	defer s.active.Add(-1)
	sess := s.db.NewSession()
	defer sess.Close()
	sc := bufio.NewScanner(c)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	// One buffer per connection takes each reply and its terminator and
	// goes to the socket in one write.
	var reply []byte
	for sc.Scan() {
		line := string(bytes.TrimSpace(sc.Bytes()))
		if line == "" {
			continue
		}
		if line == `\quit` {
			return
		}
		s.stmtsC.Inc()
		res, err := sess.ExecScript(context.Background(), line)
		if err != nil {
			reply = append(reply[:0], "ERR "...)
			reply = append(reply, strings.ReplaceAll(err.Error(), "\n", " ")...)
			reply = append(reply, '\n')
		} else {
			reply = core.AppendResult(reply[:0], res)
		}
		reply = append(reply, ".\n"...)
		if _, err := c.Write(reply); err != nil {
			return
		}
		if cap(reply) > maxKeptReply {
			reply = nil // one huge answer should not pin its buffer for the connection's life
		}
	}
	// A line over the scanner's limit ends the loop mid-line, so the
	// framing is lost and the connection must close; say why first.
	// Closing with the rest of the line unread would reset the
	// connection and could cost the client the reply, so send FIN and
	// discard input until the client hangs up.
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		if _, err := io.WriteString(c, "ERR line too long\n.\n"); err != nil {
			return
		}
		if tc, ok := c.(*net.TCPConn); ok && tc.CloseWrite() == nil {
			io.Copy(io.Discard, c)
		}
	}
}

// HTTPHandler builds the HTTP front end: POST /query runs one statement
// (body = SQL) in a fresh session and returns the result as JSON;
// every other path serves the database's telemetry surface (/metrics,
// /slowlog, /traces, ...). HTTP requests are stateless — prepared
// statements do not survive across requests; use the line protocol for
// session state.
func HTTPHandler(db *core.DB) http.Handler {
	mux := http.NewServeMux()
	telemetry := db.Telemetry()
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST a SQL statement to /query", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sess := db.NewSession()
		defer sess.Close()
		res, err := sess.ExecScript(r.Context(), string(body))
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			enc.Encode(map[string]string{"error": err.Error()})
			return
		}
		if res == nil {
			res = &exec.Result{}
		}
		out := map[string]any{"columns": res.Columns, "rows": res.Rows}
		if res.Columns == nil {
			out["columns"] = []string{}
		}
		if res.Rows == nil {
			out["rows"] = [][]any{}
		}
		enc.Encode(out)
	})
	mux.Handle("/", telemetry)
	return mux
}

// ListenHTTP starts the HTTP front end on addr (":0" picks a free
// port), returning the bound listener; callers own its lifetime.
func ListenHTTP(db *core.DB, addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: HTTPHandler(db)}
	go srv.Serve(ln)
	return ln, nil
}

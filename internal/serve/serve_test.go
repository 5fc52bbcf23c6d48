package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"aidb/internal/core"
)

func testDB(t *testing.T) *core.DB {
	t.Helper()
	db := core.OpenSeeded(3)
	script := `CREATE TABLE kv (k INT, v TEXT);
		INSERT INTO kv VALUES (1, 'one'), (2, 'two'), (3, 'three');`
	if _, err := db.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	return db
}

// client is a line-protocol test client: send one line, read until ".".
type client struct {
	c  net.Conn
	r  *bufio.Reader
	tb testing.TB
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &client{c: c, r: bufio.NewReader(c), tb: t}
}

func (cl *client) roundTrip(stmt string) string {
	cl.tb.Helper()
	if _, err := fmt.Fprintf(cl.c, "%s\n", stmt); err != nil {
		cl.tb.Fatal(err)
	}
	var sb strings.Builder
	for {
		cl.c.SetReadDeadline(time.Now().Add(10 * time.Second))
		line, err := cl.r.ReadString('\n')
		if err != nil {
			cl.tb.Fatalf("reading response to %q: %v (so far: %q)", stmt, err, sb.String())
		}
		if line == ".\n" {
			return sb.String()
		}
		sb.WriteString(line)
	}
}

func TestLineProtocolRoundTrip(t *testing.T) {
	db := testDB(t)
	srv, err := Listen(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := dial(t, srv.Addr())
	out := cl.roundTrip("SELECT k, v FROM kv WHERE k <= 2 ORDER BY k")
	if !strings.Contains(out, "one") || !strings.Contains(out, "two") || strings.Contains(out, "three") {
		t.Fatalf("unexpected result:\n%s", out)
	}
	if !strings.Contains(out, "(2 rows)") {
		t.Fatalf("missing row count:\n%s", out)
	}
	if out := cl.roundTrip("SELECT nope FROM kv"); !strings.HasPrefix(out, "ERR ") {
		t.Fatalf("error not signalled: %q", out)
	}
	// The connection survives errors.
	if out := cl.roundTrip("SELECT COUNT(*) FROM kv"); !strings.Contains(out, "3") {
		t.Fatalf("post-error statement: %q", out)
	}
}

// A line over the 1 MiB scanner limit must be answered, not dropped:
// one ERR reply, then the connection closes, and the server keeps
// serving everyone else.
func TestOversizedLineGetsErrReply(t *testing.T) {
	db := testDB(t)
	srv, err := Listen(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	big := dial(t, srv.Addr())
	// Written from a goroutine: the reply comes at the limit, while the
	// tail of the line is still in flight.
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		big.c.Write(append([]byte(strings.Repeat("x", 2<<20)), '\n'))
	}()
	big.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	reply, err := io.ReadAll(big.r)
	if err != nil {
		t.Fatalf("reading reply to oversized line: %v (so far: %q)", err, reply)
	}
	if string(reply) != "ERR line too long\n.\n" {
		t.Fatalf("reply = %q, want one ERR line and the terminator", reply)
	}
	<-wrote
	other := dial(t, srv.Addr())
	if out := other.roundTrip("SELECT v FROM kv WHERE k = 1"); !strings.Contains(out, "one") {
		t.Fatalf("server stopped serving after an oversized line: %q", out)
	}
}

func TestLineProtocolPreparedSession(t *testing.T) {
	db := testDB(t)
	srv, err := Listen(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := dial(t, srv.Addr())
	if out := cl.roundTrip("PREPARE get AS SELECT v FROM kv WHERE k = $1"); strings.HasPrefix(out, "ERR") {
		t.Fatalf("PREPARE failed: %q", out)
	}
	if out := cl.roundTrip("EXECUTE get (2)"); !strings.Contains(out, "two") {
		t.Fatalf("EXECUTE: %q", out)
	}
	// Prepared statements are per-session: a second connection can't see it.
	cl2 := dial(t, srv.Addr())
	if out := cl2.roundTrip("EXECUTE get (2)"); !strings.HasPrefix(out, "ERR ") {
		t.Fatalf("cross-session EXECUTE should fail: %q", out)
	}
	// ...but it can prepare the same statement and share the cached plan.
	if out := cl2.roundTrip("PREPARE get AS SELECT v FROM kv WHERE k = $1"); strings.HasPrefix(out, "ERR") {
		t.Fatalf("second-session PREPARE failed: %q", out)
	}
	if out := cl2.roundTrip("EXECUTE get (3)"); !strings.Contains(out, "three") {
		t.Fatalf("second-session EXECUTE: %q", out)
	}
}

// TestConcurrentConnections hammers the server from many goroutines at
// once (run under -race): every session prepares, executes and reads
// ad-hoc statements against the shared plan cache.
func TestConcurrentConnections(t *testing.T) {
	db := testDB(t)
	srv, err := Listen(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const workers = 8
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			r := bufio.NewReader(c)
			send := func(stmt string) (string, error) {
				if _, err := fmt.Fprintf(c, "%s\n", stmt); err != nil {
					return "", err
				}
				var sb strings.Builder
				for {
					c.SetReadDeadline(time.Now().Add(10 * time.Second))
					line, err := r.ReadString('\n')
					if err != nil {
						return "", err
					}
					if line == ".\n" {
						return sb.String(), nil
					}
					sb.WriteString(line)
				}
			}
			if out, err := send("PREPARE q AS SELECT COUNT(*) FROM kv WHERE k >= $1"); err != nil || strings.HasPrefix(out, "ERR") {
				errCh <- fmt.Errorf("worker %d PREPARE: %v %q", w, err, out)
				return
			}
			for i := 0; i < 25; i++ {
				out, err := send("EXECUTE q (1)")
				if err != nil || !strings.Contains(out, "3") {
					errCh <- fmt.Errorf("worker %d EXECUTE: %v %q", w, err, out)
					return
				}
				out, err = send("SELECT v FROM kv WHERE k = 1")
				if err != nil || !strings.Contains(out, "one") {
					errCh <- fmt.Errorf("worker %d adhoc: %v %q", w, err, out)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if hits := db.Metrics().Snapshot()["plancache.hits"]; hits < float64(workers*25) {
		t.Errorf("plancache.hits = %v, want >= %d (shared across sessions)", hits, workers*25)
	}
}

func TestHTTPQueryEndpoint(t *testing.T) {
	db := testDB(t)
	ln, err := ListenHTTP(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	base := "http://" + ln.Addr().String()
	resp, err := http.Post(base+"/query", "text/plain",
		strings.NewReader("SELECT v FROM kv WHERE k = 2"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "two") {
		t.Fatalf("status %d body %s", resp.StatusCode, body)
	}
	// Errors come back as JSON with status 400.
	resp, err = http.Post(base+"/query", "text/plain", strings.NewReader("SELECT nope FROM kv"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "error") {
		t.Fatalf("error status %d body %s", resp.StatusCode, body)
	}
	// Telemetry surface is mounted alongside /query.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "plancache") {
		t.Fatalf("/metrics missing plancache counters:\n%.400s", body)
	}
}

// A POST /query body over the 1 MiB limit is refused whole: no prefix
// of the script runs, so no statement before the cut applies and no
// statement cut inside a literal runs with the wrong value.
func TestHTTPOversizedBodyRunsNothing(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("CREATE TABLE big (a INT, pad TEXT)"); err != nil {
		t.Fatal(err)
	}
	ln, err := ListenHTTP(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stmt := "INSERT INTO big VALUES (1, '" + strings.Repeat("x", 1000) + "');"
	script := strings.Repeat(stmt, maxRequest/len(stmt)+1)
	resp, err := http.Post("http://"+ln.Addr().String()+"/query", "text/plain", strings.NewReader(script))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d for a %d-byte body, want 413", resp.StatusCode, len(script))
	}
	res, err := db.Exec("SELECT COUNT(*) FROM big")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0]; n != int64(0) {
		t.Fatalf("count(*) = %v after a refused body, want 0", n)
	}
}

// TestTelemetryEndToEnd drives statements over POST /query with the
// sampler running, the way aidb-repl -serve does, and checks the whole
// monitoring plane over the wire: metric exposition, sampled time
// series and traces over HTTP; statements and alerts over SQL, with no
// HTTP copy of either.
func TestTelemetryEndToEnd(t *testing.T) {
	db := testDB(t)
	ln, err := ListenHTTP(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	db.StartTelemetry(0)
	defer db.Close()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 5 * time.Second}
	do := func(method, p, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, base+p, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(out)
	}
	query := func(q string) string {
		t.Helper()
		code, body := do(http.MethodPost, "/query", q)
		if code != http.StatusOK {
			t.Fatalf("POST /query %q: %d %s", q, code, body)
		}
		return body
	}
	get := func(p string) string {
		t.Helper()
		code, body := do(http.MethodGet, p, "")
		if code != http.StatusOK {
			t.Fatalf("GET %s: %d", p, code)
		}
		return body
	}

	query("SELECT COUNT(*) FROM kv WHERE k < 3")
	query("EXPLAIN ANALYZE SELECT v FROM kv WHERE k = 2")
	// Deterministic windows instead of waiting for the 1s ticker.
	db.Series().SampleOnce()
	db.Series().SampleOnce()

	if prom := get("/metrics"); !strings.Contains(prom, "exec_queries") {
		t.Errorf("/metrics missing exec_queries:\n%.400s", prom)
	}
	var idx struct {
		Series  []string `json:"series"`
		Windows uint64   `json:"windows"`
	}
	if err := json.Unmarshal([]byte(get("/timeseries")), &idx); err != nil {
		t.Fatal(err)
	}
	if idx.Windows < 2 || !slices.Contains(idx.Series, "exec.queries") {
		t.Errorf("/timeseries = %d windows over %v, want >= 2 with exec.queries", idx.Windows, idx.Series)
	}
	if traces := get("/traces"); !strings.Contains(traces, `"name": "query"`) {
		t.Errorf("/traces missing exported query span:\n%.400s", traces)
	}
	for _, p := range []string{"/slowlog", "/statements", "/alerts"} {
		if code, _ := do(http.MethodGet, p, ""); code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404: system.* serves it", p, code)
		}
	}
	if stmts := query("SELECT query, calls FROM system.statements WHERE fingerprint = 'Project(Filter(Scan(kv)))'"); !strings.Contains(stmts, `"EXPLAIN ANALYZE SELECT v FROM kv WHERE k = 2",1`) {
		t.Errorf("system.statements missing the profiled statement:\n%s", stmts)
	}
	if alerts := query("SELECT COUNT(*) FROM system.alerts"); !strings.Contains(alerts, "[[0]]") {
		t.Errorf("system.alerts on a healthy run = %s, want no rows", alerts)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db.Series().Running() {
		t.Error("sampler still running after Close")
	}
}

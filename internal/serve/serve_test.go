package serve

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
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

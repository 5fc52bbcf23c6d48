// Command aidb-repl is an interactive SQL/AISQL shell over an in-memory
// aidb instance. Statements end with ';'. Besides standard SQL it
// supports the DB4AI extension:
//
//	CREATE MODEL m PREDICT label ON t FEATURES (a, b) WITH (kind='logistic');
//	SELECT a, PREDICT(m, a, b) FROM t;
//	EVALUATE MODEL m ON t;
//
// Type \q to quit, \h for help. With -serve ADDR the shell also runs
// the telemetry sampler and serves aidb-serve's HTTP front end (POST
// /query, metrics, time series, traces, pprof) while it runs.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"aidb/internal/core"
	"aidb/internal/serve"
)

const help = `Statements end with ';'. Supported:
  CREATE TABLE t (a INT, b FLOAT, c TEXT);   INSERT INTO t VALUES (...);
  SELECT ... FROM t [JOIN u ON ...] [WHERE ...] [GROUP BY ...] [ORDER BY ...] [LIMIT n];
  UPDATE / DELETE / DROP TABLE / ANALYZE t / EXPLAIN SELECT ... / SHOW TABLES;
  PREPARE p AS SELECT ... WHERE a = $1;  EXECUTE p (42);  DEALLOCATE p;
  BEGIN; ... COMMIT;   (\prepared lists this session's prepared statements)
  CREATE MODEL m PREDICT label ON t [FEATURES (...)] [WITH (kind='logistic'|'linear'|'tree', epochs=N)];
  SELECT PREDICT(m, f1, f2) FROM t;  EVALUATE MODEL m ON t;  SHOW MODELS;  DROP MODEL m;
  EXPLAIN ANALYZE SELECT ...;   per-operator est vs actual rows, time, morsel/worker counts
Meta: \q quit, \h help, \prepared list prepared statements,
      \trace last query's span tree,
      \sys list system.* tables; \sys NAME shorthand for SELECT * FROM system.NAME
      (\sys metrics live metrics, \sys alerts KPI anomaly alerts: the sampler runs when -serve is set),
      \sys statements top statements by total latency (the statement statistics store),
      \parallel [n] show or set the morsel worker budget (0 auto, 1 serial),
      \timeout [dur] show or set the default statement timeout (e.g. 500ms; 0 none),
      \maxconcurrent [n] show or set the admission-gate concurrency bound (0 unlimited),
      \maxmem [bytes] show or set the per-query memory budget (0 unlimited).`

func main() {
	httpAddr := flag.String("serve", "", "serve the HTTP front end (POST /query, telemetry) on this address (e.g. :8080)")
	flag.Parse()
	db := core.Open()
	// The shell is one session: prepared statements and transaction
	// brackets live here, everything else flows through to the engine.
	sess := db.NewSession()
	defer sess.Close()
	if *httpAddr != "" {
		ln, err := serve.ListenHTTP(db, *httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		defer ln.Close()
		db.StartTelemetry(0)
		defer db.Close()
		fmt.Printf("telemetry: http://%s/\n", ln.Addr())
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	fmt.Println("aidb — AI meets database. \\h for help.")
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("aidb> ")
		} else {
			fmt.Print("  ... ")
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch trimmed {
		case `\q`, `\quit`, "exit":
			return
		case `\h`, `\help`:
			fmt.Println(help)
			prompt()
			continue
		case `\trace`:
			if tr := db.LastTrace(); tr != "" {
				fmt.Print(tr)
			} else {
				fmt.Println("no query traced yet")
			}
			prompt()
			continue
		case `\prepared`:
			names := sess.Prepared()
			if len(names) == 0 {
				fmt.Println("no prepared statements (PREPARE name AS SELECT ...)")
			}
			for _, n := range names {
				fmt.Println("  " + n)
			}
			prompt()
			continue
		}
		if rest, ok := strings.CutPrefix(trimmed, `\sys`); ok {
			rest = strings.TrimSpace(rest)
			var query string
			switch rest {
			case "":
				fmt.Println("system tables (query with SELECT ... FROM system.NAME):")
				for _, n := range db.SystemTables() {
					fmt.Println("  " + n)
				}
				prompt()
				continue
			case "statements":
				query = "SELECT query, calls, rows, total_ns, p95_ns, max_ns, chaos_fires FROM system.statements ORDER BY total_ns DESC LIMIT 20"
			default:
				query = "SELECT * FROM system." + rest + " LIMIT 50"
			}
			if res, err := db.Exec(query); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Print(core.Format(res))
			}
			prompt()
			continue
		}
		if rest, ok := strings.CutPrefix(trimmed, `\parallel`); ok {
			rest = strings.TrimSpace(rest)
			if rest == "" {
				fmt.Printf("parallelism: %d (0 = auto: up to NumCPU, idle cores only; 1 = serial)\n", db.Parallelism())
			} else if n, err := strconv.Atoi(rest); err != nil || n < 0 {
				fmt.Println("usage: \\parallel [n]  (n >= 0; 0 auto, 1 serial)")
			} else {
				db.SetParallelism(n)
				fmt.Printf("parallelism set to %d\n", n)
			}
			prompt()
			continue
		}
		if rest, ok := strings.CutPrefix(trimmed, `\timeout`); ok {
			rest = strings.TrimSpace(rest)
			if rest == "" {
				if d := db.Timeout(); d > 0 {
					fmt.Printf("timeout: %v\n", d)
				} else {
					fmt.Println("timeout: none")
				}
			} else if d, err := time.ParseDuration(rest); err != nil || d < 0 {
				fmt.Println("usage: \\timeout [duration]  (e.g. 500ms, 2s; 0 disables)")
			} else {
				db.SetTimeout(d)
				if d > 0 {
					fmt.Printf("timeout set to %v\n", d)
				} else {
					fmt.Println("timeout disabled")
				}
			}
			prompt()
			continue
		}
		if rest, ok := strings.CutPrefix(trimmed, `\maxconcurrent`); ok {
			rest = strings.TrimSpace(rest)
			if rest == "" {
				if n := db.MaxConcurrent(); n > 0 {
					fmt.Printf("max concurrent statements: %d\n", n)
				} else {
					fmt.Println("max concurrent statements: unlimited")
				}
			} else if n, err := strconv.Atoi(rest); err != nil || n < 0 {
				fmt.Println("usage: \\maxconcurrent [n]  (n >= 0; 0 unlimited)")
			} else {
				db.SetMaxConcurrent(n)
				if n > 0 {
					fmt.Printf("max concurrent statements set to %d\n", n)
				} else {
					fmt.Println("admission bound removed")
				}
			}
			prompt()
			continue
		}
		if rest, ok := strings.CutPrefix(trimmed, `\maxmem`); ok {
			rest = strings.TrimSpace(rest)
			if rest == "" {
				if b := db.MemBudget(); b > 0 {
					fmt.Printf("per-query memory budget: %d bytes\n", b)
				} else {
					fmt.Println("per-query memory budget: unlimited")
				}
			} else if b, err := strconv.ParseInt(rest, 10, 64); err != nil || b < 0 {
				fmt.Println("usage: \\maxmem [bytes]  (0 unlimited)")
			} else {
				db.SetMemBudget(b)
				if b > 0 {
					fmt.Printf("per-query memory budget set to %d bytes\n", b)
				} else {
					fmt.Println("per-query memory budget removed")
				}
			}
			prompt()
			continue
		}
		if strings.HasPrefix(trimmed, `\`) {
			fmt.Printf("unknown command %s (\\h for help; statements, metrics and alerts are \\sys tables)\n", trimmed)
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			prompt()
			continue
		}
		stmt := buf.String()
		buf.Reset()
		res, err := sess.ExecScript(context.Background(), stmt)
		if err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Print(core.Format(res))
		}
		prompt()
	}
}

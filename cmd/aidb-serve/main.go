// Command aidb-serve runs aidb as a multi-session server: a
// line-oriented TCP protocol (one session per connection, with
// PREPARE/EXECUTE support) and an HTTP endpoint (POST /query plus
// /metrics, /timeseries, /traces and pprof). All sessions share one plan cache and
// pass the admission gate, so repeated statements from any client skip
// parse/plan/optimize entirely.
//
// The server does not run the telemetry sampler: /timeseries (what
// aidb-top polls), the anomaly detector and system.alerts stay empty
// here. aidb-repl -serve runs it.
//
// The server only serves statements. Knob tuning, index advice and
// workload forecasting are not linked in; they run beside it (aidb-tune,
// examples/selftuning) and read the workload through SQL over system.*.
//
//	aidb-serve -listen :7070 -http :8080 -max-concurrent 16 -timeout 5s
//
// Try it:
//
//	printf 'CREATE TABLE t (x INT);\nINSERT INTO t VALUES (1);\nSELECT * FROM t;\n' | nc localhost 7070
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"aidb/internal/core"
	"aidb/internal/serve"
)

func main() {
	var (
		listen  = flag.String("listen", ":7070", "line-protocol listen address")
		httpA   = flag.String("http", "", "HTTP listen address (empty = disabled)")
		maxConc = flag.Int("max-concurrent", 0, "admission-gate concurrency bound (0 = unlimited)")
		timeout = flag.Duration("timeout", 0, "default per-statement timeout (0 = none)")
		par     = flag.Int("parallelism", 0, "morsel worker budget (0 = auto: up to NumCPU, idle cores only; 1 = serial)")
		init    = flag.String("init", "", "SQL script file to run before serving")
	)
	flag.Parse()

	db := core.Open()
	db.SetMaxConcurrent(*maxConc)
	db.SetTimeout(*timeout)
	db.SetParallelism(*par)
	if *init != "" {
		script, err := os.ReadFile(*init)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aidb-serve: %v\n", err)
			os.Exit(1)
		}
		if _, err := db.ExecScript(string(script)); err != nil {
			fmt.Fprintf(os.Stderr, "aidb-serve: init script: %v\n", err)
			os.Exit(1)
		}
	}

	srv, err := serve.Listen(db, *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aidb-serve: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("aidb-serve: line protocol on %s\n", srv.Addr())
	if *httpA != "" {
		ln, err := serve.ListenHTTP(db, *httpA)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aidb-serve: %v\n", err)
			os.Exit(1)
		}
		defer ln.Close()
		fmt.Printf("aidb-serve: http on %s\n", ln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("aidb-serve: shutting down")
	srv.Close()
}

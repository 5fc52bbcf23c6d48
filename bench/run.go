package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// runConfig is one measured run of one workload.
type runConfig struct {
	w         *workload
	seed      uint64
	sc        scale
	warmup    time.Duration
	window    time.Duration
	setups    int // how often set-up is timed at least; the median is reported
	serverBin string
	rateScale float64 // open loop: multiplies both arrival rates (the sweep)
	probe     *prober // the host's slowdown; nil leaves every timing as measured
	quick     bool    // small tables, and a tenth of the traced statements
}

// sample is one correct statement.
type sample struct {
	shape shapeID
	lat   time.Duration
	at    time.Duration // when it was answered, since the phase began
}

// client is one connection with its statement stream and what it saw.
type client struct {
	c     *conn
	st    *stream
	o     *oracle
	began time.Time // the current phase

	attempted int
	samples   []sample
	fails     [numFailClasses]int
	firstFail string
	recv      int64           // reply bytes
	lags      []time.Duration // open loop: how late each statement left
	// sent and answered let the sweep sample the backlog while running.
	sent, answered atomic.Int64
}

// record files one answered statement: a failure by class, or a
// latency sample. A wrong or unparsable answer is never a sample.
func (cl *client) record(st *stmt, rep *reply, readErr error, lat time.Duration) {
	cl.attempted++
	cl.recv += int64(rep.bytes)
	var class failClass
	var why string
	switch {
	case readErr != nil:
		class, why = failWrong, readErr.Error()
	case rep.errMsg != "":
		class, why = classifyErr(rep.errMsg), rep.errMsg
	default:
		err := cl.o.check(st, rep)
		if err == nil {
			cl.samples = append(cl.samples, sample{st.shape, lat, time.Since(cl.began)})
			return
		}
		class, why = failWrong, err.Error()
	}
	cl.fails[class]++
	if cl.firstFail == "" {
		cl.firstFail = fmt.Sprintf("%s: %s: %s", failNames[class], st.text, why)
	}
}

// reset forgets what warm-up measured; a warm-up failure stays noted.
func (cl *client) reset() {
	cl.attempted, cl.recv, cl.c.sent = 0, 0, 0
	cl.samples, cl.lags = cl.samples[:0], cl.lags[:0]
	cl.fails = [numFailClasses]int{}
	cl.sent.Store(0)
	cl.answered.Store(0)
}

// closedLoop sends the next statement when the previous one is answered.
func (cl *client) closedLoop(until time.Time) error {
	var rep reply
	for time.Now().Before(until) {
		st := cl.st.next()
		t0 := time.Now()
		if err := cl.c.send(st.text); err != nil {
			return err
		}
		err := readReply(cl.c.br, &rep)
		cl.record(&st, &rep, err, time.Since(t0))
		if err != nil {
			return err // the framing is lost; nothing more can be matched
		}
	}
	return nil
}

// inflight is a statement sent and not yet answered.
type inflight struct {
	st  stmt
	due time.Time
}

// openLoop sends each statement when it is due, whether or not earlier
// ones were answered (the server reads lines in order, so replies match
// sends first in, first out). Latency runs from the due time, so a
// stall is charged to every statement it delays.
func (cl *client) openLoop(start time.Time, dur time.Duration, rateScale float64) error {
	// The sender blocks once this many statements are unanswered; by
	// then the backlog is seconds deep and shows as generator lag.
	pending := make(chan inflight, 8192)
	sendErr := make(chan error, 1)
	go func() {
		defer close(pending)
		var at time.Duration
		for {
			st := cl.st.next()
			at += time.Duration(float64(st.gap) / rateScale)
			if at >= dur {
				sendErr <- nil
				return
			}
			due := start.Add(at)
			sleepUntil(due)
			cl.lags = append(cl.lags, time.Since(due))
			pending <- inflight{st, due}
			cl.sent.Add(1)
			if err := cl.c.send(st.text); err != nil {
				sendErr <- err
				return
			}
		}
	}()
	var rep reply
	var readErr error
	for p := range pending {
		if readErr != nil {
			continue // drain so the sender can finish
		}
		readErr = readReply(cl.c.br, &rep)
		cl.record(&p.st, &rep, readErr, time.Since(p.due))
		cl.answered.Add(1)
	}
	if err := <-sendErr; err != nil {
		return err
	}
	return readErr
}

// sleepUntil blocks in nanosleep(2) rather than time.Sleep: a Go timer
// that expires while the process is otherwise idle is served by the
// network poller, which rounds waits under a millisecond up to one, and
// that lateness would be charged to every open-loop statement.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // woken early by a signal: the statement leaves early by that much
	}
}

// phase drives every client for d from start and waits until all are
// idle.
func phase(cfg *runConfig, clients []*client, start time.Time, d time.Duration) error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, cl := range clients {
		cl.began = start
		wg.Add(1)
		go func() {
			defer wg.Done()
			if cfg.w.open {
				errs[i] = cl.openLoop(start, d, cfg.rateScale)
			} else {
				errs[i] = cl.closedLoop(start.Add(d))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// minSliceSamples is how many statements a slice should hold.
const minSliceSamples = 100

// numSlices is how many equal ticks a window is cut into: one per
// second, at least five.
func numSlices(window time.Duration) int { return max(5, int(window.Seconds())) }

// sampleCPU reads the server's CPU time at every slice boundary of the
// window; the returned channel delivers numSlices+1 readings.
func sampleCPU(srv *server, start time.Time, window time.Duration) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		n := numSlices(window)
		at := make([]float64, 0, n+1)
		for k := 0; k <= n; k++ {
			time.Sleep(time.Until(start.Add(window * time.Duration(k) / time.Duration(n))))
			cpu, err := srv.cpuSeconds()
			if err != nil {
				cpu = 0 // the run fails on its own when the server is gone
			}
			at = append(at, cpu)
		}
		out <- at
	}()
	return out
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind a percentile; 0 when not one
}

// runResult is what one run measured.
type runResult struct {
	attempted, failed int
	correct           bool
	note              string // first failure, if any
	endToEnd          []metric
	layers            []metric // counters and client-side numbers of the same run
}

// session is a started, loaded, probed server with its clients.
type session struct {
	srv     *server
	clients []*client
}

func (s *session) close() {
	for _, cl := range s.clients {
		cl.c.close()
	}
	s.srv.stop()
}

// writeInitScript writes the workload's init script under outDir.
func writeInitScript(w *workload, d dataset) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path, err := filepath.Abs(filepath.Join(outDir, fmt.Sprintf("init-%s-%d.sql", w.name, d.seed)))
	if err != nil {
		return "", err
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := d.writeInit(f, w.tables); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// probe is the statement whose first correct answer ends set-up.
func probe(w *workload, d dataset) stmt {
	if w.tables&tAccounts != 0 {
		return stmt{shape: shGet, key: 1, val: d.accountBalance(1), text: "SELECT id, owner, balance FROM accounts WHERE id = 1"}
	}
	return stmt{shape: shPoint, key: 1, text: "SELECT id,age,city FROM users WHERE id = 1"}
}

// ask sends one statement that has to be answered correctly.
func ask(c *conn, o *oracle, st *stmt, rep *reply) error {
	if err := c.roundTrip(st.text, rep); err != nil {
		return err
	}
	if rep.errMsg != "" {
		return fmt.Errorf("%s: server said %s", st.text, rep.errMsg)
	}
	if err := o.check(st, rep); err != nil {
		return fmt.Errorf("%s: %w", st.text, err)
	}
	return nil
}

// setUp starts a server and connects the clients; setupS is the time
// from exec to the first correct answer.
func setUp(cfg *runConfig, d dataset, o *oracle, initPath string) (*session, float64, error) {
	srv, err := startServer(cfg.serverBin, initPath, cfg.w.serverFlags())
	if err != nil {
		return nil, 0, err
	}
	s := &session{srv: srv}
	for i := 0; i < numConns; i++ {
		c, err := dial(srv.tcpAddr)
		if err != nil {
			s.close()
			return nil, 0, err
		}
		s.clients = append(s.clients, &client{c: c, o: o, st: newStream(cfg.w, d, i)})
	}
	var rep reply
	p := probe(cfg.w, d)
	if err := ask(s.clients[0].c, o, &p, &rep); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("set-up probe: %w", err)
	}
	setupS := time.Since(srv.started).Seconds()
	if cfg.w.tables&tAccounts != 0 {
		for _, cl := range s.clients {
			for _, p := range prepares {
				if err := cl.c.mustOK(p); err != nil {
					s.close()
					return nil, 0, err
				}
			}
		}
	}
	return s, setupS, nil
}

// setupFill is how long set-ups are repeated beyond cfg.setups.
const setupFill = 1500 * time.Millisecond

// runWorkload sets up cfg.setups times or more, keeps the last server, warms
// it, measures one window between two scrapes, and checks the books.
func runWorkload(cfg *runConfig) (*runResult, error) {
	d := dataset{seed: cfg.seed, sc: cfg.sc}
	initPath, err := writeInitScript(cfg.w, d)
	if err != nil {
		return nil, err
	}
	defer os.Remove(initPath)
	o, err := newOracle(d, cfg.w)
	if err != nil {
		return nil, err
	}
	var s *session
	var setups []float64
	setupFrom := time.Now()
	// A set-up of 50 ms (mixed_rw) repeats until setupFill has passed, up
	// to five times cfg.setups, so that its median rests on more samples.
	for i := 0; i < cfg.setups || (cfg.setups > 1 && i < 5*cfg.setups && time.Since(setupFrom) < setupFill); i++ {
		if s != nil {
			s.close()
		}
		var t float64
		if s, t, err = setUp(cfg, d, o, initPath); err != nil {
			return nil, err
		}
		setups = append(setups, t)
	}
	// mixed_rw sets up in 50 ms; a second before it steadies the probe's mean.
	setupSlow := cfg.probe.slowdown(setupFrom.Add(-time.Second), time.Now())
	defer s.close()

	if err := phase(cfg, s.clients, time.Now(), cfg.warmup); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	warmFails := 0
	for _, cl := range s.clients {
		for _, n := range cl.fails {
			warmFails += n
		}
		cl.reset()
	}
	before, err := s.srv.scrape()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	cpuCh := sampleCPU(s.srv, start, cfg.window)
	if err := phase(cfg, s.clients, start, cfg.window); err != nil {
		return nil, fmt.Errorf("window: %w", err)
	}
	cpu := <-cpuCh
	after, err := s.srv.scrape()
	if err != nil {
		return nil, err
	}
	rss, err := s.srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	liveHeap, err := s.srv.liveHeapMB()
	if err != nil {
		return nil, err
	}

	res := summarize(cfg, s.clients, cpu, start)
	served := int(after.num["serve.statements"] - before.num["serve.statements"])
	if warmFails > 0 {
		res.correct = false
		res.note = fmt.Sprintf("%d failures in warm-up; %s", warmFails, res.note)
	}
	if served != res.attempted {
		res.correct = false
		res.note = fmt.Sprintf("server counted %d statements, clients sent %d; %s", served, res.attempted, res.note)
	}
	if cfg.w.tables&tAccounts != 0 {
		var rep reply
		var streams []*stream
		for _, cl := range s.clients {
			streams = append(streams, cl.st)
		}
		err := s.clients[0].c.roundTrip("SELECT count(*), sum(balance) FROM accounts", &rep)
		if err == nil {
			err = o.checkLedger(&rep, streams)
		}
		if err != nil {
			res.correct = false
			res.note = err.Error() + "; " + res.note
		}
	}
	res.endToEnd = append([]metric{{name: "setup_s", value: median(setups) / setupSlow, unit: "s"}}, res.endToEnd...)
	res.endToEnd = append(res.endToEnd, metric{name: "server_live_heap_mb", value: liveHeap, unit: "MB"})
	res.layers = append(append(counterMetrics(before, after), metric{name: "proc.peak_rss_mb", value: rss, unit: "MB"}), res.layers...)
	return res, nil
}

// summarize turns the clients' samples into end-to-end and client-side
// metrics. cpu holds the server's CPU seconds at the slice boundaries of
// the window that began at start.
//
// Each timing metric is computed per slice of the window: one second, or
// as many seconds as it takes to hold minSliceSamples statements (five on
// analytic_scan), so that a slice's count and percentiles mean something.
// On a closed loop the slice's value is scaled to the reference host by
// the slowdown the probe saw meanwhile (probe.go); an open loop's arrivals
// are fixed in real time, so its timings stay as measured. The mean of the
// middle half of the slices is reported, so that a few odd seconds, the
// host's or the server's, do not decide the run.
func summarize(cfg *runConfig, clients []*client, cpu []float64, start time.Time) *runResult {
	res := &runResult{}
	ticks := len(cpu) - 1 // CPU readings are one tick apart
	tick := cfg.window / time.Duration(ticks)
	total := 0
	for _, cl := range clients {
		total += len(cl.samples)
	}
	g := 1 // ticks per slice; at least five slices
	if total > 0 && total/ticks < minSliceSamples {
		g = max(1, min(ticks/5, (minSliceSamples*ticks+total-1)/total))
	}
	n := ticks / g
	edge := func(k int) int { // the tick at which slice k begins; the last slice takes the remainder
		if k >= n {
			return ticks
		}
		return k * g
	}
	slices := make([][]float64, n) // latencies in us, by the slice that answered them
	counted := make([]int, n)      // answers that count toward throughput
	var lats, lags []float64
	var byShape [numShapes][]float64
	var bytes int64
	wrong := 0
	for _, cl := range clients {
		res.attempted += cl.attempted
		for _, f := range cl.fails {
			res.failed += f
		}
		wrong += cl.fails[failWrong] + cl.fails[failOther]
		if res.note == "" {
			res.note = cl.firstFail
		}
		bytes += cl.recv + cl.c.sent
		for _, sm := range cl.samples {
			us := float64(sm.lat) / float64(time.Microsecond)
			lats = append(lats, us)
			byShape[sm.shape] = append(byShape[sm.shape], us)
			k := min(int(sm.at/tick)/g, n-1) // an open loop's drain joins the last slice
			slices[k] = append(slices[k], us)
			// On an open loop a statement over the limit misses it.
			if !cfg.w.open || sm.lat <= latencyLimit {
				counted[k]++
			}
		}
		for _, l := range cl.lags {
			lags = append(lags, float64(l)/float64(time.Microsecond))
		}
	}
	// Wrong answers fail the run. Sheds and timeouts are the server's
	// right under load: they count as failed and as missing throughput.
	res.correct = wrong == 0 && len(lats) > 0

	var tput, p50, p95, cpuPer, slow, rawTput, rawP50 []float64
	for k, ls := range slices {
		if len(ls) == 0 {
			continue
		}
		sort.Float64s(ls)
		from, to := tick*time.Duration(edge(k)), tick*time.Duration(edge(k+1))
		f := 1.0
		if !cfg.w.open {
			f = cfg.probe.slowdown(start.Add(from), start.Add(to))
		}
		perSec := float64(counted[k]) / (to - from).Seconds()
		slow = append(slow, f)
		rawTput = append(rawTput, perSec)
		rawP50 = append(rawP50, percentile(ls, 50))
		tput = append(tput, perSec*f)
		p50 = append(p50, percentile(ls, 50)/f)
		p95 = append(p95, percentile(ls, 95)/f)
		cpuPer = append(cpuPer, (cpu[edge(k+1)]-cpu[edge(k)])*1e6/float64(len(ls))/f)
	}
	res.endToEnd = []metric{
		{name: "throughput_stmts_s", value: midmean(tput), unit: "1/s", n: len(lats)},
		{name: "latency_p50_us", value: midmean(p50), unit: "us", n: len(lats)},
		{name: "latency_p95_us", value: midmean(p95), unit: "us", n: len(lats)},
		{name: "server_cpu_us_per_stmt", value: midmean(cpuPer), unit: "us", n: len(lats)},
	}

	// The client-side layer metrics pool the whole window.
	pooled := func(vals []float64, p float64) float64 {
		if len(vals) == 0 {
			return 0
		}
		return percentile(vals, p)
	}
	sort.Float64s(lats)
	sort.Float64s(lags)
	res.layers = []metric{
		{name: "host.slowdown", value: midmean(slow), unit: "ratio"},
		{name: "client.throughput_raw_stmts_s", value: midmean(rawTput), unit: "1/s", n: len(lats)},
		{name: "client.latency_p50_raw_us", value: midmean(rawP50), unit: "us", n: len(lats)},
		{name: "client.latency_p99_us", value: pooled(lats, 99), unit: "us", n: len(lats)},
		{name: "client.generator_lag_p99_us", value: pooled(lags, 99), unit: "us", n: len(lags)},
		{name: "client.bytes_per_stmt", value: float64(bytes) / float64(max(res.attempted, 1)), unit: "B"},
		{name: "client.error_rate", value: float64(res.failed) / float64(max(res.attempted, 1)), unit: "ratio"},
	}
	latSum := 0.0
	for _, l := range lats {
		latSum += l
	}
	for sh, ls := range byShape {
		sort.Float64s(ls)
		sum := 0.0
		for _, l := range ls {
			sum += l
		}
		res.layers = append(res.layers,
			metric{name: "shape." + shapeNames[sh] + ".p50_us", value: pooled(ls, 50), unit: "us", n: len(ls)},
			metric{name: "shape." + shapeNames[sh] + ".share", value: sum / max(latSum, 1), unit: "ratio"})
	}
	return res
}

// counterMetrics reports what the server counted between two scrapes.
func counterMetrics(before, after counters) []metric {
	delta := func(name string) float64 { return after.num[name] - before.num[name] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	stmts := delta("serve.statements")
	perStmt := func(name, counter, unit string, scale float64) metric {
		return metric{name: name, value: ratio(delta(counter), stmts) * scale, unit: unit}
	}
	queued := func(c counters) histogram { return c.hist["admission.queued_ns"] }
	peak := func(c counters) histogram { return c.hist["exec.peak_bytes"] }
	return []metric{
		{name: "serve.statements", value: stmts, unit: "count"},
		perStmt("sql.parses_per_stmt", "sql.parses", "count", 1),
		perStmt("plan.builds_per_stmt", "plan.builds", "count", 1),
		{name: "plancache.hit_ratio", value: ratio(delta("plancache.hits"), delta("plancache.hits")+delta("plancache.misses")), unit: "ratio"},
		perStmt("plancache.evictions_per_stmt", "plancache.evictions", "count", 1),
		{name: "plancache.entries", value: after.num["plancache.entries"], unit: "count"},
		perStmt("exec.rows_scanned_per_stmt", "exec.rows_scanned", "count", 1),
		perStmt("exec.rows_output_per_stmt", "exec.rows_output", "count", 1),
		perStmt("exec.chunks_per_stmt", "exec.chunks_emitted", "count", 1),
		perStmt("exec.morsels_per_stmt", "exec.morsels", "count", 1),
		{name: "exec.chunk_pool.hit_ratio", value: ratio(delta("exec.chunk_pool.hits"), delta("exec.chunk_pool.hits")+delta("exec.chunk_pool.misses")), unit: "ratio"},
		{name: "exec.query_errors", value: delta("exec.query_errors"), unit: "count"},
		{name: "admission.shed_ratio", value: ratio(delta("admission.shed"), delta("admission.shed")+delta("admission.admitted")), unit: "ratio"},
		// The server's histogram is cumulative, so its p95 covers
		// warm-up too; the mean is of the window alone.
		{name: "admission.queued_us_p95", value: queued(after).P95 / 1e3, unit: "us", n: int(queued(after).Count)},
		{name: "admission.queued_us_mean", value: ratio(queued(after).Sum-queued(before).Sum, queued(after).Count-queued(before).Count) / 1e3, unit: "us"},
		{name: "exec.peak_kb_per_query", value: ratio(peak(after).Sum-peak(before).Sum, peak(after).Count-peak(before).Count) / 1024, unit: "KB"},
		{name: "mem.aborts", value: delta("mem.aborts"), unit: "count"},
		perStmt("proc.gc_pause_us_per_stmt", "proc.gc_pause_total_ns", "us", 1e-3),
		{name: "proc.heap_alloc_mb", value: after.num["proc.heap_alloc_bytes"] / (1 << 20), unit: "MB"},
	}
}

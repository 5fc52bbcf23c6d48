package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"aidb/internal/governance"
)

func init() {
	register("E29", runE29OverloadGovernance)
}

// overloadResult summarizes one open-loop overload run.
type overloadResult struct {
	admitted  int
	shed      int
	latencies []time.Duration // arrival-to-completion, admitted jobs only
}

func (r *overloadResult) p95() time.Duration {
	if len(r.latencies) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), r.latencies...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[(len(s)*95)/100%len(s)]
}

func (r *overloadResult) max() time.Duration {
	var m time.Duration
	for _, l := range r.latencies {
		if l > m {
			m = l
		}
	}
	return m
}

// runOverload drives n jobs open-loop (fixed interarrival, no
// back-pressure from completions — the arrival process does not slow
// down when the system falls behind) through a fresh AdmissionGate with
// maxConc slots, each admitted job holding its slot for service.
// deadline > 0 attaches a per-job deadline, so the gate sheds jobs it
// cannot admit in time; deadline == 0 is the FIFO queue-forever
// baseline. Returns per-job completion latencies for the admitted jobs.
func runOverload(n, maxConc int, service, interarrival, deadline time.Duration, m governance.Metrics) *overloadResult {
	gate := governance.NewAdmissionGate(maxConc)
	gate.Instrument(m)
	res := &overloadResult{}
	done := make(chan struct {
		lat time.Duration
		ok  bool
	}, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		arrive := start.Add(time.Duration(i) * interarrival)
		go func() {
			if d := time.Until(arrive); d > 0 {
				time.Sleep(d)
			}
			ctx := context.Background()
			if deadline > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithDeadline(ctx, arrive.Add(deadline))
				defer cancel()
			}
			release, err := gate.Admit(ctx)
			if err != nil {
				done <- struct {
					lat time.Duration
					ok  bool
				}{0, false}
				return
			}
			time.Sleep(service)
			release()
			done <- struct {
				lat time.Duration
				ok  bool
			}{time.Since(arrive), true}
		}()
	}
	for i := 0; i < n; i++ {
		d := <-done
		if d.ok {
			res.admitted++
			res.latencies = append(res.latencies, d.lat)
		} else {
			res.shed++
		}
	}
	return res
}

// runE29OverloadGovernance validates the admission-control claim: under
// sustained 2x-capacity open-loop load, deadline-aware shedding keeps
// the p95 completion latency of admitted work bounded near the deadline,
// while the FIFO queue-forever baseline's latency grows with the length
// of the overload (double the jobs, roughly double the tail) — the
// classic unbounded-queue failure the governance layer exists to stop.
func runE29OverloadGovernance(seed uint64) *Table {
	t := &Table{
		ID:     "E29",
		Title:  "Overload governance: deadline-aware admission bounds tail latency, FIFO does not",
		Claim:  "Under 2x-capacity open-loop load, a deadline-aware admission gate sheds late work and keeps admitted-work p95 near the deadline, while FIFO queueing's p95 grows with overload duration (robustness / self-protection; §4 database governance)",
		Header: []string{"policy", "jobs", "admitted", "shed", "p95 (ms)", "max (ms)"},
	}
	_ = seed // timing harness; arrivals are a fixed schedule, not sampled
	const (
		maxConc      = 2
		service      = 2 * time.Millisecond
		interarrival = 500 * time.Microsecond // 2x the gate's drain rate
		deadline     = 15 * time.Millisecond
	)
	ms := func(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d)/1e6) }

	fifo100 := runOverload(100, maxConc, service, interarrival, 0, governance.Metrics{})
	fifo200 := runOverload(200, maxConc, service, interarrival, 0, governance.Metrics{})
	gov200 := runOverload(200, maxConc, service, interarrival, deadline, governance.Metrics{})

	t.Rows = append(t.Rows,
		[]string{"fifo (no deadline)", "100", itoa(fifo100.admitted), itoa(fifo100.shed), ms(fifo100.p95()), ms(fifo100.max())},
		[]string{"fifo (no deadline)", "200", itoa(fifo200.admitted), itoa(fifo200.shed), ms(fifo200.p95()), ms(fifo200.max())},
		[]string{"deadline-aware", "200", itoa(gov200.admitted), itoa(gov200.shed), ms(gov200.p95()), ms(gov200.max())},
	)

	// Generous slack for loaded CI hosts: the governed tail must stay
	// near deadline+service, the FIFO tail must keep growing with the
	// job count and clear the governed bound.
	govBound := deadline + service + 25*time.Millisecond
	t.Holds = gov200.shed > 0 &&
		gov200.p95() <= govBound &&
		fifo200.p95() > fifo100.p95() &&
		fifo200.p95() > govBound
	t.Note = fmt.Sprintf(
		"open-loop arrivals at 2x drain rate; governed p95 bound %.0fms (deadline %.0fms + service + slack); FIFO tail grows with overload length while shedding %d/%d jobs holds the governed tail",
		float64(govBound)/1e6, float64(deadline)/1e6, gov200.shed, 200)
	return t
}
